package core

// Durable-session state for the detection back-end (DESIGN.md §15). A
// Detector's resumable state is Algorithm 1's (§5.3) per-object active
// points: for every live object, every active point with its accumulated
// clock (epoch or full form) and last-action metadata, plus the racy-object
// accounting and the lifetime counters. WriteState encodes it straight from
// the live store into a snapshot section; ReadState decodes a section into a
// fresh detector through the ordinary arena/store insertion paths, so the
// restored detector's probe behavior, growth thresholds, and obs gauges are
// the ones a live detector would have.
//
// Not written: the retained Races slice (verdicts already streamed through
// OnRace before the checkpoint; the slice only feeds offline Races() output)
// and the report memos (re-derived deterministically on the next race).
// Objects and racy ids are written ascending and each object's points
// sorted by (Class, Val), so snapshot bytes are deterministic for a given
// detector state; with an enumerating engine the rebuilt table's scan order
// may therefore differ from the live table's insertion history, which can
// reorder same-action verdicts — bounded representations (every translated
// ECL spec) are unaffected.
//
// Section layout: the object count, then per object its id, point count
// and points (class, value, epoch tid and clock, full clock, last action,
// last thread, last seq); the racy-object ids; the reclaimed racy count;
// and the Stats counters in field order.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ap"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// ptRef is WriteState's sort element: one active point and its state.
type ptRef struct {
	pt ap.Point
	ps *ptState
}

// WriteState encodes the detector's resumable state into sw's open
// section. It only reads the detector, which stays usable.
func (d *Detector) WriteState(sw *wire.StateWriter) {
	d.objIDs = sortedObjs(d.objIDs, d.objects)
	sw.Uvarint(uint64(len(d.objIDs)))
	for _, obj := range d.objIDs {
		os := d.objects[obj]
		d.ptRefs = d.ptRefs[:0]
		if t := os.table; t != nil {
			for i, u := range t.used {
				if u {
					d.ptRefs = append(d.ptRefs, ptRef{t.keys[i], &t.states[i]})
				}
			}
		} else {
			for i := 0; i < os.n; i++ {
				d.ptRefs = append(d.ptRefs, ptRef{os.keys[i], &os.states[i]})
			}
		}
		slices.SortFunc(d.ptRefs, func(a, b ptRef) int {
			if c := cmp.Compare(a.pt.Class, b.pt.Class); c != 0 {
				return c
			}
			if a.pt.Val.Less(b.pt.Val) {
				return -1
			}
			if b.pt.Val.Less(a.pt.Val) {
				return 1
			}
			return 0
		})
		sw.Varint(int64(obj))
		sw.Uvarint(uint64(len(d.ptRefs)))
		for _, r := range d.ptRefs {
			ps := r.ps
			sw.Varint(int64(r.pt.Class))
			sw.Value(r.pt.Val)
			sw.Varint(int64(ps.epoch.T))
			sw.Uvarint(ps.epoch.C)
			sw.VC(ps.vc)
			sw.Action(ps.lastAct)
			sw.Varint(int64(ps.lastThread))
			sw.Varint(int64(ps.lastSeq))
		}
	}
	clear(d.ptRefs)
	d.objIDs = sortedObjs(d.objIDs, d.racyObjs)
	sw.Uvarint(uint64(len(d.objIDs)))
	for _, obj := range d.objIDs {
		sw.Varint(int64(obj))
	}
	sw.Varint(int64(d.deadRacy))
	st := &d.stats
	for _, v := range [...]int{st.Actions, st.Checks, st.Races, st.RacyEvents,
		st.ActivePoints, st.PeakActive, st.Reclaimed} {
		sw.Varint(int64(v))
	}
}

// sortedObjs returns m's object ids in ascending order, reusing buf.
func sortedObjs[V any](buf []trace.ObjID, m map[trace.ObjID]V) []trace.ObjID {
	buf = buf[:0]
	for obj := range m {
		buf = append(buf, obj)
	}
	slices.Sort(buf)
	return buf
}

// ReadState decodes a section written by WriteState into the detector,
// which must be fresh (no objects, no processed events). repFor resolves
// each object's representation — the daemon's spec bindings, exactly as at
// Register time. The section's historical counters are folded into the
// detector's stats; ActivePoints is re-derived from the inserted points.
// On error the detector holds part of the state and must be discarded.
func (d *Detector) ReadState(sr *wire.StateReader, repFor func(trace.ObjID) (ap.Rep, error)) error {
	if len(d.objects) != 0 || d.stats.Actions != 0 {
		return fmt.Errorf("core: ReadState into a non-fresh detector")
	}
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		obj := trace.ObjID(sr.Int())
		if _, dup := d.objects[obj]; dup {
			return fmt.Errorf("core: o%d appears twice in the snapshot", obj)
		}
		rep, err := repFor(obj)
		if err != nil {
			return fmt.Errorf("core: restoring o%d: %w", obj, err)
		}
		d.reps[obj] = rep
		os := d.arena.newObjState()
		os.rep = rep
		d.objects[obj] = os
		d.ob.tblInline.Add(1)
		for pn := sr.Count(); pn > 0 && sr.Err() == nil; pn-- {
			pt := ap.Point{Class: sr.Int(), Val: sr.Value()}
			ps, existed := d.lookupOrInsert(os, pt)
			if existed {
				return fmt.Errorf("core: restoring o%d: point %v appears twice in the snapshot", obj, pt)
			}
			ps.epoch = vclock.Epoch{T: vclock.Tid(sr.Int()), C: sr.Uvarint()}
			ps.vc = d.arena.cloneClock(sr.VC(), 0)
			ps.lastAct = sr.Action()
			ps.lastThread = vclock.Tid(sr.Int())
			ps.lastSeq = sr.Int()
			d.addActive(1)
		}
	}
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		d.racyObjs[trace.ObjID(sr.Int())] = struct{}{}
	}
	d.deadRacy += sr.Int()
	d.stats.Actions += sr.Int()
	d.stats.Checks += sr.Int()
	d.stats.Races += sr.Int()
	d.stats.RacyEvents += sr.Int()
	sr.Int() // ActivePoints: re-derived above
	d.stats.PeakActive = max(d.stats.PeakActive, sr.Int())
	d.stats.Reclaimed += sr.Int()
	return sr.Err()
}
