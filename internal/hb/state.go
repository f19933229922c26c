package hb

import (
	"fmt"
	"slices"

	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Durable-session state (DESIGN.md §15): an Engine's entire analysis state
// is its thread clocks, lock clocks, and in-flight channel message clocks —
// Table 1's T, L and channel queues, all plain vector clocks once the
// segment-sharing discipline is stripped. WriteState encodes them straight
// from the live engine into a snapshot section; ReadState decodes a section
// into a fresh engine that stamps the continuation of the stream with
// clocks equal (as values) to the uninterrupted run's. Segment bookkeeping
// (shared/tok/gen) is *not* carried over: decoded clocks start as private
// mutable segment heads, and the first freeze re-enters the sharing
// discipline. That changes which events share snapshot pointers, never the
// clock values, so detection verdicts are unaffected.
//
// Section layout: the thread slots in Tid order (seen, dead, clock), then
// the locks ascending by id (id, clock), then the channels with messages in
// flight ascending by id (id, oldest-first queue of clocks).

// WriteState encodes the engine's analysis state into sw's open section.
// It only reads the engine, which stays usable.
func (en *Engine) WriteState(sw *wire.StateWriter) {
	sw.Uvarint(uint64(len(en.threads)))
	for i := range en.threads {
		ts := &en.threads[i]
		sw.Bool(ts.seen)
		sw.Bool(ts.dead)
		sw.VC(ts.clock)
	}
	en.lockIDs = en.lockIDs[:0]
	for l := range en.locks {
		en.lockIDs = append(en.lockIDs, l)
	}
	slices.Sort(en.lockIDs)
	sw.Uvarint(uint64(len(en.lockIDs)))
	for _, l := range en.lockIDs {
		sw.Varint(int64(l))
		sw.VC(en.locks[l])
	}
	en.chanIDs = en.chanIDs[:0]
	for ch, cs := range en.chans {
		if cs != nil && len(cs.queue) != 0 {
			en.chanIDs = append(en.chanIDs, ch)
		}
	}
	slices.Sort(en.chanIDs)
	sw.Uvarint(uint64(len(en.chanIDs)))
	for _, ch := range en.chanIDs {
		q := en.chans[ch].queue
		sw.Varint(int64(ch))
		sw.Uvarint(uint64(len(q)))
		for _, c := range q {
			sw.VC(c)
		}
	}
}

// ReadState decodes a section written by WriteState into the engine, which
// must be fresh (no events processed). On error the engine holds part of
// the state and must be discarded.
func (en *Engine) ReadState(sr *wire.StateReader) error {
	if len(en.threads) != 0 || en.seen != 0 || len(en.locks) != 0 || len(en.chans) != 0 {
		return fmt.Errorf("hb: ReadState into a non-fresh engine")
	}
	en.threads = make([]threadState, sr.Count())
	for i := range en.threads {
		ts := &en.threads[i]
		ts.seen, ts.dead, ts.clock = sr.Bool(), sr.Bool(), sr.VC()
		if ts.seen {
			en.seen++
		}
	}
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		l := trace.LockID(sr.Int())
		if _, dup := en.locks[l]; dup {
			return fmt.Errorf("hb: lock %d appears twice in the snapshot", l)
		}
		en.locks[l] = sr.VC()
	}
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		ch := trace.ChanID(sr.Int())
		if _, dup := en.chans[ch]; dup {
			return fmt.Errorf("hb: channel %d appears twice in the snapshot", ch)
		}
		q := make([]vclock.VC, sr.Count())
		for i := range q {
			q[i] = sr.VC()
		}
		en.chans[ch] = &chanState{queue: q}
	}
	return sr.Err()
}
