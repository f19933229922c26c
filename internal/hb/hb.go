// Package hb implements the happens-before engine of Table 1 in the paper:
// it maintains the auxiliary maps T : Tid → VC and L : Lock → VC, updates
// them at every synchronization event, and stamps action (and memory) events
// with the vector clock of their thread.
//
// The update rules (Table 1):
//
//	τ fork υ:  T(υ) ← inc_υ(T(τ));  T(τ) ← inc_τ(T(τ))
//	τ join υ:  T(τ) ← T(τ) ⊔ T(υ)
//	τ acq l:   T(τ) ← T(τ) ⊔ L(l)
//	τ rel l:   L(l) ← T(τ);  T(τ) ← inc_τ(T(τ))
//	τ action:  vc(e) ← T(τ)
//
// A thread's very first appearance initializes T(τ) = inc_τ(⊥) so distinct
// root threads start incomparable.
//
// # Snapshot stamping and the Event.Clock immutability contract
//
// Between two synchronization events a thread's clock is constant — the
// same observation FastTrack (Flanagan & Freund, PLDI 2009) exploits with
// epochs — so cloning T(τ) for every stamped event is pure waste. The
// engine instead maintains one frozen snapshot per thread *segment* (the
// span between two clock-changing events) and stamps every event in the
// segment with the same shared vclock.VC. Lock clocks L(l) and in-flight
// channel message clocks alias the releasing/sending thread's segment
// snapshot too. A synchronization event that must change T(τ) starts a new
// segment by copy-on-write from the shared vclock pool; the old snapshot
// lives on, unwritten, in whatever events retained it.
//
// The price of zero-clone stamping is a contract: every Event.Clock (and
// every clock returned by ThreadClock/LockClock/Process) is IMMUTABLE.
// Consumers may read it, Clone it, or Join it into *other* clocks, but must
// never write through it (no Inc/Set/Join-receiver/element assignment).
// All in-tree consumers — core, pipeline, fasttrack, lockset, explore,
// replay, the monitor — are read-only; the debug build tag `clockcheck`
// poisons every frozen snapshot (records its bytes at freeze time) and
// panics on the first divergence, catching contract violations across the
// whole test suite (see ci.sh -clockcheck).
package hb

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Segment-discipline counters ("hb.segments_frozen", "hb.segment_rollovers"):
// a freeze opens a shared snapshot (one per thread segment), a rollover is
// the copy-on-write that ends one. Their ratio to stamped events is the
// zero-clone win (DESIGN.md §7); these sit on the synchronization path
// only, never on the per-action hot path. The counters are per-engine
// fields resolved from a registry (NewObs) so sessions can scope them.

// Engine tracks the happens-before relation of an event stream. It is not
// safe for concurrent use; the monitored runtime serializes events into it.
type Engine struct {
	threads []threadState // dense per-thread state, indexed by Tid
	seen    int           // threads initialized so far
	locks   map[trace.LockID]vclock.VC
	chans   map[trace.ChanID]*chanState
	guard   snapGuard // clockcheck-only snapshot poisoning (no-op otherwise)

	// WriteState's sort buffers, kept so a checkpoint allocates nothing.
	lockIDs []trace.LockID
	chanIDs []trace.ChanID

	// Segment counters; the process-global metrics by default (New), a
	// session scope's when built via NewObs. Scoped counters roll up, so
	// the global series stays whole either way.
	segFrozen    *obs.Counter
	segRollovers *obs.Counter
}

// threadState is the per-thread slot: the current clock T(τ) plus the
// segment-sharing discipline. While shared is set, clock is a frozen
// snapshot aliased by stamped events (and possibly lock clocks and channel
// messages) and must not be written; the next clock-changing event
// copies-on-write first.
type threadState struct {
	clock  vclock.VC
	seen   bool
	dead   bool // joined or ended
	shared bool // clock is frozen: stamped on events, locks, or messages
	tok    int  // clockcheck poison token for the frozen snapshot
	gen    int  // segment generation, bumped on every copy-on-write rollover
}

// chanState carries the in-flight message clocks of one FIFO channel: the
// i-th receive joins the clock captured by the i-th send. Popped slots are
// nil-ed so the backing array never retains received clocks, and a drained
// queue releases the array entirely.
type chanState struct {
	queue []vclock.VC
}

// New returns an empty engine recording into the process-global metrics.
func New() *Engine { return NewObs(nil) }

// NewObs returns an empty engine whose segment counters live in reg — an
// rd2d session passes its own scope so per-session stamping activity is
// attributable. A nil reg means obs.Default.
func NewObs(reg *obs.Registry) *Engine {
	if reg == nil {
		reg = obs.Default
	}
	return &Engine{
		locks:        map[trace.LockID]vclock.VC{},
		chans:        map[trace.ChanID]*chanState{},
		segFrozen:    reg.Counter("hb.segments_frozen"),
		segRollovers: reg.Counter("hb.segment_rollovers"),
	}
}

// reserve grows the dense thread table to cover t.
func (en *Engine) reserve(t vclock.Tid) {
	for len(en.threads) <= int(t) {
		en.threads = append(en.threads, threadState{})
	}
}

// state returns t's slot, initializing T(τ) = inc_τ(⊥) on first sight. The
// returned pointer is invalidated by the next reserve/state call for a
// higher tid.
func (en *Engine) state(t vclock.Tid) *threadState {
	en.reserve(t)
	ts := &en.threads[t]
	if !ts.seen {
		ts.seen = true
		ts.clock = vclock.VC(nil).Inc(t)
		en.seen++
	}
	return ts
}

// peek returns t's current clock without initializing the thread.
func (en *Engine) peek(t vclock.Tid) (vclock.VC, bool) {
	if int(t) >= len(en.threads) || !en.threads[t].seen {
		return nil, false
	}
	return en.threads[t].clock, true
}

// freeze marks the thread's current clock as the segment snapshot and
// returns it. The snapshot is shared from here on: the engine will not
// write it again (mutable copies first), and neither may any consumer.
func (en *Engine) freeze(ts *threadState) vclock.VC {
	if !ts.shared {
		ts.shared = true
		ts.tok = en.guard.record(ts.clock)
		en.segFrozen.Inc()
	}
	return ts.clock
}

// mutable returns the thread's clock with the right to write it in place,
// starting a new segment (copy-on-write) if the current clock is a frozen
// snapshot. The copy comes from the shared clock pool the detector shards
// recycle into.
func (en *Engine) mutable(ts *threadState) vclock.VC {
	if ts.shared {
		en.guard.verify(ts.tok)
		ts.clock = vclock.SharedPool.Clone(ts.clock)
		ts.shared = false
		ts.gen++
		en.segRollovers.Inc()
	}
	return ts.clock
}

// joinInto folds clock d into ts's clock. When d adds no information the
// segment is left intact — no copy, and byte-identical stamps to the
// historical clone-per-event engine, whose in-place Join was a no-op in
// exactly this case (the length guard matters: a longer d, even one that is
// all trailing zeros beyond len(clock), would have grown the clock there).
func (en *Engine) joinInto(ts *threadState, d vclock.VC) {
	if len(d) <= len(ts.clock) && d.LEQ(ts.clock) {
		return
	}
	ts.clock = en.mutable(ts).Join(d)
}

// ThreadClock returns the current clock T(τ), initializing the thread on
// first sight. The returned clock is owned by the engine and may be a live
// shared snapshot; callers must treat it as read-only and Clone before
// retaining or mutating.
func (en *Engine) ThreadClock(t vclock.Tid) vclock.VC {
	return en.state(t).clock
}

// LockClock returns L(l) (bottom if the lock has never been released). The
// returned clock aliases the releasing thread's segment snapshot; read-only.
func (en *Engine) LockClock(l trace.LockID) vclock.VC { return en.locks[l] }

// Process applies an event to the auxiliary state per Table 1 and, for all
// event kinds, stamps e.Clock with the acting thread's segment snapshot
// taken before any post-event increment. The stamped clock is shared — see
// the package comment for the immutability contract. It returns the
// stamped clock.
func (en *Engine) Process(e *trace.Event) (vclock.VC, error) {
	t := e.Thread
	if e.Kind == trace.ForkEvent {
		// Reserve the child slot first so ts stays valid below.
		en.reserve(e.Other)
	}
	ts := en.state(t)
	switch e.Kind {
	case trace.ForkEvent:
		child := &en.threads[e.Other]
		if child.seen {
			return nil, fmt.Errorf("hb: thread t%d forked twice", e.Other)
		}
		snap := en.freeze(ts)
		e.Clock = snap
		child.seen = true
		child.clock = vclock.SharedPool.Clone(snap).Inc(e.Other)
		en.seen++
		ts.clock = en.mutable(ts).Inc(t)
	case trace.JoinEvent:
		cu, ok := en.peek(e.Other)
		if !ok {
			return nil, fmt.Errorf("hb: join on unknown thread t%d", e.Other)
		}
		en.joinInto(ts, cu)
		e.Clock = en.freeze(ts)
		en.threads[e.Other].dead = true
	case trace.AcquireEvent:
		en.joinInto(ts, en.locks[e.Lock])
		e.Clock = en.freeze(ts)
	case trace.ReleaseEvent:
		// The event and L(l) share one snapshot (the old engine cloned
		// twice here); the post-event increment opens a fresh segment.
		snap := en.freeze(ts)
		e.Clock = snap
		en.locks[e.Lock] = snap
		ts.clock = en.mutable(ts).Inc(t)
	case trace.SendEvent:
		// Like a release: the message carries the sender's snapshot, and
		// the sender advances so later sends are distinguishable.
		snap := en.freeze(ts)
		e.Clock = snap
		cs := en.chans[e.Chan]
		if cs == nil {
			cs = &chanState{}
			en.chans[e.Chan] = cs
		}
		cs.queue = append(cs.queue, snap)
		ts.clock = en.mutable(ts).Inc(t)
	case trace.RecvEvent:
		cs := en.chans[e.Chan]
		if cs == nil || len(cs.queue) == 0 {
			return nil, fmt.Errorf("hb: receive on channel c%d with no pending send", e.Chan)
		}
		msg := cs.queue[0]
		cs.queue[0] = nil // drop the clock reference the backing array held
		cs.queue = cs.queue[1:]
		if len(cs.queue) == 0 {
			cs.queue = nil // drained: release the backing array too
		}
		en.joinInto(ts, msg)
		e.Clock = en.freeze(ts)
	case trace.EndEvent:
		e.Clock = en.freeze(ts)
		ts.dead = true
	case trace.ActionEvent, trace.ReadEvent, trace.WriteEvent,
		trace.BeginEvent, trace.DieEvent:
		// The hot path: zero allocations, the segment snapshot is reused.
		e.Clock = en.freeze(ts)
	default:
		return nil, fmt.Errorf("hb: unknown event kind %v", e.Kind)
	}
	return e.Clock, nil
}

// MeetLive returns the pointwise minimum of all live (not joined, not
// ended) threads' clocks. Every access point whose accumulated clock is ⊑
// this meet is dominated by every possible future event and can never
// participate in a race again (the Section 5.3 reclamation the paper leaves
// as future work). It returns nil (bottom) when no thread is live. The
// result is fresh (never aliases engine state): one clone of the first live
// clock, then an in-place pointwise meet per remaining live thread — no
// intermediate []VC is materialized (Compact calls this periodically).
func (en *Engine) MeetLive() vclock.VC {
	var out vclock.VC
	for i := range en.threads {
		ts := &en.threads[i]
		if !ts.seen || ts.dead {
			continue
		}
		if out == nil {
			out = ts.clock.Clone()
			continue
		}
		out = out.MeetWith(ts.clock)
	}
	return out
}

// VerifySnapshots re-validates every frozen snapshot handed out so far
// against the bytes recorded at freeze time. It is a no-op unless built
// with -tags=clockcheck, where a divergence (a consumer wrote through a
// shared Event.Clock) panics with both versions.
func (en *Engine) VerifySnapshots() { en.guard.verifyAll() }

// StampAll runs the whole trace through a fresh engine, stamping every
// event's Clock in place. Events within one thread segment share one
// immutable clock value. Under -tags=clockcheck every snapshot is
// re-verified after the run.
func StampAll(tr *trace.Trace) error {
	en := New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, tr.Events[i].String(), err)
		}
	}
	en.VerifySnapshots()
	return nil
}

// IsBodyEvent reports whether k is a body event: one whose processing does
// not change engine state and reduces to stamping the acting thread's
// current segment snapshot. Serial stamping loops use it to attribute
// per-event time to the skeleton (sync) or stamp (body) stage span.
func IsBodyEvent(k trace.EventKind) bool {
	switch k {
	case trace.ActionEvent, trace.ReadEvent, trace.WriteEvent,
		trace.BeginEvent, trace.DieEvent:
		return true
	}
	return false
}

// Threads returns the number of threads seen so far.
func (en *Engine) Threads() int { return en.seen }
