package main

// The session runtime (DESIGN.md §14). Every session, plain or resumable,
// splits its work the way the paper does: happens-before stamping is one
// ordered pass over the stream, detection is per object. The producer —
// the connection read loop, or WAL replay during rehydration — stamps each
// event right after decoding it, beside the decoder that already owns
// stream order, and hands stamped events over in batches. The session
// itself is the fleet.Runnable: quanta on the shared worker pool run the
// serial core.Detector over those batches and report races. A hot session
// thus overlaps decode+stamp with detect while the daemon's goroutine
// count stays O(workers + connections).
//
// Rare instructions ride in-band with the event they belong to (a mark):
// the compaction threshold the producer computed at a due join, a
// stamping error, and the checkpoint boundary the frame hook cut ahead of
// the event. The runnable therefore sees them at exactly the stream
// position the producer saw them.

import (
	"fmt"
	"runtime/debug"

	"repro/internal/fleet"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// batchLen is the hand-off batch size in events. Per-event hand-off through
// the scheduler (a mutex and a wake per event) costs more CPU than the
// detection it feeds; a batch amortizes both.
const batchLen = 128

// item is one stamped event on its way from the producer to the runnable.
type item struct {
	e trace.Event
	m *mark // nil for almost every event
}

// mark carries the rare in-band instructions attached to one event.
type mark struct {
	ckpt    *boundary // snapshot here, before the event
	err     error     // stamping failed on the event: the session's verdict error
	compact vclock.VC // compact the detector after the event
}

func (it *item) mark() *mark {
	if it.m == nil {
		it.m = &mark{}
	}
	return it.m
}

// --- Producer --------------------------------------------------------------

// readLoop feeds the session from one decoder until the stream ends
// (whatever way) and returns the terminal decode error. A panic while
// stamping is recovered in ingest — the session is degraded and counted —
// and reading resumes without stamping, so the client still gets its
// summary and the daemon never dies. th is the connection's tenant
// throttle; nil (WAL replay) charges nothing.
func (d *daemon) readLoop(s *session, dec *wire.Decoder, th *fleet.Throttle) error {
	for {
		if done, err := s.ingest(dec, th); done {
			return err
		}
	}
}

// ingest is readLoop's body. Each decode is recorded in the session's
// stage.decode span (latency includes waiting for bytes), and the
// /sessions figures are published once per frame. The pending batch is
// handed off when it is full, when the decoder has no buffered bytes left
// in the current frame (so a partial batch never waits on the socket),
// and when the stream ends.
func (s *session) ingest(dec *wire.Decoder, th *fleet.Throttle) (done bool, err error) {
	var e trace.Event
	defer func() {
		if p := recover(); p != nil {
			s.stampPanicked = true
			s.pending = s.pending[:0] // its last event may be half stamped
			obsSessionPanics.Inc()
			s.logf("recovered producer panic at event %s: %v\n%s", e.String(), p, debug.Stack())
			done, err = false, nil
		}
	}()
	lastFrames := dec.Frames()
	for {
		start := s.ob.decode.Start()
		e, err = dec.Next()
		if f := dec.Frames(); f > lastFrames {
			s.ob.frames.Add(uint64(f - lastFrames))
			lastFrames = f
			s.publishLive(dec)
		}
		if err != nil {
			s.publishLive(dec)
			s.handOff(th)
			return true, err
		}
		s.ob.decode.End(start, 1)
		s.produce(&e)
		if len(s.pending) >= batchLen || !dec.Buffered() {
			s.handOff(th)
		}
	}
}

// produce stamps one decoded event with the session's engine and appends
// it to the pending batch. Sync events are timed under stage.skeleton (they
// walk the engine state), body events under stage.stamp. A checkpoint
// boundary the frame hook marked rides on the first event after it; a due
// join carries the compaction threshold. After a stamping error events
// still flow (the runnable counts them) but are no longer stamped; after a
// stamping panic they are dropped.
func (s *session) produce(e *trace.Event) {
	if s.stampPanicked {
		return
	}
	if s.pending == nil {
		select {
		case s.pending = <-s.free:
		default:
			s.pending = make([]item, 0, batchLen)
		}
	}
	s.pending = append(s.pending, item{e: *e})
	it := &s.pending[len(s.pending)-1]
	if s.ckpt != nil {
		it.mark().ckpt = s.ckpt
		s.ckpt = nil
	}
	s.sinceCompact++
	if s.stampErr != nil {
		return
	}
	sp := s.ob.skel
	if hb.IsBodyEvent(e.Kind) {
		sp = s.ob.stamp
	}
	start := sp.Start()
	_, err := s.en.Process(&it.e)
	sp.End(start, 1)
	if err != nil {
		s.stampErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
		it.mark().err = s.stampErr
		return
	}
	if e.Kind == trace.JoinEvent && s.d.cfg.compactOps > 0 && s.sinceCompact >= s.d.cfg.compactOps {
		it.mark().compact = s.en.MeetLive()
		s.sinceCompact = 0
	}
}

// handOff passes the pending batch to the runnable: charge its events to
// the tenant's throttle (an over-quota tenant stalls right here, in its
// own read loop, and TCP flow control pushes back on exactly that
// producer), send it — blocking while the bounded queue is full, counted
// as a backpressure stall — and Wake the session's run-queue entry once.
// The send is the stage.dispatch span, its items the batch length.
func (s *session) handOff(th *fleet.Throttle) {
	b := s.pending
	if len(b) == 0 {
		return
	}
	s.pending = nil
	if th != nil {
		th.Wait(len(b))
	}
	start := s.ob.dispatch.Start()
	s.ob.queue.Add(int64(len(b)))
	select {
	case s.queue <- b:
	default:
		s.ob.stalls.Inc()
		s.queue <- b
	}
	s.ob.dispatch.End(start, len(b))
	s.entry.Wake()
}

// --- Runnable --------------------------------------------------------------

// RunQuantum detects up to n stamped events, never blocking: when no batch
// is ready it yields (used, false) and relies on the producer's Wake after
// every hand-off; when the queue is closed and drained it harvests the
// results and closes s.done. A cursor into a partly consumed batch carries
// over to the next quantum. A panic in detection is recovered here —
// degrade, keep draining — so one poisoned session can neither take down a
// shared worker nor wedge its producer.
func (s *session) RunQuantum(n int) (used int, more bool) {
	if s.finished {
		return 0, false
	}
	start := s.ob.detect.Start()
	defer func() {
		if p := recover(); p != nil {
			s.panicked = true
			s.degraded = true
			obsSessionPanics.Inc()
			at := "(none)"
			if s.pos > 0 {
				at = s.cur[s.pos-1].e.String() // formatted only here, never per event
			}
			s.logf("recovered worker panic at event %s: %v\n%s", at, p, debug.Stack())
			more = true // reschedule: later quanta drain the rest of the stream
		}
		if used > 0 {
			s.ob.detect.End(start, used)
		}
		if !s.finished {
			s.entry.SetArenaBytes(s.det.ArenaBytes())
		}
	}()
	for used < n {
		if s.pos == len(s.cur) {
			s.recycle()
			select {
			case b, ok := <-s.queue:
				if !ok {
					// Record this quantum's detect span before finish
					// publishes the results: a summary must not reach
					// its client ahead of its own stage figures.
					if used > 0 {
						s.ob.detect.End(start, used)
					}
					start = 0 // the deferred End ignores a zero token
					s.finish()
					return used, false
				}
				s.cur = b
			default:
				return used, false
			}
		}
		s.pos++
		used++
		s.detect(&s.cur[s.pos-1])
	}
	return used, true
}

// recycle returns the consumed batch to the producer's free list, dropping
// its events so clocks and values are not retained past their batch.
func (s *session) recycle() {
	if s.cur == nil {
		return
	}
	s.ob.queue.Add(-int64(len(s.cur)))
	clear(s.cur)
	select {
	case s.free <- s.cur[:0]:
	default:
	}
	s.cur, s.pos = nil, 0
}

// detect runs one stamped event: the checkpoint cut ahead of it, lazy
// registration of its object, the event itself, then the compaction
// scheduled after it.
func (s *session) detect(it *item) {
	if s.panicked {
		return // post-panic drain: not analyzed, not counted
	}
	m := it.m
	if m != nil && m.ckpt != nil {
		s.maybeCheckpoint(m.ckpt)
	}
	s.events++
	if s.procErr != nil {
		return // drain
	}
	if m != nil && m.err != nil {
		s.procErr = m.err
		return
	}
	if k := s.d.cfg.injectWorkerPanic; k > 0 && s.events == k {
		panic(fmt.Sprintf("faultinject: injected worker panic at event %d", k))
	}
	e := &it.e
	if e.Kind == trace.ActionEvent && !s.registered[e.Act.Obj] {
		rep, _ := s.d.repFor(e.Act.Obj)
		if s.wrapRep != nil {
			rep = s.wrapRep(rep)
		}
		s.det.Register(e.Act.Obj, rep)
		s.registered[e.Act.Obj] = true
	}
	if err := s.det.Process(e); err != nil {
		s.procErr = fmt.Errorf("event %d (%s): %w", e.Seq, e.String(), err)
		return
	}
	if m != nil && m.compact != nil {
		s.det.Compact(m.compact)
	}
}

// finish harvests the detector once the queue is closed and drained and
// publishes the results through s.done. It has its own panic guard: a
// detector that dies flushing still yields its honest partial counts.
func (s *session) finish() {
	s.finished = true
	func() {
		defer func() {
			if p := recover(); p != nil {
				s.panicked = true
				s.degraded = true
				obsSessionPanics.Inc()
				s.logf("recovered panic collecting results: %v\n%s", p, debug.Stack())
			}
		}()
		if !s.panicked {
			s.det.FlushObs() // a detector retired by a panic may be mid-update
		}
		s.races = s.det.Stats().Races
	}()
	s.entry.SetArenaBytes(s.det.ArenaBytes())
	close(s.done)
}
