package main

// This file implements fault-tolerant detection sessions (DESIGN.md §9):
// a session is decoupled from its TCP connection. Plain streams still live
// and die with their connection, but a stream that opens with a hello
// frame (a client-chosen session id) becomes resumable — if its connection
// drops mid-stream the session is parked with its full detection state
// (happens-before engine, detector, interning table, chunk cursor) and a
// reconnecting client resumes it by replaying unacknowledged chunks, which
// the decoder deduplicates by sequence number. Both halves of the session
// runtime (runnable.go) are supervised: a panic in the stamping producer or
// in the detecting runnable degrades the session to a partial-but-honest
// report instead of killing the daemon.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Session lifecycle metrics: the active-session gauge moves by exactly one
// per session regardless of how it ends (clean close, idle timeout, a
// recovered panic, TTL expiry — see obs.Gauge.Enter), and the counters
// classify ends.
var (
	obsActiveSessions = obs.GetGauge("rd2d.active_sessions")
	obsSessionPanics  = obs.GetCounter("rd2d.session_panics")
	obsResumes        = obs.GetCounter("rd2d.sessions_resumed")
	obsParks          = obs.GetCounter("rd2d.sessions_parked")
	obsExpired        = obs.GetCounter("rd2d.sessions_expired")
	obsDegraded       = obs.GetCounter("rd2d.sessions_degraded")
)

// sessObs bundles the per-session instruments, resolved from the session's
// scope so every write rolls up into the daemon-global series: ingest
// counters (frames, events, races, blocked batch hand-offs), the gauge of
// events handed off but not yet detected, whose peak is the session's
// high-water backlog, and the six stage spans in stream order.
type sessObs struct {
	frames   *obs.Counter
	events   *obs.Counter
	races    *obs.Counter
	stalls   *obs.Counter
	queue    *obs.Gauge
	decode   *obs.Span
	skel     *obs.Span
	stamp    *obs.Span
	dispatch *obs.Span
	detect   *obs.Span
	report   *obs.Span
}

func newSessObs(scope *obs.Registry) *sessObs {
	return &sessObs{
		frames:   scope.Counter("rd2d.frames"),
		events:   scope.Counter("rd2d.events"),
		races:    scope.Counter("rd2d.races"),
		stalls:   scope.Counter("rd2d.backpressure_stalls"),
		queue:    scope.Gauge("rd2d.queue_events"),
		decode:   scope.Span(obs.StageDecode),
		skel:     scope.Span(obs.StageSkeleton),
		stamp:    scope.Span(obs.StageStamp),
		dispatch: scope.Span(obs.StageDispatch),
		detect:   scope.Span(obs.StageDetect),
		report:   scope.Span(obs.StageReport),
	}
}

// session states (guarded by session.mu).
const (
	stateAttached  = iota // a connection's read loop is the producer
	stateParked           // no connection; detection state held under TTL
	stateCompleted        // summary finalized (stored for re-delivery)
)

// DefaultResumeTTL is how long a parked session waits for its client.
const DefaultResumeTTL = 30 * time.Second

// session is one detection run: the stamping producer, the bounded batch
// queue, and the detecting runnable (runnable.go), plus the state needed
// to park and resume across connections.
type session struct {
	d      *daemon
	id     int64  // daemon-local ordinal (logging)
	sid    string // client session id; "" = bound to one connection
	name   string // scope id: sid, or "conn-<id>" for plain sessions
	tenant string // quota/scheduling tenant (fleet.DefaultTenant when unset)

	// entry is the session's run-queue entry on the shared worker pool (the
	// session is its fleet.Runnable). admit releases the session's
	// admission reservation; finalize calls it (idempotent).
	entry *fleet.Entry
	admit func()

	// Durable-session state (nil without -statedir or for plain streams):
	// the WAL + snapshot machinery and, on a rehydrated session, the
	// checkpointed state newSession imports before any event.
	dur     *durSession
	restore *sessionRestore

	scope *obs.Registry // per-session metric scope (rolls up to the root)
	ob    *sessObs
	sr    *core.SessionReporter // stamps session+seq on JSONL records (nil without -report)

	// queue carries stamped batches from producer to runnable (closed by
	// finalize); its capacity is -queue events in whole batches, the
	// backlog before the producer blocks. free returns consumed batch
	// buffers to the producer, sized for every batch that can exist at
	// once: the queued ones, the one being filled, the one being detected.
	queue chan []item
	free  chan []item
	done  chan struct{} // runnable finished (detection results final)
	final chan struct{} // summary assembled (read s.summary after this)

	// Producer-owned stamping state, used by whichever goroutine feeds the
	// session: a connection's read loop, or WAL replay during rehydration.
	// It moves between read loops under mu, exactly as dec does on resume,
	// and finalize reads it only once no producer runs.
	en            *hb.Engine
	pending       []item    // batch under construction
	sinceCompact  int       // events since the last scheduled compaction
	stampErr      error     // first stamping failure; later events pass unstamped
	stampPanicked bool      // a stamping panic was recovered; later events are dropped
	ckpt          *boundary // due checkpoint cut awaiting the next event

	// Runnable-owned detection state; touched outside RunQuantum only after
	// <-done (the channel close is the happens-before edge).
	det        *core.Detector
	registered map[trace.ObjID]bool
	wrapRep    func(ap.Rep) ap.Rep // fault-injection hook (nil normally)
	cur        []item              // batch being detected
	pos        int                 // cursor into cur, kept across quanta
	events     int
	races      int
	degraded   bool
	panicked   bool // detection panicked: later events are drained unanalyzed
	finished   bool
	procErr    error

	// Reader-published stream facts (set before the queue closes).
	clean   atomic.Bool
	readErr atomic.Value // string

	// Live ingest figures for /sessions, copied from the decoder once per
	// frame by publishLive: the decoder itself is confined to the
	// goroutine reading it.
	liveEvents   atomic.Int64
	liveAcked    atomic.Uint64 // last acked chunk seq + 1; 0 = none yet
	liveDegraded atomic.Bool

	mu      sync.Mutex
	state   int
	conn    pokeable        // current connection (attached), for liveness pokes
	dec     *wire.Decoder   // decoder holding the stream's cross-conn state
	th      *fleet.Throttle // current connection's ingest throttle
	ttl     *time.Timer
	resumes int

	finishOnce   sync.Once
	summary      wire.Summary // immutable once final is closed
	releaseGauge func()
}

// pokeable is the slice of net.Conn the session needs from its connection.
type pokeable interface{ SetReadDeadline(time.Time) error }

// newSession creates a session and registers it on the shared worker pool.
// Every session gets its own metric scope ("session" = its id) under the
// daemon's registry root: the engine, detector, decoder, and the session's
// own ingest instruments all record into it, and every write rolls up into
// the global series, so /sessions and /metrics?session=ID attribute the
// fleet numbers per tenant at no extra bookkeeping.
func (d *daemon) newSession(sid, tenant string, restore *sessionRestore) *session {
	id := d.sessionSeq.Add(1)
	name := sid
	if name == "" {
		name = fmt.Sprintf("conn-%d", id)
	}
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}
	scope := d.obsRoot().Scope("session", name)
	batches := max(1, d.cfg.queueLen/batchLen)
	s := &session{
		d:          d,
		id:         id,
		sid:        sid,
		name:       name,
		tenant:     tenant,
		restore:    restore,
		scope:      scope,
		ob:         newSessObs(scope),
		queue:      make(chan []item, batches),
		free:       make(chan []item, batches+2),
		done:       make(chan struct{}),
		final:      make(chan struct{}),
		registered: map[trace.ObjID]bool{},
		en:         hb.NewObs(scope),
	}
	if restore != nil {
		s.dur = restore.dur
	} else if d.cfg.stateDir != "" && sid != "" {
		ds, err := d.openDurSession(sid, tenant)
		if err != nil {
			// Durability is best-effort infrastructure, detection is the
			// job: run the session ephemeral and say so loudly.
			d.cfg.logger.Printf("session %q: durable state unavailable, running ephemeral: %v", sid, err)
		} else {
			s.dur = ds
		}
	}
	ccfg := core.Config{Engine: d.cfg.engine, MaxRaces: d.cfg.maxRaces, Obs: scope}
	if d.cfg.reporter != nil {
		s.sr = d.cfg.reporter.Session(name)
		if restore != nil {
			// Replayed events regenerate already-durable JSONL records;
			// the suppression window swallows them, keeping numbering
			// contiguous across the restart.
			s.sr.Restore(restore.meta.ReporterSeq, restore.durableSeq)
		}
		ccfg.OnRace = func(r core.Race) {
			_, spec := d.repFor(r.Obj)
			start := s.ob.report.Start()
			s.sr.Write(r, spec)
			s.ob.report.End(start, 1)
		}
	}
	if d.cfg.injectRepPanic > 0 {
		s.wrapRep = faultinject.WrapAllReps(d.cfg.injectRepPanic)
	}
	s.det = core.New(ccfg)
	s.applyRestore()
	s.entry = d.sched.Register(tenant, s)
	s.releaseGauge = obsActiveSessions.Enter()
	d.track(s)
	return s
}

// logf logs one line for this session through the daemon logger.
func (s *session) logf(format string, args ...any) {
	who := fmt.Sprintf("session %d", s.id)
	if s.sid != "" {
		who = fmt.Sprintf("session %d (id %q)", s.id, s.sid)
	}
	s.d.cfg.logger.Printf("%s: %s", who, fmt.Sprintf(format, args...))
}

// publishLive copies dec's live figures for /sessions. Only the goroutine
// that owns dec calls it.
func (s *session) publishLive(dec *wire.Decoder) {
	s.liveEvents.Store(int64(dec.Events()))
	if n, ok := dec.AckedChunk(); ok {
		s.liveAcked.Store(n + 1)
	}
	s.liveDegraded.Store(dec.Degraded())
}

// setConn records the attached connection (for liveness pokes) under mu.
func (s *session) setConn(c pokeable) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

// setReadErr records the stream error that ends the session, if no
// detection error claims the summary first.
func (s *session) setReadErr(msg string) { s.readErr.Store(msg) }

// park detaches the session from its dead connection and starts the
// resume TTL. It returns false when the daemon is draining — the caller
// finalizes instead, so a drain never leaves work behind. The transition
// is atomic with the drain check (d.mu) so Shutdown's parked-session sweep
// can never miss it.
func (s *session) park() bool {
	s.d.mu.Lock()
	if s.d.draining {
		s.d.mu.Unlock()
		return false
	}
	s.mu.Lock()
	if s.state == stateCompleted {
		s.mu.Unlock()
		s.d.mu.Unlock()
		return false
	}
	s.state = stateParked
	s.conn = nil
	ttl := s.d.cfg.resumeTTL
	if ttl <= 0 {
		ttl = DefaultResumeTTL
	}
	s.ttl = time.AfterFunc(ttl, s.expire)
	s.mu.Unlock()
	s.d.mu.Unlock()
	obsParks.Inc()
	s.logf("parked (%d events so far, resume ttl %v)", s.liveEvents.Load(), ttl)
	return true
}

// expire fires when a parked session's TTL runs out with no reconnect.
func (s *session) expire() {
	s.mu.Lock()
	if s.state != stateParked {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	obsExpired.Inc()
	sum := s.finalize()
	s.logf("resume ttl expired: %d events, %d races, clean=%v degraded=%v",
		sum.Events, sum.Races, sum.Clean, sum.Degraded)
}

// finalize ends the session exactly once: close the queue, wait for the
// runnable, assemble the summary from detection results plus stream facts
// (resync skips, resumes), do the daemon bookkeeping, and release the
// active-session gauge. Every later (or concurrent) call waits and returns
// the same summary. Callers must guarantee no producer is feeding the
// queue — clean end, parked, or drain-cut states all do.
func (s *session) finalize() wire.Summary {
	s.finishOnce.Do(func() {
		s.mu.Lock()
		s.state = stateCompleted
		if s.ttl != nil {
			s.ttl.Stop()
			s.ttl = nil
		}
		s.mu.Unlock()
		close(s.queue)
		s.entry.Wake() // an idle runnable must notice the close
		<-s.done
		// Report barrier: the session's records reach the file before its
		// summary can reach the client. A failed report stays sticky on the
		// sink and fails the daemon at exit; the summary still goes out.
		_ = s.d.cfg.reportSink.Flush()
		s.entry.Close()
		if s.admit != nil {
			s.admit()
		}
		if s.dur != nil {
			// The session is final: its summary is in memory for
			// re-delivery and its durability obligation is over.
			s.dur.destroy()
		}

		s.mu.Lock()
		sum := wire.Summary{
			Events:    s.events,
			Races:     s.races,
			Clean:     s.clean.Load(),
			Resumes:   s.resumes,
			SessionID: s.sid,
		}
		// Each supervised half that panicked counts as a failed unit.
		if s.panicked {
			sum.ShardPanics++
		}
		if s.stampPanicked {
			sum.ShardPanics++
		}
		if s.dec != nil {
			sum.SkippedFrames = s.dec.SkippedFrames()
			sum.SkippedBytes = s.dec.SkippedBytes()
		}
		sum.Degraded = s.degraded || s.stampPanicked || sum.SkippedFrames > 0 || sum.SkippedBytes > 0
		if s.procErr != nil {
			sum.Error = s.procErr.Error()
		} else if m, ok := s.readErr.Load().(string); ok && m != "" {
			sum.Error = m
		}
		if s.sr != nil {
			sum.Seq = s.sr.Seq()
		}
		s.summary = sum
		s.release()
		s.mu.Unlock()

		obsSessions.Inc()
		s.ob.queue.Set(0) // queue drained; clear its contribution to the global sum
		s.ob.events.Add(uint64(sum.Events))
		s.ob.races.Add(uint64(sum.Races))
		s.d.totalEvents.Add(int64(sum.Events))
		s.d.totalRaces.Add(int64(sum.Races))
		if sum.Error != "" {
			s.d.failed.Add(1)
		}
		if sum.Degraded {
			obsDegraded.Inc()
			s.d.degraded.Add(1)
			// Mark the shared JSONL report so its race records for this
			// session are self-describingly incomplete.
			if s.d.cfg.reporter != nil {
				s.d.cfg.reporter.WriteNote(map[string]any{
					"note":           "degraded",
					"session":        s.name,
					"seq":            sum.Seq,
					"session_id":     s.sid,
					"events":         sum.Events,
					"races":          sum.Races,
					"skipped_frames": sum.SkippedFrames,
					"skipped_bytes":  sum.SkippedBytes,
					"shard_panics":   sum.ShardPanics,
				})
				_ = s.d.cfg.reportSink.Flush() // as above: the note lands before the summary
			}
		}
		s.releaseGauge()
		// Keep the completed session visible (summary re-delivery for
		// resumable streams, a terminal /sessions row for operators), then
		// forget it and detach its metric scope. Writes from stragglers
		// keep rolling up into the global series after the drop.
		linger := s.d.cfg.resumeTTL
		if linger <= 0 {
			linger = DefaultResumeTTL
		}
		time.AfterFunc(linger, func() {
			if s.sid != "" {
				s.d.dropSession(s.sid, s)
			}
			s.d.untrack(s)
		})
		close(s.final)
	})
	<-s.final
	return s.summary
}

// release drops the detection state of a finalized session. While it
// lingers for the resume TTL, a finished session serves only its summary,
// metric scope and atomics (/sessions, summary re-delivery), so the
// detector, engine, decoder, batch buffers and any restore image go now
// rather than stay pinned until it is forgotten. The caller holds mu; the
// runnable is done and no producer runs, so nothing else touches them.
func (s *session) release() {
	s.det, s.en, s.registered = nil, nil, nil
	s.cur, s.pending, s.free = nil, nil, nil
	s.dec, s.conn, s.ckpt = nil, nil, nil
	s.restore, s.dur = nil, nil
}

// waitSummary blocks until the session is finalized and returns its
// summary (the re-delivery path for completed sessions).
func (s *session) waitSummary() wire.Summary {
	<-s.final
	return s.summary
}

// isCompleted reports whether the session has been finalized.
func (s *session) isCompleted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateCompleted
}
