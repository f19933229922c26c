package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Ingest metrics (DESIGN.md §8) that are daemon-wide by nature: connection
// counters and bytes read. Everything attributable to one session — frames,
// events, races, queue depth and its high-water mark, backpressure stalls —
// lives in the per-session scope (sessObs) and rolls up into the global
// series on write.
var (
	obsConns     = obs.GetCounter("rd2d.conns")
	obsActive    = obs.GetGauge("rd2d.active_conns")
	obsBytes     = obs.GetCounter("rd2d.bytes")
	obsSessions  = obs.GetCounter("rd2d.sessions_done")
	obsDrainCuts = obs.GetCounter("rd2d.sessions_drained")
	obsBusy      = obs.GetCounter("rd2d.busy_rejects")
)

// daemonConfig is the resolved configuration of a daemon instance.
type daemonConfig struct {
	defaultRep   ap.Rep
	defaultSpec  string
	binds        map[trace.ObjID]ap.Rep
	bindSpecs    map[trace.ObjID]string
	engine       core.Engine
	maxRaces     int
	queueLen     int           // per-session hand-off queue, in events (rounded down to whole batches)
	idleTimeout  time.Duration // per-read deadline; 0 disables
	writeTimeout time.Duration // summary/ack write deadline; 0 disables
	resumeTTL    time.Duration // parked-session lifetime; 0 = DefaultResumeTTL
	resync       bool          // corruption resync: skip corrupt frames (degraded)
	compactOps   int           // compact at most once per this many events; 0 disables
	reporter     *core.ReportWriter
	reportSink   *reportSink // group-commit file writer under reporter; nil = reporter writes directly
	logger       *log.Logger
	obsRoot      *obs.Registry // registry the session scopes hang under; nil = obs.Default

	// Fault injection (ci.sh -chaos / -durable; inert when zero).
	injectRepPanic    int64 // panic on the N-th rep Touch per session
	injectWorkerPanic int   // panic on the N-th event the session's runnable detects
	injectCkptCrash   int   // SIGKILL with a half-written snapshot on the N-th checkpoint
	injectWalCrash    int   // SIGKILL with a half-written frame on the N-th WAL append

	// Durable sessions (DESIGN.md §15; off when stateDir is empty).
	stateDir   string
	ckptEvery  int               // snapshot cadence in events; 0 = DefaultCkptEvery
	fsyncMode  int               // fsyncOff | fsyncCkpt | fsyncAlways
	reportSeqs map[string]uint64 // per-session durable JSONL seq from a prior life

	// Fleet scheduling (DESIGN.md §14): every session runs on the shared
	// worker pool, under admission control and per-tenant quotas.
	fleetWorkers int                    // pool size; 0 = GOMAXPROCS
	maxSessions  int                    // resident session cap; 0 = unbounded
	globalRate   float64                // daemon-wide events/s budget; 0 = unlimited
	fleetQuantum int                    // DRR grant per tenant round; 0 = fleet.DefaultQuantum
	defaultQuota fleet.Quota            // quota for tenants not in tenantQuotas
	tenantQuotas map[string]fleet.Quota // per-tenant overrides
}

// DefaultWriteTimeout bounds summary and ack writes to dead clients.
const DefaultWriteTimeout = 5 * time.Second

// daemon accepts wire streams over TCP and runs detection sessions:
// incremental happens-before stamping on the read loop, detection on the
// shared worker pool, races streamed to the shared JSONL reporter as
// found. Plain streams are one session per connection; hello-framed
// streams open resumable sessions that survive connection loss (see
// session.go).
type daemon struct {
	cfg   daemonConfig
	ln    net.Listener
	sched *fleet.Scheduler

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	sessions map[string]*session // resumable sessions by client session id
	draining bool

	// tracked lists every live or lingering session by scope name for
	// /sessions and the stats table. Its own lock, not d.mu: newSession
	// runs under d.mu on the resume path, and monitoring reads must never
	// contend with the accept/route path.
	trackMu sync.Mutex
	tracked map[string]*session

	wg          sync.WaitGroup
	sessionSeq  atomic.Int64
	totalEvents atomic.Int64
	totalRaces  atomic.Int64
	failed      atomic.Int64
	degraded    atomic.Int64

	// phase drives /healthz readiness: starting → rehydrating → serving →
	// draining. In-process embedders get serving straight from newDaemon;
	// the rd2d binary interposes rehydrating while the state dir loads.
	phase atomic.Int32

	// writeErrs counts summary and busy-reject lines that failed to
	// reach their client (rd2d.summary_write_errors).
	writeErrs *obs.Counter

	// Daemon-wide injection countdowns for the durable chaos harness.
	walAppendN atomic.Int64
	snapshotN  atomic.Int64
}

// Daemon phases, reported by /healthz.
const (
	phaseStarting = int32(iota)
	phaseRehydrating
	phaseServing
	phaseDraining
)

func phaseName(p int32) string {
	switch p {
	case phaseRehydrating:
		return "rehydrating"
	case phaseServing:
		return "serving"
	case phaseDraining:
		return "draining"
	}
	return "starting"
}

// newDaemon starts listening on addr.
func newDaemon(addr string, cfg daemonConfig) (*daemon, error) {
	if cfg.queueLen <= 0 {
		cfg.queueLen = 1024
	}
	if cfg.compactOps < 0 {
		cfg.compactOps = 4096
	}
	if cfg.logger == nil {
		cfg.logger = log.New(io.Discard, "", 0)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cfg:      cfg,
		ln:       ln,
		conns:    map[net.Conn]struct{}{},
		sessions: map[string]*session{},
		tracked:  map[string]*session{},
	}
	d.sched = fleet.New(fleet.Config{
		Workers:            cfg.fleetWorkers,
		MaxSessions:        cfg.maxSessions,
		GlobalEventsPerSec: cfg.globalRate,
		Quantum:            cfg.fleetQuantum,
		Default:            cfg.defaultQuota,
		Tenants:            cfg.tenantQuotas,
		Obs:                d.obsRoot(),
		Logf:               cfg.logger.Printf,
	})
	d.writeErrs = d.obsRoot().Counter("rd2d.summary_write_errors")
	d.phase.Store(phaseServing)
	return d, nil
}

// obsRoot returns the registry session scopes hang under.
func (d *daemon) obsRoot() *obs.Registry {
	if d.cfg.obsRoot != nil {
		return d.cfg.obsRoot
	}
	return obs.Default
}

// track registers a session for /sessions listing (newest wins on a reused
// scope name, mirroring the resumable-session table).
func (d *daemon) track(s *session) {
	d.trackMu.Lock()
	d.tracked[s.name] = s
	d.trackMu.Unlock()
}

// untrack forgets a lingered session and detaches its metric scope, unless
// the name has been taken over by a newer session.
func (d *daemon) untrack(s *session) {
	d.trackMu.Lock()
	if d.tracked[s.name] == s {
		delete(d.tracked, s.name)
		d.obsRoot().DropScope("session", s.name)
	}
	d.trackMu.Unlock()
}

// Addr returns the bound listen address.
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// Serve runs the accept loop until Shutdown closes the listener. It
// returns after every in-flight session has drained.
func (d *daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.finalizeParked()
			d.wg.Wait()
			// Every session has finalized; stop the fleet workers (Stop
			// drains any quanta still queued, so it must come after the
			// finalize sweep, never before).
			d.sched.Stop()
			if d.isDraining() {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.draining {
			d.mu.Unlock()
			conn.Close()
			continue
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handle(conn)
		}()
	}
}

// Shutdown begins a graceful drain: stop accepting, interrupt blocked
// reads so sessions stop ingesting, finalize parked sessions, and wait for
// every session to detect what it ingested and report. Safe to call more
// than once.
func (d *daemon) Shutdown() {
	d.phase.Store(phaseDraining)
	d.mu.Lock()
	already := d.draining
	d.draining = true
	for conn := range d.conns {
		// Wake any read blocked on the socket; the session treats the
		// timeout as end-of-input and drains what it has.
		conn.SetReadDeadline(time.Now())
	}
	d.mu.Unlock()
	if !already {
		d.ln.Close()
	}
	d.finalizeParked()
	d.wg.Wait()
}

// finalizeParked finalizes every parked session during a drain, so their
// partial reports land before the daemon exits. Attached sessions are
// finalized by their own read loops (the drain check in park prevents any
// new parking once draining is set, and park's d.mu transition makes this
// sweep exhaustive).
func (d *daemon) finalizeParked() {
	d.mu.Lock()
	var parked []*session
	for _, s := range d.sessions {
		s.mu.Lock()
		if s.state == stateParked {
			parked = append(parked, s)
		}
		s.mu.Unlock()
	}
	d.mu.Unlock()
	for _, s := range parked {
		obsDrainCuts.Inc()
		sum := s.finalize()
		s.logf("drain: finalized parked session: %d events, %d races, clean=%v",
			sum.Events, sum.Races, sum.Clean)
	}
}

func (d *daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// dropSession forgets a completed resumable session (TTL after finalize),
// unless the id has already been taken over by a newer session.
func (d *daemon) dropSession(sid string, s *session) {
	d.mu.Lock()
	if d.sessions[sid] == s {
		delete(d.sessions, sid)
	}
	d.mu.Unlock()
}

// repFor resolves the access point representation and spec name for an
// object (static per-daemon: -bind overrides, else the default spec).
func (d *daemon) repFor(obj trace.ObjID) (ap.Rep, string) {
	if rep, ok := d.cfg.binds[obj]; ok {
		return rep, d.cfg.bindSpecs[obj]
	}
	return d.cfg.defaultRep, d.cfg.defaultSpec
}

// countingConn counts bytes read and applies the idle read deadline.
type countingConn struct {
	conn  net.Conn
	idle  time.Duration
	bytes int64
	d     *daemon
}

func (c *countingConn) Read(p []byte) (int, error) {
	// Serialized against Shutdown's deadline poke so a drain can never be
	// overwritten by a refreshed idle deadline.
	c.d.mu.Lock()
	if c.d.draining {
		c.conn.SetReadDeadline(time.Now())
	} else if c.idle > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	c.d.mu.Unlock()
	n, err := c.conn.Read(p)
	c.bytes += int64(n)
	return n, err
}

// writeJSON writes one JSON line to conn under the write timeout.
func (d *daemon) writeJSON(conn net.Conn, v any) error {
	wt := d.cfg.writeTimeout
	if wt <= 0 {
		wt = DefaultWriteTimeout
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(wt)); err != nil {
		return err
	}
	_, err = conn.Write(append(b, '\n'))
	return err
}

// deliver writes a summary or busy-reject line. The client may already be
// gone (abort, drain); a resumable client gets the summary again on
// reconnect. A failed write is still logged — on the session when there
// is one — and counted, since that client never saw its verdict.
func (d *daemon) deliver(conn net.Conn, s *session, v any) {
	err := d.writeJSON(conn, v)
	if err == nil {
		return
	}
	d.writeErrs.Inc()
	if s != nil {
		s.logf("summary write: %v", err)
	} else {
		d.cfg.logger.Printf("conn %s: summary write: %v", conn.RemoteAddr(), err)
	}
}

// handle runs one connection: decode the stream header, route to a plain
// (connection-bound) or resumable session, feed the session as its
// producer, and deliver the summary or park the session when the
// connection dies early.
func (d *daemon) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	obsConns.Inc()
	obsActive.Add(1)
	defer obsActive.Add(-1)

	cr := &countingConn{conn: conn, idle: d.cfg.idleTimeout, d: d}
	defer func() { obsBytes.Add(uint64(cr.bytes)) }()

	dec, err := wire.NewDecoder(cr)
	if err != nil {
		d.cfg.logger.Printf("conn %s: handshake failed: %v", conn.RemoteAddr(), err)
		d.failed.Add(1)
		obsSessions.Inc()
		d.deliver(conn, nil, wire.Summary{Error: err.Error()})
		return
	}
	dec.SetResync(d.cfg.resync)
	sid, err := dec.ReadHello()
	if err != nil {
		d.cfg.logger.Printf("conn %s: hello failed: %v", conn.RemoteAddr(), err)
		d.failed.Add(1)
		obsSessions.Inc()
		d.deliver(conn, nil, wire.Summary{Error: err.Error()})
		return
	}

	tenant := dec.Tenant()
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}

	if sid == "" {
		// Plain stream: the session lives and dies with this connection.
		release, aerr := d.sched.Admit(tenant)
		if aerr != nil {
			d.rejectBusy(conn, "", tenant, aerr)
			return
		}
		s := d.newSession("", tenant, nil)
		s.admit = release
		s.logf("connected (%s, tenant %q)", conn.RemoteAddr(), tenant)
		s.setConn(conn)
		dec.SetObs(s.scope)
		th := d.sched.Throttle(tenant)
		s.mu.Lock()
		s.dec = dec
		s.th = th
		s.mu.Unlock()
		err := d.readLoop(s, dec, th)
		d.classifyEnd(s, err)
		sum := s.finalize()
		d.deliver(conn, s, sum)
		s.logf("done: %d events, %d races, clean=%v degraded=%v err=%q",
			sum.Events, sum.Races, sum.Clean, sum.Degraded, sum.Error)
		return
	}

	// Resumable stream: route to a (possibly existing) session.
	s, resumed, err := d.routeSession(sid, tenant, dec)
	if err != nil {
		if isBusy(err) {
			d.rejectBusy(conn, sid, tenant, err)
			return
		}
		d.cfg.logger.Printf("conn %s: %v", conn.RemoteAddr(), err)
		d.deliver(conn, nil, wire.Summary{SessionID: sid, Error: err.Error()})
		return
	}
	if s.isCompleted() {
		// Late reconnect to a finished session: re-deliver its summary.
		sum := s.waitSummary()
		s.logf("summary re-delivered to %s", conn.RemoteAddr())
		d.deliver(conn, s, sum)
		return
	}
	if resumed {
		s.logf("resumed by %s (replay expected from chunk %d)", conn.RemoteAddr(), nextChunk(dec))
	} else {
		s.logf("connected (%s)", conn.RemoteAddr())
	}
	s.setConn(conn)
	// Ack accepted chunks on the return path so the client can trim its
	// resend buffer. Written from this (the only) writer goroutine.
	dec.OnChunk = func(acked uint64) {
		// A lost ack is harmless: the client resends the chunk, which
		// the decoder deduplicates, and a later ack covers it.
		_ = d.writeJSON(conn, map[string]uint64{"ack": acked})
	}

	th := d.sched.Throttle(tenant)
	s.mu.Lock()
	s.th = th
	s.mu.Unlock()
	err = d.readLoop(s, dec, th)
	if clean, _ := endOfStream(err, dec); clean {
		s.clean.Store(true)
		sum := s.finalize()
		d.deliver(conn, s, sum)
		s.logf("done: %d events, %d races, clean=%v degraded=%v resumes=%d err=%q",
			sum.Events, sum.Races, sum.Clean, sum.Degraded, sum.Resumes, sum.Error)
		return
	}
	if !d.isDraining() && connLost(err) {
		// The connection died mid-stream: park and wait for a resume.
		s.setConn(nil)
		if s.park() {
			return
		}
	}
	d.classifyEnd(s, err)
	sum := s.finalize()
	d.deliver(conn, s, sum)
	s.logf("done: %d events, %d races, clean=%v degraded=%v resumes=%d err=%q",
		sum.Events, sum.Races, sum.Clean, sum.Degraded, sum.Resumes, sum.Error)
}

// nextChunk reads the decoder's chunk cursor for logging.
func nextChunk(dec *wire.Decoder) uint64 {
	if n, ok := dec.AckedChunk(); ok {
		return n + 1
	}
	return 0
}

// routeSession finds or creates the resumable session for sid. A parked
// session is re-attached: the new connection's decoder adopts the stream
// state (interning table, chunk cursor) of the dead connection's decoder,
// so replayed chunks deduplicate and fresh chunks decode correctly. If the
// id is still attached to a live connection, that connection is poked and
// given a moment to park (covers half-dead TCP peers the client already
// gave up on); a second live claim loses.
func (d *daemon) routeSession(sid, tenant string, dec *wire.Decoder) (s *session, resumed bool, err error) {
	d.mu.Lock()
	s, ok := d.sessions[sid]
	if !ok {
		if d.draining {
			d.mu.Unlock()
			return nil, false, fmt.Errorf("draining: session %q rejected", sid)
		}
		// Admission happens under d.mu so two racing hellos for a new sid
		// can never both reserve a slot for it. Resumes below bypass it:
		// a parked session is already resident, and shedding a reconnect
		// would strand detection state the daemon still holds.
		release, aerr := d.sched.Admit(tenant)
		if aerr != nil {
			d.mu.Unlock()
			return nil, false, aerr
		}
		s = d.newSession(sid, tenant, nil)
		s.admit = release
		d.sessions[sid] = s
		d.mu.Unlock()
		dec.SetObs(s.scope)
		s.mu.Lock()
		s.dec = dec
		if s.dur != nil {
			dec.OnFrameAccepted = s.walHook(dec)
		}
		s.mu.Unlock()
		return s, false, nil
	}
	d.mu.Unlock()
	if s.tenant != tenant {
		// The hello's tenant rides every replayed hello, so a mismatch is
		// a client bug or a sid collision across tenants — never resume
		// one tenant's session with another's credentials.
		return nil, false, fmt.Errorf("session %q belongs to tenant %q, hello says %q",
			sid, s.tenant, tenant)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		switch s.state {
		case stateParked:
			if s.ttl != nil && !s.ttl.Stop() {
				// The TTL already fired; expiry is finalizing concurrently.
				// Treat as completed: the caller re-delivers the summary.
				s.mu.Unlock()
				s.waitSummary()
				return s, true, nil
			}
			s.ttl = nil
			dec.AdoptState(s.dec)
			dec.SetObs(s.scope)
			s.dec = dec
			if s.dur != nil {
				dec.OnFrameAccepted = s.walHook(dec)
			}
			s.state = stateAttached
			s.resumes++
			s.mu.Unlock()
			obsResumes.Inc()
			return s, true, nil
		case stateCompleted:
			s.mu.Unlock()
			return s, true, nil
		default: // stateAttached
			old := s.conn
			s.mu.Unlock()
			if time.Now().After(deadline) {
				return nil, false, fmt.Errorf("session %q is attached to another connection", sid)
			}
			if old != nil {
				old.SetReadDeadline(time.Now()) // force the stale reader out
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// isBusy reports whether err is a fleet admission reject.
func isBusy(err error) bool {
	var busy *fleet.BusyError
	return errors.As(err, &busy)
}

// busyDrainTimeout bounds how long a rejected connection is drained so
// the producer can read the busy line before the socket closes.
const busyDrainTimeout = 5 * time.Second

// rejectBusy turns an admission reject into the wire-level busy
// summary: write the line, half-close the write side so it is flushed
// ahead of any reset, then drain whatever the producer already has in
// flight (closing with unread inbound data would RST the connection and
// race the reject line off the wire). Clients surface the line as
// wire.ErrBusy and retry with backoff (rd2 -send exits 6 when retries
// run out).
func (d *daemon) rejectBusy(conn net.Conn, sid, tenant string, cause error) {
	obsBusy.Inc()
	d.failed.Add(1)
	obsSessions.Inc()
	d.cfg.logger.Printf("conn %s: busy reject (tenant %q): %v", conn.RemoteAddr(), tenant, cause)
	d.deliver(conn, nil, wire.Summary{SessionID: sid, Busy: true, Error: cause.Error()})
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(busyDrainTimeout))
	io.Copy(io.Discard, conn)
}

// endOfStream reports whether err is a clean end (end-of-stream frame).
func endOfStream(err error, dec *wire.Decoder) (clean, eof bool) {
	if errors.Is(err, io.EOF) {
		return dec.Clean(), true
	}
	return false, false
}

// connLost reports whether err looks like a lost connection (resumable)
// rather than stream corruption (not worth resuming: the client would
// replay the same bytes).
func connLost(err error) bool {
	switch {
	case errors.Is(err, io.EOF):
		return true // unclean EOF at a frame boundary: peer went away
	case errors.Is(err, wire.ErrTruncated):
		return true // stream cut mid-frame (includes read timeouts mid-frame)
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		// The peer reset the connection: a client that closed right after
		// writing answers the daemon's next ack with an RST.
		return true
	case errors.Is(err, net.ErrClosed):
		return true // the socket was closed under the read loop
	}
	return isTimeout(err)
}

// classifyEnd records how the stream ended on the session: a clean end
// frame sets Clean, a drain cut is logged but not an error, anything else
// becomes the summary error.
func (d *daemon) classifyEnd(s *session, err error) {
	switch {
	case err == nil:
		return
	case errors.Is(err, io.EOF):
		s.clean.Store(s.cleanOf())
	case isTimeout(err) && d.isDraining():
		obsDrainCuts.Inc()
		s.logf("drain: stopped reading mid-stream")
	default:
		s.setReadErr(err.Error())
		s.logf("read: %v", err)
	}
}

// cleanOf reads the current decoder's clean flag under mu.
func (s *session) cleanOf() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec != nil && s.dec.Clean()
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
