// Package fleet is the multi-tenant session scheduler that runs every
// rd2d session. It multiplexes many logical detection sessions over a
// fixed pool of workers and enforces three policies at the daemon's
// front door:
//
//   - Admission control: a bounded session table plus a global events/s
//     budget. When either is exhausted, Admit returns a *BusyError and
//     the daemon turns it into an explicit wire-level busy reject
//     (retryable from the client's point of view) instead of letting
//     load degrade every resident session.
//
//   - Per-tenant quotas: token-bucket rate limits on ingested events/s
//     and caps on resident sessions and detector arena bytes. Rate
//     limits are enforced by Throttle at the ingest loop, so TCP
//     backpressure lands only on the offending tenant's producers.
//
//   - Fair scheduling: sessions register as run-queue entries holding
//     quanta of decoded work; a deficit-round-robin dispatcher over
//     per-tenant queues feeds the worker pool, so one hot tenant with
//     many sessions cannot starve a background tenant — each tenant in
//     the ring earns one quantum per round, regardless of how many
//     sessions it has queued.
//
// The scheduler owns no goroutines beyond its workers: total daemon
// goroutine count is O(workers + connections), not O(sessions).
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// DefaultTenant is the tenant id charged for streams whose hello
	// carries no tenant field (or no hello at all).
	DefaultTenant = "default"

	// DefaultQuantum is the per-round DRR grant, in events, when
	// Config.Quantum is zero.
	DefaultQuantum = 512

	// deficitCapRounds bounds how many unused rounds of quantum a tenant
	// may bank, so an idle-ish tenant cannot save up an arbitrarily large
	// grant and then monopolize a worker for one long burst.
	deficitCapRounds = 8
)

// Quota limits one tenant. Zero values mean unlimited.
type Quota struct {
	// EventsPerSec bounds the tenant's aggregate ingest rate across all
	// its connections, enforced by Throttle with token buckets.
	EventsPerSec float64
	// Burst is the bucket depth in events; defaults to one second of
	// EventsPerSec when zero.
	Burst int
	// MaxSessions caps the tenant's resident (admitted, unreleased)
	// sessions.
	MaxSessions int
	// MaxArenaBytes caps the sum of detector arena footprints across the
	// tenant's registered sessions. It is enforced at admission: new
	// sessions are rejected while the tenant is over the cap (resident
	// sessions keep running — the arena bound is monotone, so shedding
	// them would not reclaim memory anyway).
	MaxArenaBytes int64
}

// Config configures a Scheduler.
type Config struct {
	// Workers is the size of the detection worker pool; zero means
	// GOMAXPROCS.
	Workers int
	// MaxSessions bounds the global resident session table. Zero means
	// unbounded.
	MaxSessions int
	// GlobalEventsPerSec is a daemon-wide ingest budget. Unlike tenant
	// buckets it never blocks ingest — resident sessions overdraft it —
	// but while it is overdrawn, Admit rejects new sessions.
	GlobalEventsPerSec float64
	// GlobalBurst is the global bucket depth; defaults to one second of
	// GlobalEventsPerSec when zero.
	GlobalBurst int
	// Quantum is the DRR grant per tenant round, in events.
	Quantum int
	// Default is the quota for tenants absent from Tenants.
	Default Quota
	// Tenants holds per-tenant quota overrides.
	Tenants map[string]Quota
	// Obs is the registry fleet.* instruments and per-tenant scopes hang
	// off; nil means a private registry (instruments still exist, just
	// unexported).
	Obs *obs.Registry
	// Logf, when non-nil, receives scheduler diagnostics (worker panics).
	Logf func(format string, args ...any)
}

// BusyError is the admission reject: the daemon is at capacity for this
// tenant (or globally). It is retryable — the condition clears as
// resident sessions finish or the event budget refills.
type BusyError struct {
	Tenant string
	Reason string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("fleet: busy: %s (tenant %q)", e.Reason, e.Tenant)
}

// Runnable is one session's work loop as the scheduler sees it.
// RunQuantum processes up to n events and reports how many it consumed
// and whether more work was immediately available when it stopped. It
// must not block: return (used, false) when the input queue runs dry —
// the producer re-Wakes the entry after every enqueue, so no work is
// lost. Entries hop between workers across quanta; the scheduler's
// mutex hand-off orders each quantum after the previous one, so
// Runnables may keep goroutine-confined state without their own locks.
type Runnable interface {
	RunQuantum(n int) (used int, more bool)
}

type entryState int32

const (
	entryIdle entryState = iota
	entryQueued
	entryRunning
	entryRunningWake // running, with a wake pending: requeue on finish
	entryClosed
)

// Entry is a registered session in the run queue.
type Entry struct {
	s *Scheduler
	t *tenantState
	r Runnable

	state entryState // guarded by s.mu

	// wakePending short-circuits Wake without taking the scheduler lock:
	// true whenever the entry is queued or has a wake recorded, i.e. the
	// next (or current) quantum is already guaranteed to observe any work
	// enqueued before the flag was read.
	wakePending atomic.Bool

	arenaBytes atomic.Int64
}

type tenantState struct {
	name  string
	quota Quota

	// Guarded by Scheduler.mu:
	deficit  int
	queue    []*Entry
	inRing   bool
	sessions int

	arena atomic.Int64 // sum of registered entries' arena bytes

	bmu    sync.Mutex
	bucket *bucket // per-tenant rate bucket; nil when unlimited

	ob tenantObs
}

// Scheduler is the fleet dispatcher. See the package comment for the
// policies it enforces.
type Scheduler struct {
	cfg     Config
	quantum int

	// now and sleep are indirected for deterministic tests.
	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	cond     *sync.Cond // worker wakeup: ring non-empty or stopped
	tenants  map[string]*tenantState
	ring     []*tenantState // tenants with queued entries, round-robin order
	sessions int            // resident (admitted, unreleased) sessions
	stopped  bool
	wg       sync.WaitGroup

	gmu    sync.Mutex
	global *bucket // global overdraft budget; nil when unlimited

	reg *obs.Registry
	ob  fleetObs
}

type fleetObs struct {
	sessions *obs.Gauge   // fleet.sessions: resident sessions
	runnable *obs.Gauge   // fleet.runnable: entries queued for a worker
	running  *obs.Gauge   // fleet.running: entries on a worker now
	rejects  *obs.Counter // fleet.rejects: admission rejects
	quanta   *obs.Counter // fleet.quanta: run quanta executed
	panics   *obs.Counter // fleet.panics: Runnable panics absorbed
	throttle *obs.Timer   // fleet.throttle_wait_ns: ingest stall time
	sched    *obs.Span    // stage.schedule: quantum latency / events
}

type tenantObs struct {
	sessions *obs.Gauge   // tenant.sessions
	events   *obs.Counter // tenant.events: ingested (throttled) events
	rejects  *obs.Counter // tenant.rejects
	throttle *obs.Timer   // tenant.throttle_wait_ns
	arena    *obs.Gauge   // tenant.arena_bytes
}

// New builds a Scheduler and starts its worker pool.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		quantum: cfg.Quantum,
		now:     time.Now,
		sleep:   time.Sleep,
		tenants: make(map[string]*tenantState),
		reg:     cfg.Obs,
	}
	if s.quantum <= 0 {
		s.quantum = DefaultQuantum
	}
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.cond = sync.NewCond(&s.mu)
	s.ob = fleetObs{
		sessions: s.reg.Gauge("fleet.sessions"),
		runnable: s.reg.Gauge("fleet.runnable"),
		running:  s.reg.Gauge("fleet.running"),
		rejects:  s.reg.Counter("fleet.rejects"),
		quanta:   s.reg.Counter("fleet.quanta"),
		panics:   s.reg.Counter("fleet.panics"),
		throttle: s.reg.Timer("fleet.throttle_wait_ns"),
		sched:    s.reg.Span(obs.StageSchedule),
	}
	if cfg.GlobalEventsPerSec > 0 {
		s.global = newBucket(cfg.GlobalEventsPerSec, cfg.GlobalBurst, s.now())
	}
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers reports the configured worker pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// tenantLocked returns the tenant record, creating it on first sight.
// Caller holds s.mu.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	q, ok := s.cfg.Tenants[name]
	if !ok {
		q = s.cfg.Default
	}
	t := &tenantState{name: name, quota: q}
	if q.EventsPerSec > 0 {
		t.bucket = newBucket(q.EventsPerSec, q.Burst, s.now())
	}
	scope := s.reg.Scope("tenant", name)
	t.ob = tenantObs{
		sessions: scope.Gauge("tenant.sessions"),
		events:   scope.Counter("tenant.events"),
		rejects:  scope.Counter("tenant.rejects"),
		throttle: scope.Timer("tenant.throttle_wait_ns"),
		arena:    scope.Gauge("tenant.arena_bytes"),
	}
	s.tenants[name] = t
	return t
}

// Admit reserves a resident-session slot for tenant, or rejects with a
// *BusyError when the global table, the tenant's session cap, the
// tenant's arena-byte cap, or the (overdrawn) global event budget says
// no. The returned release function frees the slot; it is idempotent
// and must be called exactly when the session leaves the resident table
// (finalized or expired), not merely when its connection drops.
func (s *Scheduler) Admit(tenant string) (release func(), err error) {
	s.mu.Lock()
	t := s.tenantLocked(tenant)
	reject := func(reason string) (func(), error) {
		s.mu.Unlock()
		s.ob.rejects.Inc()
		t.ob.rejects.Inc()
		return nil, &BusyError{Tenant: tenant, Reason: reason}
	}
	if s.stopped {
		return reject("daemon shutting down")
	}
	if s.cfg.MaxSessions > 0 && s.sessions >= s.cfg.MaxSessions {
		return reject("session table full")
	}
	if t.quota.MaxSessions > 0 && t.sessions >= t.quota.MaxSessions {
		return reject("tenant session quota reached")
	}
	if t.quota.MaxArenaBytes > 0 && t.arena.Load() >= t.quota.MaxArenaBytes {
		return reject("tenant arena bytes over quota")
	}
	if s.global != nil {
		s.gmu.Lock()
		over := s.global.overdrawn(s.now())
		s.gmu.Unlock()
		if over {
			return reject("global event budget exhausted")
		}
	}
	s.sessions++
	t.sessions++
	s.mu.Unlock()
	s.ob.sessions.Add(1)
	t.ob.sessions.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.sessions--
			t.sessions--
			s.mu.Unlock()
			s.ob.sessions.Add(-1)
			t.ob.sessions.Add(-1)
		})
	}, nil
}

// Register adds a session's Runnable to the scheduler under tenant. The
// entry starts idle; Wake it whenever work is enqueued for it.
func (s *Scheduler) Register(tenant string, r Runnable) *Entry {
	s.mu.Lock()
	t := s.tenantLocked(tenant)
	s.mu.Unlock()
	return &Entry{s: s, t: t, r: r}
}

// Wake marks the entry runnable. It is the producer-side edge of the
// scheduler: call it after every enqueue to the session's input queue.
// The fast path is one atomic load when a wake is already pending.
func (e *Entry) Wake() {
	if e.wakePending.Load() {
		return
	}
	s := e.s
	s.mu.Lock()
	switch e.state {
	case entryIdle:
		e.state = entryQueued
		e.wakePending.Store(true)
		s.enqueueLocked(e)
		s.cond.Signal()
	case entryRunning:
		e.state = entryRunningWake
		e.wakePending.Store(true)
	}
	s.mu.Unlock()
}

// SetArenaBytes publishes the session's current detector arena
// footprint; the delta is charged to its tenant's arena total for
// admission-time quota checks.
func (e *Entry) SetArenaBytes(n int64) {
	old := e.arenaBytes.Swap(n)
	if d := n - old; d != 0 {
		e.t.ob.arena.Set(e.t.arena.Add(d))
	}
}

// State reports the entry's scheduler state for status endpoints:
// "idle", "runnable", "running", or "closed".
func (e *Entry) State() string {
	e.s.mu.Lock()
	st := e.state
	e.s.mu.Unlock()
	switch st {
	case entryQueued:
		return "runnable"
	case entryRunning, entryRunningWake:
		return "running"
	case entryClosed:
		return "closed"
	default:
		return "idle"
	}
}

// Close removes the entry from the scheduler permanently (later Wakes
// are no-ops) and returns its arena bytes to the tenant total. If the
// entry is mid-quantum the running worker finishes it and drops it.
func (e *Entry) Close() {
	s := e.s
	s.mu.Lock()
	if e.state == entryQueued {
		q := e.t.queue
		for i, x := range q {
			if x == e {
				copy(q[i:], q[i+1:])
				q[len(q)-1] = nil
				e.t.queue = q[:len(q)-1]
				s.ob.runnable.Add(-1)
				break
			}
		}
	}
	closed := e.state == entryClosed
	e.state = entryClosed
	e.wakePending.Store(false)
	s.mu.Unlock()
	if !closed {
		e.SetArenaBytes(0)
	}
}

// enqueueLocked appends e to its tenant's queue, entering the tenant
// into the DRR ring if it was absent. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(e *Entry) {
	t := e.t
	t.queue = append(t.queue, e)
	s.ob.runnable.Add(1)
	if !t.inRing {
		t.inRing = true
		t.deficit = 0
		s.ring = append(s.ring, t)
	}
}

// worker is the DRR dispatch loop: pop the head tenant, bank one
// quantum of deficit, run its head entry with the banked grant, settle
// the deficit with what was actually used, requeue as needed. Workers
// drain the ring fully before honoring Stop, so pending quanta finish.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for !s.stopped && len(s.ring) == 0 {
			s.cond.Wait()
		}
		if len(s.ring) == 0 { // stopped, nothing queued
			s.mu.Unlock()
			return
		}
		t := s.ring[0]
		s.ring[0] = nil
		s.ring = s.ring[1:]
		if len(t.queue) == 0 { // emptied by Entry.Close while ringed
			t.inRing = false
			t.deficit = 0
			continue
		}
		t.deficit += s.quantum
		if max := deficitCapRounds * s.quantum; t.deficit > max {
			t.deficit = max
		}
		e := t.queue[0]
		t.queue[0] = nil
		t.queue = t.queue[1:]
		s.ob.runnable.Add(-1)
		if len(t.queue) > 0 {
			s.ring = append(s.ring, t)
		} else {
			t.inRing = false
		}
		grant := t.deficit
		e.state = entryRunning
		e.wakePending.Store(false)
		s.mu.Unlock()

		s.ob.running.Add(1)
		used, more := s.runQuantum(e, grant)
		s.ob.running.Add(-1)

		s.mu.Lock()
		t.deficit -= used
		if t.deficit < 0 {
			t.deficit = 0
		}
		switch e.state {
		case entryRunning:
			if more {
				e.state = entryQueued
				e.wakePending.Store(true)
				s.enqueueLocked(e)
				s.cond.Signal()
			} else {
				e.state = entryIdle
			}
		case entryRunningWake:
			e.state = entryQueued
			s.enqueueLocked(e)
			s.cond.Signal()
		}
		// entryClosed: dropped.
	}
}

// runQuantum runs one grant with a panic backstop: a panicking Runnable
// is counted, logged, and treated as finished — it must carry its own
// degrade-and-drain recovery (rd2d's session runner does) if it wants
// to keep its connection alive.
func (s *Scheduler) runQuantum(e *Entry, grant int) (used int, more bool) {
	defer func() {
		if r := recover(); r != nil {
			s.ob.panics.Inc()
			if s.cfg.Logf != nil {
				s.cfg.Logf("fleet: runnable panic (tenant %q): %v", e.t.name, r)
			}
			used, more = 0, false
		}
	}()
	start := s.ob.sched.Start()
	used, more = e.r.RunQuantum(grant)
	s.ob.sched.End(start, used)
	s.ob.quanta.Inc()
	return used, more
}

// Stop shuts the worker pool down after draining all queued quanta.
// Entries must stop producing first (rd2d calls Stop after every
// session has finalized). Admission rejects from the moment Stop is
// called.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// TenantStats is a point-in-time view of one tenant for status
// endpoints.
type TenantStats struct {
	Name       string `json:"tenant"`
	Sessions   int    `json:"sessions"`
	Queued     int    `json:"queued"`
	ArenaBytes int64  `json:"arenaBytes"`
	Events     uint64 `json:"events"`
	Rejects    uint64 `json:"rejects"`
}

// Tenants snapshots every tenant the scheduler has seen, sorted by
// name.
func (s *Scheduler) Tenants() []TenantStats {
	s.mu.Lock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStats{
			Name:       t.name,
			Sessions:   t.sessions,
			Queued:     len(t.queue),
			ArenaBytes: t.arena.Load(),
			Events:     t.ob.events.Load(),
			Rejects:    t.ob.rejects.Load(),
		})
	}
	s.mu.Unlock()
	sortTenantStats(out)
	return out
}

func sortTenantStats(ts []TenantStats) {
	for i := 1; i < len(ts); i++ { // insertion sort; tenant counts are tiny
		for j := i; j > 0 && ts[j].Name < ts[j-1].Name; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
