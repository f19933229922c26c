// Command rd2 is the offline commutativity race detector: it replays a
// recorded trace against commutativity specifications and reports every
// commutativity race (Algorithm 1 of the paper).
//
// Usage:
//
//	rd2 -trace run.trace [-spec dict] [-bind 0=dict,1=set] [-engine bounded]
//
// The trace format is auto-detected by magic header: RDB2 binary traces
// (.rdb, see internal/wire) and the text format both work everywhere a
// trace is read. -send addr streams the trace to a running rd2d ingestion
// daemon instead of analyzing locally (with -validate=false the file is
// streamed in bounded memory). -resume (or an explicit -session id) opens a
// resumable session: if the connection is lost mid-stream, rd2 reconnects
// with exponential backoff and the daemon resumes the session from the last
// acknowledged chunk, without duplicating events.
//
// The text trace format of internal/trace:
//
//	t0 fork t1
//	t1 act o0.put("a.com", 1)/nil
//	t0 join t1
//	t0 act o0.size()/1
//
// -spec names the default specification for every object: either a built-in
// name (dict, set, counter, queue, register, multiset) or a path to an ECL
// specification file. -bind overrides the specification per object id.
//
// Observability (see DESIGN.md §7): -http serves /metrics, /debug/vars and
// /debug/pprof; -stats-interval emits periodic snapshots to stderr
// (-stats-json for JSON); -obs prints a final snapshot; -report streams
// structured race records as JSON Lines; -serve keeps the HTTP endpoint up
// after the analysis until SIGINT/SIGTERM (for scraping and smoke tests).
//
// The exit status is 1 when races were found, 2 on usage or input errors.
// -send distinguishes its failure modes: 3 when the initial dial fails,
// 4 when the connection is lost mid-stream (and, with -resume, could not be
// recovered), 5 when the stream was delivered but the summary read failed,
// 6 when the daemon rejected the session at admission (busy: session table
// full or tenant over quota) and the -retries backoff attempts ran out.
// -tenant stamps the stream's hello with a tenant id for the daemon's
// per-tenant quota accounting and fair scheduling.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/ecl"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replay"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/translate"
	"repro/internal/wire"
)

// detector is the surface shared by the serial core.Detector and the
// sharded pipeline.Pipeline; run picks one based on -shards.
type detector interface {
	Register(obj trace.ObjID, rep ap.Rep)
	RunTrace(tr *trace.Trace) error
	Races() []core.Race
	Stats() core.Stats
	DistinctObjects() int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rd2", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace file to analyze (required)")
	specName := fs.String("spec", "dict", "default specification: built-in name or file path")
	bind := fs.String("bind", "", "per-object specs, e.g. 0=dict,3=set")
	engine := fs.String("engine", "bounded", "conflict engine: bounded or enumerating")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0),
		"detection shards; >1 runs the parallel pipeline, <=1 the serial detector")
	maxRaces := fs.Int("max-races", 100, "maximum races to print")
	quiet := fs.Bool("q", false, "print only the summary line")
	grouped := fs.Bool("summary", false, "group redundant races by object and method pair")
	jsonOut := fs.Bool("json", false, "emit races as JSON (one object per line)")
	validate := fs.Bool("validate", true, "check trace well-formedness before analysis")
	determinism := fs.Int("determinism", 0,
		"additionally replay N random linearizations (Theorem 5.2 check; built-in specs only)")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (enables metrics)")
	statsInterval := fs.Duration("stats-interval", 0, "emit a metrics snapshot to stderr at this interval (enables metrics)")
	statsJSON := fs.Bool("stats-json", false, "emit -stats-interval snapshots as JSON instead of text")
	obsFlag := fs.Bool("obs", false, "print a final metrics snapshot to stderr (enables metrics)")
	reportPath := fs.String("report", "", "stream structured race records (JSON Lines) to this file")
	serve := fs.Bool("serve", false, "with -http: keep serving after the analysis until SIGINT/SIGTERM")
	send := fs.String("send", "", "stream the trace to an rd2d daemon at this address instead of analyzing locally")
	sendWait := fs.Duration("send-wait", 5*time.Second, "with -send: how long to retry the initial connection")
	resume := fs.Bool("resume", false, "with -send: open a resumable session (reconnect and resume after mid-stream connection loss)")
	session := fs.String("session", "", "with -send: client-chosen session id (implies -resume; default: derived unique id)")
	retries := fs.Int("retries", wire.DefaultRetries, "with -resume: redial attempts per connection failure (also bounds busy-reject retries)")
	restartWindow := fs.Duration("restart-window", 15*time.Second,
		"with -resume: keep redialing a refused connection for this long (covers an rd2d crash/restart window; 0 disables)")
	tenant := fs.String("tenant", "", "with -send: tenant id carried in the stream hello (daemon-side quota accounting and fair scheduling)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "rd2: -trace is required")
		fs.Usage()
		return 2
	}
	if *serve && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "rd2: -serve requires -http")
		return 2
	}

	if *httpAddr != "" || *statsInterval > 0 || *obsFlag {
		obs.SetEnabled(true)
	}
	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rd2: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *statsInterval > 0 {
		em := obs.StartEmitter(os.Stderr, obs.Default, *statsInterval, *statsJSON)
		defer em.Stop()
	}

	var eng core.Engine
	switch *engine {
	case "bounded":
		eng = core.EngineBounded
	case "enumerating":
		eng = core.EngineEnumerating
	default:
		fmt.Fprintf(os.Stderr, "rd2: unknown engine %q\n", *engine)
		return 2
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
		return 2
	}
	defer f.Close()

	if *send != "" {
		// Online mode: stream the trace to an rd2d ingestion daemon and
		// report its session summary. With -validate=false the file is
		// streamed straight off disk (bounded memory); validation needs
		// the whole trace in hand first.
		sid := *session
		if sid == "" && *resume {
			sid = fmt.Sprintf("rd2-%d-%d", os.Getpid(), time.Now().UnixNano())
		}
		return runSend(*send, *sendWait, f, *validate, sid, *tenant, *retries, *restartWindow)
	}

	// Auto-detect the trace format by magic header: RDB2 binary (.rdb) or
	// the line-oriented text format.
	tr, err := wire.ParseAny(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
		return 2
	}

	if *validate {
		if err := trace.Validate(tr); err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return 2
		}
	}

	defaultRep, err := loadRep(*specName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
		return 2
	}

	ccfg := core.Config{Engine: eng, MaxRaces: *maxRaces}

	// kinds maps each object to its responsible specification name; it is
	// fully populated before RunTrace, so the report writer's OnRace
	// callback (which runs on shard goroutines under -shards) only reads it.
	kinds := map[trace.ObjID]string{}
	var reporter *core.ReportWriter
	var reportBuf *bufio.Writer
	if *reportPath != "" {
		rf, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return 2
		}
		defer rf.Close()
		reportBuf = bufio.NewWriter(rf)
		reporter = core.NewReportWriter(reportBuf)
		ccfg.OnRace = func(r core.Race) {
			reporter.Write(r, kinds[r.Obj])
		}
	}

	var det detector
	if *shards > 1 {
		// The sharded pipeline: serial happens-before stamping, parallel
		// per-object detection, merged report in canonical order.
		det = pipeline.New(pipeline.Config{Shards: *shards, Core: ccfg})
	} else {
		det = core.New(ccfg)
	}
	objs := map[trace.ObjID]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.ActionEvent {
			objs[e.Act.Obj] = true
		}
	}
	for o := range objs {
		det.Register(o, defaultRep)
		kinds[o] = *specName
	}
	if *bind != "" {
		for _, pair := range strings.Split(*bind, ",") {
			kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(kv) != 2 {
				fmt.Fprintf(os.Stderr, "rd2: bad -bind entry %q\n", pair)
				return 2
			}
			id, err := strconv.Atoi(kv[0])
			if err != nil {
				fmt.Fprintf(os.Stderr, "rd2: bad object id %q\n", kv[0])
				return 2
			}
			rep, err := loadRep(kv[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
				return 2
			}
			det.Register(trace.ObjID(id), rep)
			kinds[trace.ObjID(id)] = kv[1]
		}
	}

	if err := det.RunTrace(tr); err != nil {
		fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
		return 2
	}

	// Canonical report order regardless of detection path: the pipeline
	// merge is already sorted, but the serial detector emits ties within one
	// second event in map-iteration order.
	races := append([]core.Race(nil), det.Races()...)
	core.SortRaces(races)
	switch {
	case *quiet:
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, r := range races {
			if err := enc.Encode(raceJSON{
				Object:       int(r.Obj),
				First:        r.First.String(),
				FirstThread:  int(r.FirstThread),
				FirstPoint:   r.FirstPoint,
				Second:       r.Second.String(),
				SecondThread: int(r.SecondThread),
				SecondSeq:    r.SecondSeq,
				SecondPoint:  r.SecondPoint,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
				return 2
			}
		}
	case *grouped:
		fmt.Print(core.RenderSummary(core.Summarize(races)))
	default:
		for _, r := range races {
			fmt.Println(r)
		}
	}
	st := det.Stats()
	fmt.Printf("rd2: %d events, %d actions, %d checks, %d commutativity races on %d objects\n",
		tr.Len(), st.Actions, st.Checks, st.Races, det.DistinctObjects())
	if reporter != nil {
		err := reportBuf.Flush()
		if err == nil {
			err = reporter.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2: report: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "rd2: %d race records written to %s\n", reporter.Count(), *reportPath)
	}

	if *determinism > 0 {
		res, err := replay.Check(tr, kinds, replay.Config{Samples: *determinism})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2: determinism check: %v (only built-in specs have executable semantics)\n", err)
			return 2
		}
		if res.Deterministic {
			fmt.Printf("rd2: %d linearizations replayed: deterministic\n", res.Samples)
		} else {
			fmt.Printf("rd2: non-deterministic: %s\n", res.Witness)
		}
	}
	if *obsFlag {
		fmt.Fprint(os.Stderr, obs.FormatSnapshot(obs.Default.Snapshot()))
	}
	if *serve {
		fmt.Fprintln(os.Stderr, "rd2: analysis done, serving until SIGINT/SIGTERM")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	if st.Races > 0 {
		return 1
	}
	return 0
}

// -send exit codes: the error taxonomy distinguishes where a streamed
// session failed, so scripts can tell "daemon unreachable" from "the
// network died mid-stream" from "the stream went but the summary did not
// come back" (documented in README).
const (
	exitRaces       = 1 // session completed; races found
	exitUsage       = 2 // usage, trace, or daemon-reported errors
	exitDial        = 3 // could not establish the initial connection
	exitSend        = 4 // connection lost mid-stream (and, with -resume, not recovered)
	exitSummaryRead = 5 // stream delivered, but the summary read failed
	exitBusy        = 6 // daemon rejected the session at admission; retries exhausted
)

// Busy-reject retry pacing: a rejected session is retried from the top of
// the trace (the daemon ingested nothing) with doubling backoff.
const (
	busyBackoff    = 200 * time.Millisecond
	busyMaxBackoff = 5 * time.Second
)

// sendClient is the surface shared by the plain and resumable clients.
type sendClient interface {
	SendSource(src trace.Source) error
	Close(timeout time.Duration) (wire.Summary, error)
	Abort() error
}

// runSend streams the trace file to an rd2d daemon and relays its summary.
// The initial connection is retried until wait elapses (so scripted runs
// can start daemon and sender together). With a session id the stream is
// resumable: a mid-stream connection loss is retried with exponential
// backoff and the session resumes from the last acknowledged chunk. A busy
// reject (the daemon's admission control shed the session before ingesting
// anything) is retried from the top of the trace with doubling backoff,
// up to retries attempts; exit code 6 when they run out. restartWindow
// extends mid-stream reconnects past the retry budget for its duration,
// so a daemon restart (connection refused while the new process rehydrates
// durable sessions) does not kill a resumable send.
func runSend(addr string, wait time.Duration, f *os.File, validate bool, sid, tenant string, retries int, restartWindow time.Duration) int {
	backoff := busyBackoff
	for attempt := 0; ; attempt++ {
		code, busy := sendOnce(addr, wait, f, validate, sid, tenant, retries, restartWindow)
		if !busy {
			return code
		}
		if attempt >= retries {
			fmt.Fprintf(os.Stderr, "rd2: daemon busy after %d attempts (raise -retries or shed load)\n", attempt+1)
			return exitBusy
		}
		fmt.Fprintf(os.Stderr, "rd2: daemon busy, retrying in %v\n", backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > busyMaxBackoff {
			backoff = busyMaxBackoff
		}
		// The daemon ingested nothing from a rejected session: replay the
		// whole trace file on the next attempt.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return exitUsage
		}
	}
}

// sendOnce performs one full send attempt. busy reports a daemon-side
// admission reject, which the caller may retry after backoff.
func sendOnce(addr string, wait time.Duration, f *os.File, validate bool, sid, tenant string, retries int, restartWindow time.Duration) (code int, busy bool) {
	var src trace.Source
	if validate {
		tr, err := wire.ParseAny(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return exitUsage, false
		}
		if err := trace.Validate(tr); err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return exitUsage, false
		}
		src = tr.Source()
	} else {
		var err error
		if src, err = wire.NewSource(f); err != nil {
			fmt.Fprintf(os.Stderr, "rd2: %v\n", err)
			return exitUsage, false
		}
	}

	var cl sendClient
	deadline := time.Now().Add(wait)
	for {
		var err error
		if sid != "" {
			var rc *wire.ResumableClient
			if rc, err = wire.DialSession(addr, sid, time.Second); err == nil {
				rc.Retries = retries
				rc.RetryWindow = restartWindow
				rc.OnResume = func(replayed int) {
					fmt.Fprintf(os.Stderr, "rd2: reconnected, replayed %d chunks\n", replayed)
				}
				if tenant != "" {
					if terr := rc.SetTenant(tenant); terr != nil {
						fmt.Fprintf(os.Stderr, "rd2: %v\n", terr)
						return exitUsage, false
					}
				}
				cl = rc
				break
			}
		} else {
			var pc *wire.Client
			if pc, err = wire.Dial(addr, time.Second); err == nil {
				if tenant != "" {
					if terr := pc.SetTenant(tenant); terr != nil {
						fmt.Fprintf(os.Stderr, "rd2: %v\n", terr)
						return exitUsage, false
					}
				}
				cl = pc
				break
			}
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "rd2: dial failed: %v (is rd2d running on %s?)\n", err, addr)
			return exitDial, false
		}
		time.Sleep(100 * time.Millisecond)
	}

	if err := cl.SendSource(src); err != nil {
		if errors.Is(err, wire.ErrBusy) {
			return 0, true // resumable client: reconnect short-circuited on a busy reject
		}
		// The daemon may have stopped reading because it rejected the
		// session: salvage the summary line before declaring a send failure.
		if sum, cerr := cl.Close(2 * time.Second); errors.Is(cerr, wire.ErrBusy) || sum.Busy {
			return 0, true
		}
		cl.Abort()
		if sid != "" {
			fmt.Fprintf(os.Stderr, "rd2: mid-stream send failed after %d reconnect attempts: %v\n", retries, err)
		} else {
			fmt.Fprintf(os.Stderr, "rd2: mid-stream send failed: %v (use -resume to survive connection loss)\n", err)
		}
		return exitSend, false
	}
	sum, err := cl.Close(30 * time.Second)
	if errors.Is(err, wire.ErrBusy) || sum.Busy {
		return 0, true
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rd2: stream delivered but summary read failed: %v (check the daemon's report output)\n", err)
		return exitSummaryRead, false
	}
	fmt.Printf("rd2: streamed %d events to %s: %d commutativity races\n",
		sum.Events, addr, sum.Races)
	if sum.Degraded {
		fmt.Fprintf(os.Stderr, "rd2: daemon: session degraded (races may be missing): skipped_frames=%d skipped_bytes=%d shard_panics=%d\n",
			sum.SkippedFrames, sum.SkippedBytes, sum.ShardPanics)
	}
	if sum.Resumes > 0 {
		fmt.Fprintf(os.Stderr, "rd2: session resumed %d time(s)\n", sum.Resumes)
	}
	if sum.Error != "" {
		fmt.Fprintf(os.Stderr, "rd2: daemon: %s\n", sum.Error)
		return exitUsage, false
	}
	if sum.Races > 0 {
		return exitRaces, false
	}
	return 0, false
}

// raceJSON is the machine-readable form of one race report.
type raceJSON struct {
	Object       int    `json:"object"`
	First        string `json:"first"`
	FirstThread  int    `json:"firstThread"`
	FirstPoint   string `json:"firstPoint"`
	Second       string `json:"second"`
	SecondThread int    `json:"secondThread"`
	SecondSeq    int    `json:"secondSeq"`
	SecondPoint  string `json:"secondPoint"`
}

// loadRep resolves a built-in spec name or parses a spec file and
// translates it.
func loadRep(name string) (ap.Rep, error) {
	if rep, err := specs.Rep(name); err == nil {
		return rep, nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("spec %q is neither built-in (%v) nor readable: %v",
			name, specs.Names(), err)
	}
	spec, err := ecl.ParseSpec(string(src))
	if err != nil {
		return nil, err
	}
	return translate.Translate(spec)
}
