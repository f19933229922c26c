package main

// Durable-session tests (DESIGN.md §15): a daemon "crash" here is a daemon
// that is simply abandoned — no Shutdown, no listener close, nothing
// flushed or finalized — so its on-disk state is exactly what a SIGKILL
// would leave behind (its goroutines leak for the test binary's lifetime,
// which is the price of an in-process crash). A second daemon rehydrates
// the same state dir and the resumed stream must reproduce the verdicts of
// an uninterrupted run, down to the JSONL race records and their per-session
// seq numbering — including when the snapshot is torn or the WAL tail is
// truncated between the two lives.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// encodeSession encodes tr as a resumable session stream (no end frame).
func encodeSession(t *testing.T, tr *trace.Trace, sid string, frameSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = frameSize
	if err := enc.SetSession(sid); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// severInto writes data into addr, half-closes, and drains acks until the
// daemon parks the session and closes the connection — a deterministic
// mid-stream connection loss.
func severInto(t *testing.T, addr string, data []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	io.Copy(io.Discard, conn)
}

// waitParked blocks until sid's session is parked with a drained queue,
// plus a beat for the worker to finish its in-flight event and checkpoint.
func waitParked(t *testing.T, d *daemon, sid string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		s := d.sessions[sid]
		d.mu.Unlock()
		if s != nil {
			s.mu.Lock()
			parked := s.state == stateParked
			s.mu.Unlock()
			if parked && len(s.queue) == 0 {
				time.Sleep(100 * time.Millisecond)
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("session never parked")
}

func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never appeared", path)
}

func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never removed", path)
}

// durableRestartDiff is the crash/restart differential: stream a prefix
// into a durable daemon, crash it, optionally corrupt the on-disk state,
// rehydrate a second daemon over the same state dir, resume with a fresh
// client, and hold summary plus JSONL verdicts to an uninterrupted
// baseline run.
func durableRestartDiff(t *testing.T, corrupt func(t *testing.T, sdir, sid string)) {
	tr, _ := racyTrace(t)
	const sid = "dur"
	withObs := func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
	}

	data := encodeSession(t, tr, sid, 1<<20) // probe: one big frame
	frameSize := len(data) / 6
	if frameSize < 64 {
		frameSize = 64
	}
	data = encodeSession(t, tr, sid, frameSize)
	cut := len(data) * 3 / 5

	// Baseline: no state dir, unsevered.
	var baseReport bytes.Buffer
	bd, bdone := testDaemonCfg(t, &baseReport, withObs)
	brc, err := wire.DialSession(bd.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	brc.SetFrameSize(frameSize)
	if err := brc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	baseSum, err := brc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bd.Shutdown()
	if err := <-bdone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if baseSum.Error != "" || !baseSum.Clean || baseSum.Events != tr.Len() {
		t.Fatalf("baseline summary %+v, want clean over %d events", baseSum, tr.Len())
	}
	baseRaces := raceLines(t, &baseReport)

	// Phase 1: partial stream into the durable daemon, then crash it.
	stateDir := t.TempDir()
	reportPath := filepath.Join(t.TempDir(), "report.jsonl")
	rep1, err := os.Create(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	// Both lives write the report through the production group-commit
	// sink, whose checkpoint flush carries the report-continuity invariant.
	sink1 := newReportSink(rep1, 0)
	d1, _ := testDaemonCfg(t, nil, func(c *daemonConfig) {
		withObs(c)
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
		c.reportSink = sink1
		c.reporter = core.NewReportWriter(sink1)
	})
	severInto(t, d1.Addr(), data[:cut])
	waitParked(t, d1, sid)
	sdir := filepath.Join(stateDir, sid)
	waitFile(t, filepath.Join(sdir, "wal"))
	waitFile(t, filepath.Join(sdir, "snap.ckpt"))
	rep1.Close()
	sink1.Close() // anything still pending fails on the closed file, as in a crash
	// Crash: abandon d1. Its parked session, open WAL fd, and TTL timer
	// leak; the state dir holds whatever was durable at this instant.

	if corrupt != nil {
		corrupt(t, sdir, sid)
	}

	// Phase 2: rehydrate a fresh daemon over the same state dir and resume.
	seqs, err := scanReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := os.OpenFile(reportPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	sink2 := newReportSink(rep2, 0)
	defer sink2.Close()
	d2, done2 := testDaemonCfg(t, nil, func(c *daemonConfig) {
		withObs(c)
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
		c.reportSink = sink2
		c.reporter = core.NewReportWriter(sink2)
		c.reportSeqs = seqs
	})
	d2.rehydrate()
	d2.mu.Lock()
	_, rehydrated := d2.sessions[sid]
	d2.mu.Unlock()
	if !rehydrated {
		t.Fatal("session not rehydrated from the state dir")
	}

	// A fresh client resends the whole stream with the same chunking; the
	// rehydrated decoder state deduplicates the already-ingested prefix.
	rc, err := wire.DialSession(d2.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rc.SetFrameSize(frameSize)
	if err := rc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := rc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d2.Shutdown()
	if err := <-done2; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := sink2.Flush(); err != nil {
		t.Fatalf("report: %v", err)
	}

	if sum.Error != "" || !sum.Clean || sum.Degraded {
		t.Fatalf("resumed summary %+v, want clean undegraded", sum)
	}
	if sum.Events != tr.Len() {
		t.Fatalf("resumed session analyzed %d events, want %d (no loss, no duplication)", sum.Events, tr.Len())
	}
	if sum.Races != baseSum.Races {
		t.Fatalf("resumed session found %d races, baseline %d", sum.Races, baseSum.Races)
	}
	if sum.Resumes < 1 {
		t.Fatalf("resumed session reports %d resumes, want >= 1", sum.Resumes)
	}

	// The JSONL report across both daemon lives must match the baseline
	// record-for-record, with dense per-session seq numbering (raceLines
	// checks density, so a replay that re-emitted or skipped records fails
	// here even before the content comparison).
	reportData, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	got := raceLines(t, bytes.NewBuffer(reportData))
	if len(got) != len(baseRaces) {
		t.Fatalf("%d race records across the restart, baseline %d", len(got), len(baseRaces))
	}
	for i := range got {
		if got[i] != baseRaces[i] {
			t.Fatalf("race record %d differs:\n  restarted: %s\n  baseline:  %s", i, got[i], baseRaces[i])
		}
	}

	// A cleanly completed session's durability obligation is over.
	waitGone(t, sdir)
}

// TestDurableRestartDifferential runs the crash/restart differential with
// the on-disk state left as the crash left it.
func TestDurableRestartDifferential(t *testing.T) {
	durableRestartDiff(t, nil)
}

// TestDurableTornSnapshotRecovery flips a bit in the snapshot between the
// crash and the restart (a machine-crash artifact tmp+rename cannot
// prevent). The CRC rejects it, recovery replays the WAL from byte zero,
// and the verdicts still match the baseline.
func TestDurableTornSnapshotRecovery(t *testing.T) {
	durableRestartDiff(t, func(t *testing.T, sdir, _ string) {
		if err := faultinject.FlipFileBits(filepath.Join(sdir, "snap.ckpt"), 7, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableTruncatedWALRecovery removes the snapshot and truncates the
// WAL mid-stream: genesis replay hits the torn tail, truncates it, and the
// resuming client's resend covers everything the cut lost (those frames'
// acks died with the daemon or are resent anyway by a fresh client).
func TestDurableTruncatedWALRecovery(t *testing.T) {
	durableRestartDiff(t, func(t *testing.T, sdir, sid string) {
		if err := os.Remove(filepath.Join(sdir, "snap.ckpt")); err != nil {
			t.Fatal(err)
		}
		hdr := len(wire.AppendStreamHeader(nil, sid, "default"))
		if err := faultinject.TruncateFile(filepath.Join(sdir, "wal"), 11, hdr+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableSnapshotBeyondWALRecovery keeps a valid snapshot but cuts the
// WAL below the offset it references (a machine crash that lost WAL pages
// after the snapshot renamed into place). The loader must treat the
// snapshot as torn and fall back to genesis replay rather than seeking
// past the end of the file.
func TestDurableSnapshotBeyondWALRecovery(t *testing.T) {
	durableRestartDiff(t, func(t *testing.T, sdir, sid string) {
		meta, _, err := openSnapshot(filepath.Join(sdir, "snap.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		hdr := int64(len(wire.AppendStreamHeader(nil, sid, "default")))
		cut := meta.WalOff - 1
		if cut <= hdr {
			t.Fatalf("snapshot wal offset %d leaves no room below it", meta.WalOff)
		}
		if err := os.Truncate(filepath.Join(sdir, "wal"), cut); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableExpiredStateGC ages a crashed session's state past the resume
// TTL: rehydration must garbage-collect it instead of resurrecting a
// session whose client has long given up — and a brand-new session under
// the same id must start a clean first life (fresh seq numbering, full
// verdicts).
func TestDurableExpiredStateGC(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	const sid = "dur-expired"
	data := encodeSession(t, tr, sid, 256)

	stateDir := t.TempDir()
	d1, _ := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
	})
	severInto(t, d1.Addr(), data[:len(data)*3/5])
	waitParked(t, d1, sid)
	sdir := filepath.Join(stateDir, sid)
	waitFile(t, filepath.Join(sdir, "wal"))
	// Crash d1, then age the state two hours into the past.
	old := time.Now().Add(-2 * time.Hour)
	for _, name := range []string{"wal", "snap.ckpt"} {
		p := filepath.Join(sdir, name)
		if _, err := os.Stat(p); err == nil {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}

	var report bytes.Buffer
	d2, done2 := testDaemonCfg(t, &report, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.resumeTTL = time.Minute
	})
	d2.rehydrate()
	if _, err := os.Stat(sdir); !os.IsNotExist(err) {
		t.Fatalf("expired state dir %s survived rehydration", sdir)
	}
	d2.mu.Lock()
	_, resurrected := d2.sessions[sid]
	d2.mu.Unlock()
	if resurrected {
		t.Fatal("expired session resurrected into the session table")
	}

	// The same sid starts a fresh life: full verdicts, seq from 1.
	rc, err := wire.DialSession(d2.Addr(), sid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := rc.Close(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d2.Shutdown()
	if err := <-done2; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if sum.Error != "" || !sum.Clean || sum.Races != wantRaces || sum.Events != tr.Len() {
		t.Fatalf("fresh-life summary %+v, want clean %d races over %d events", sum, wantRaces, tr.Len())
	}
	if got := raceLines(t, &report); len(got) != wantRaces {
		t.Fatalf("fresh life wrote %d race records, want %d (stale seq suppression leaked?)", len(got), wantRaces)
	}
}

// TestDurableLiveTTLDestroysState: when a parked durable session's resume
// TTL expires in a live daemon, finalize must remove its state dir — the
// durability obligation ends with the session.
func TestDurableLiveTTLDestroysState(t *testing.T) {
	tr, _ := racyTrace(t)
	const sid = "dur-ttl"
	data := encodeSession(t, tr, sid, 256)

	stateDir := t.TempDir()
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = 300 * time.Millisecond
	})
	severInto(t, d.Addr(), data[:len(data)*3/5])
	waitGone(t, filepath.Join(stateDir, sid))
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestScanReport pins the report-file recovery scan: per-session high-water
// seqs, degraded notes skipped, and a torn final line truncated in place.
func TestScanReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.jsonl")
	if seqs, err := scanReport(path); err != nil || len(seqs) != 0 {
		t.Fatalf("missing report: seqs=%v err=%v, want empty, nil", seqs, err)
	}
	content := `{"session":"a","seq":1,"object":1}
{"session":"a","seq":2,"object":2}
{"note":"degraded","session":"a","seq":9}
{"session":"b","seq":1,"object":3}
{"session":"a","seq":3,"obj`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := scanReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if seqs["a"] != 2 || seqs["b"] != 1 || len(seqs) != 2 {
		t.Fatalf("seqs = %v, want a:2 b:1 (note skipped, torn line dropped)", seqs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"seq":3`)) || data[len(data)-1] != '\n' {
		t.Fatalf("torn line not truncated: %q", data)
	}
}

// TestHealthzPhases checks the /healthz readiness surface: 200 only while
// serving, 503 with the phase name during rehydration and drain.
func TestHealthzPhases(t *testing.T) {
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
	})
	h := d.httpHandler()
	get := func() (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		return rr.Code, rr.Body.String()
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("serving healthz = %d %q, want 200 ok", code, body)
	}
	d.phase.Store(phaseRehydrating)
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("rehydrating")) {
		t.Fatalf("rehydrating healthz = %d %q, want 503 rehydrating", code, body)
	}
	d.phase.Store(phaseServing)
	d.Shutdown()
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDurableCheckpointFlushesReport pins the report-continuity invariant
// under group commit: a snapshot never claims report records the file
// lacks. The report pipe starts full, so the session's records cannot
// reach it; any snapshot written meanwhile must say no record is durable
// (ReporterSeq 0). Once the pipe drains, the session completes with every
// record in the report.
func TestDurableCheckpointFlushesReport(t *testing.T) {
	tr, _ := racyTrace(t)
	const sid = "ckpt-flush"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillPipe(t, w)
	sink := newReportSink(w, 0)
	defer sink.Close()
	defer r.Close() // first, so a failed test never leaves the flusher stuck on the full pipe
	stateDir := t.TempDir()
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = obs.NewRegistry()
		c.stateDir = stateDir
		c.ckptEvery = 4
		c.resumeTTL = time.Hour
		c.reportSink = sink
		c.reporter = core.NewReportWriter(sink)
	})

	type result struct {
		sum wire.Summary
		err error
	}
	summary := make(chan result, 1)
	go func() {
		rc, err := wire.DialSession(d.Addr(), sid, 2*time.Second)
		var sum wire.Summary
		if err == nil {
			rc.SetFrameSize(64)
			if err = rc.SendSource(tr.Source()); err == nil {
				sum, err = rc.Close(20 * time.Second)
			}
		}
		summary <- result{sum, err}
	}()

	snap := filepath.Join(stateDir, sid, "snap.ckpt")
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(snap); err != nil {
			continue
		}
		meta, _, err := openSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if meta.ReporterSeq != 0 {
			t.Fatalf("snapshot at event %d claims %d report records, none of which reached the report",
				meta.Events, meta.ReporterSeq)
		}
	}

	var report bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&report, r)
		copied <- err
	}()
	res := <-summary
	if res.err != nil {
		t.Fatal(res.err)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(report.Bytes(), []byte(`{"session":"`+sid+`",`)); res.sum.Seq == 0 || uint64(n) != res.sum.Seq {
		t.Fatalf("report holds %d records, summary says %d", n, res.sum.Seq)
	}
}
