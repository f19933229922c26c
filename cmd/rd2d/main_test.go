package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// racyTrace returns a generated dictionary workload with at least one race
// under the dict spec, plus the offline (in-memory, serial) race count it
// must match when streamed.
func racyTrace(t *testing.T) (*trace.Trace, int) {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 50; seed++ {
		cfg := trace.GenConfig{
			Threads: 4, Objects: 3, Keys: 4, Vals: 3, Locks: 2,
			OpsMin: 8, OpsMax: 16, PSize: 15, PGet: 35, PLocked: 30, PRemove: 25,
		}
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		det := core.New(core.Config{})
		for _, e := range tr.Events {
			if e.Kind == trace.ActionEvent {
				det.Register(e.Act.Obj, rep)
			}
		}
		if err := det.RunTrace(tr); err != nil {
			t.Fatal(err)
		}
		if n := det.Stats().Races; n > 0 {
			return tr, n
		}
	}
	t.Fatal("no seed under 50 produced a racy trace")
	return nil, 0
}

func testDaemon(t *testing.T, report *bytes.Buffer) (*daemon, chan error) {
	return testDaemonCfg(t, report, nil)
}

// testDaemonCfg is testDaemon with a config mutator hook (fault-injection
// and resilience tests arm injectors / resync / TTLs through it).
func testDaemonCfg(t *testing.T, report *bytes.Buffer, mut func(*daemonConfig)) (*daemon, chan error) {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig{
		defaultRep:  rep,
		defaultSpec: "dict",
		engine:      core.EngineBounded,
		maxRaces:    100,
		queueLen:    64,
		idleTimeout: 5 * time.Second,
		compactOps:  32,
	}
	if report != nil {
		cfg.reporter = core.NewReportWriter(report)
	}
	if mut != nil {
		mut(&cfg)
	}
	d, err := newDaemon("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	return d, done
}

// TestDaemonEndToEnd streams a trace through a live daemon and checks the
// session summary against offline in-memory detection.
func TestDaemonEndToEnd(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	var report bytes.Buffer
	d, done := testDaemon(t, &report)

	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Error != "" {
		t.Fatalf("session error: %s", sum.Error)
	}
	if !sum.Clean {
		t.Fatal("summary not clean despite end-of-stream frame")
	}
	if sum.Events != tr.Len() {
		t.Fatalf("summary events = %d, want %d", sum.Events, tr.Len())
	}
	if sum.Races != wantRaces {
		t.Fatalf("streamed detection found %d races, offline found %d", sum.Races, wantRaces)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := d.cfg.reporter.Count(); n != wantRaces {
		t.Fatalf("JSONL report has %d records, want %d", n, wantRaces)
	}
	if got := d.totalRaces.Load(); got != int64(wantRaces) {
		t.Fatalf("daemon total races = %d, want %d", got, wantRaces)
	}
}

// TestDaemonConcurrentSessions runs several clients at once; sessions are
// independent, so every summary must match the offline count.
func TestDaemonConcurrentSessions(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	d, done := testDaemon(t, nil)

	const clients = 4
	errs := make(chan error, clients)
	sums := make(chan wire.Summary, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cl, err := wire.Dial(d.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if err := cl.SendSource(tr.Source()); err != nil {
				errs <- err
				return
			}
			sum, err := cl.Close(10 * time.Second)
			if err != nil {
				errs <- err
				return
			}
			sums <- sum
		}()
	}
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case sum := <-sums:
			if sum.Error != "" || sum.Races != wantRaces || sum.Events != tr.Len() {
				t.Fatalf("session summary %+v, want %d races over %d events", sum, wantRaces, tr.Len())
			}
		}
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.totalRaces.Load(); got != int64(clients*wantRaces) {
		t.Fatalf("daemon total races = %d, want %d", got, clients*wantRaces)
	}
}

// TestDaemonDrainMidStream starts a stream, never finishes it, and calls
// Shutdown while the connection is open. The daemon must cut the read,
// analyze everything already flushed, write a complete final report, and
// still acknowledge the session with a summary marked unclean.
func TestDaemonDrainMidStream(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	var report bytes.Buffer
	d, done := testDaemon(t, &report)

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the frames but send no end-of-stream; hold the socket open so
	// the daemon's reader is blocked mid-stream.
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Let the daemon ingest what was flushed, then drain.
	time.Sleep(500 * time.Millisecond)
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after drain: %v", err)
	}
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean {
		t.Fatal("drained session reported clean")
	}
	if sum.Error != "" {
		t.Fatalf("session error: %s", sum.Error)
	}
	if sum.Events != tr.Len() {
		t.Fatalf("drained session analyzed %d of %d flushed events", sum.Events, tr.Len())
	}
	if sum.Races != wantRaces {
		t.Fatalf("drained session found %d races, offline found %d", sum.Races, wantRaces)
	}
	if n := d.cfg.reporter.Count(); n != wantRaces {
		t.Fatalf("final report has %d records, want %d", n, wantRaces)
	}
}

// TestDaemonClientGoneMidFrame severs the connection in the middle of an
// events frame (inside the final frame's payload/CRC). The daemon must keep
// serving, analyze every fully delivered frame, and emit a non-clean summary
// with an explicit error for the cut session.
func TestDaemonClientGoneMidFrame(t *testing.T) {
	tr, _ := racyTrace(t)
	d, done := testDaemon(t, nil)

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = 128 // several frames, so some events land before the cut
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Drop the 8-byte end frame plus the tail of the last events frame: the
	// daemon sees a frame that starts but never finishes.
	if _, err := conn.Write(data[:len(data)-10]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after mid-frame cut: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean {
		t.Fatal("mid-frame cut reported clean")
	}
	if sum.Error == "" {
		t.Fatal("mid-frame cut carried no error")
	}
	if sum.Events == 0 || sum.Events >= tr.Len() {
		t.Fatalf("analyzed %d events, want partial (0 < n < %d)", sum.Events, tr.Len())
	}

	// The daemon is still healthy.
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	if sum, err = cl.Close(10 * time.Second); err != nil || sum.Error != "" {
		t.Fatalf("post-cut session failed: %v %q", err, sum.Error)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.failed.Load(); got != 1 {
		t.Fatalf("failed sessions = %d, want 1", got)
	}
}

// TestDaemonClientGoneMidVarint severs the connection one byte into a frame
// length varint — the nastiest cut point, since the decoder is mid-way
// through a multi-byte integer. The daemon must report the truncation and
// keep serving.
func TestDaemonClientGoneMidVarint(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	d, done := testDaemon(t, nil)

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf) // default frame size: one big first frame
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Layout: 5-byte header, then sync(2) + kind(1) + length uvarint. A
	// payload >= 128 bytes makes the varint multi-byte; byte 8 is its first
	// byte and must have the continuation bit set for the cut to land
	// mid-varint.
	if len(data) < 9 || data[8]&0x80 == 0 {
		t.Fatalf("first frame payload too small for a multi-byte length varint")
	}

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data[:9]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary after mid-varint cut: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Clean || sum.Error == "" {
		t.Fatalf("mid-varint cut summary = %+v, want unclean with error", sum)
	}
	if sum.Events != 0 {
		t.Fatalf("analyzed %d events from a headerless cut, want 0", sum.Events)
	}

	// The daemon is still healthy.
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err = cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Races != wantRaces {
		t.Fatalf("post-cut session found %d races, want %d", sum.Races, wantRaces)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDaemonRejectsGarbage: a client speaking the wrong protocol gets an
// error summary, and the daemon survives to serve the next session.
func TestDaemonRejectsGarbage(t *testing.T) {
	d, done := testDaemon(t, nil)

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no summary: %v", err)
	}
	conn.Close()
	var sum wire.Summary
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("bad summary %q: %v", line, err)
	}
	if sum.Error == "" {
		t.Fatal("garbage stream accepted without error")
	}

	// The daemon is still healthy.
	tr, wantRaces := racyTrace(t)
	cl, err := wire.Dial(d.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err = cl.Close(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Races != wantRaces {
		t.Fatalf("post-garbage session found %d races, want %d", sum.Races, wantRaces)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.failed.Load(); got != 1 {
		t.Fatalf("failed sessions = %d, want 1", got)
	}
}
