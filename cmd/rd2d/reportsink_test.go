package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// within fails the test if f does not return in d (a hang, not a slow host).
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestReportSinkFlushBarrier: after Flush returns, every byte written
// before it is in the file, whatever the producers' interleaving.
func TestReportSinkFlushBarrier(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "report.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := newReportSink(f, time.Second)
	defer s.Close()
	rec := []byte(strings.Repeat("r", 399) + "\n")
	total := 0
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					if _, err := s.Write(rec); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		total += 4 * 40 * len(rec)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(total) {
			t.Fatalf("round %d: Flush returned with %d of %d bytes in the file", round, st.Size(), total)
		}
	}
}

// TestReportSinkStuckReader: a reader that stops reading must not wedge
// the daemon. A producer blocked at the pending cap is released when the
// write fails — because the reader closed (EPIPE) or because the write
// timeout expired — and the error is sticky for every later Write and
// Flush.
func TestReportSinkStuckReader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		close   bool // close the reader once the producer is blocked
		want    error
	}{
		{"reader closed", 0, true, syscall.EPIPE},
		{"reader stalled", 50 * time.Millisecond, false, os.ErrDeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			defer w.Close()
			s := newReportSink(w, tc.timeout)
			defer s.Close()

			rec := []byte(strings.Repeat("r", 999) + "\n")
			blocked := make(chan error, 1)
			go func() {
				for {
					if _, err := s.Write(rec); err != nil {
						blocked <- err
						return
					}
				}
			}()
			// Wait until the pipe is full, the flusher is stuck in its
			// write, and the producer waits at the cap.
			for {
				s.mu.Lock()
				atCap := len(s.pending)+len(rec) > reportPendingCap
				s.mu.Unlock()
				if atCap {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if tc.close {
				r.Close()
			}
			var got error
			within(t, 10*time.Second, "blocked Write", func() { got = <-blocked })
			if !errors.Is(got, tc.want) {
				t.Fatalf("blocked Write returned %v, want %v", got, tc.want)
			}
			within(t, 10*time.Second, "Write and Flush after the failure", func() {
				if _, err := s.Write(rec); !errors.Is(err, tc.want) {
					t.Errorf("later Write returned %v, want sticky %v", err, tc.want)
				}
				if err := s.Flush(); !errors.Is(err, tc.want) {
					t.Errorf("Flush returned %v, want sticky %v", err, tc.want)
				}
			})
		})
	}
}

// rawRead reads whatever the pipe holds right now without waiting.
func rawRead(t *testing.T, r *os.File, buf []byte) int {
	t.Helper()
	rc, err := r.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var rerr error
	if err := rc.Read(func(fd uintptr) bool {
		n, rerr = syscall.Read(int(fd), buf)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if errors.Is(rerr, syscall.EAGAIN) {
		return 0
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return n
}

// fillPipe fills the pipe behind w with blank lines, so the next write
// blocks until the reader drains it.
func fillPipe(t *testing.T, w *os.File) {
	t.Helper()
	wc, err := w.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	blank := bytes.Repeat([]byte{'\n'}, 4096)
	if err := wc.Write(func(fd uintptr) bool {
		for {
			if _, err := syscall.Write(int(fd), blank); err != nil {
				return true // EAGAIN: full
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReportBeforeSummary: with -report on a pipe, a session's records
// are in the pipe before its summary reaches the client. The pipe starts
// full, so the session's records cannot go out until the test reads;
// the summary must wait for them rather than overtake them.
func TestReportBeforeSummary(t *testing.T) {
	tr, _ := racyTrace(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillPipe(t, w)
	sink := newReportSink(w, 10*time.Second)
	defer sink.Close()
	defer r.Close() // first, so a failed test never leaves the flusher stuck on the full pipe
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.reportSink = sink
		c.reporter = core.NewReportWriter(sink)
	})

	type result struct {
		sum wire.Summary
		err error
	}
	summary := make(chan result, 1)
	go func() {
		cl, err := wire.Dial(d.Addr(), 2*time.Second)
		if err == nil {
			err = cl.SendSource(tr.Source())
		}
		var sum wire.Summary
		if err == nil {
			sum, err = cl.Close(20 * time.Second)
		}
		summary <- result{sum, err}
	}()

	// Let the session finish detecting; its summary must then be held
	// back by the full pipe.
	var s *session
	for s == nil {
		d.trackMu.Lock()
		s = d.tracked["conn-1"]
		d.trackMu.Unlock()
		time.Sleep(time.Millisecond)
	}
	<-s.done
	select {
	case res := <-summary:
		t.Fatalf("summary %+v reached the client while its records were stuck behind a full pipe", res.sum)
	case <-time.After(100 * time.Millisecond):
	}

	var got []byte
	buf := make([]byte, 64<<10)
	var res result
	for drained := false; !drained; {
		select {
		case res = <-summary:
			drained = true
		default:
			if n := rawRead(t, r, buf); n > 0 {
				got = append(got, buf[:n]...)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Everything already in the pipe when the summary arrived.
	for n := rawRead(t, r, buf); n > 0; n = rawRead(t, r, buf) {
		got = append(got, buf[:n]...)
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	records := bytes.Count(got, []byte(`{"session":"conn-1",`))
	if res.sum.Seq == 0 || uint64(records) != res.sum.Seq {
		t.Fatalf("%d records readable when the summary arrived, summary says %d", records, res.sum.Seq)
	}
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestReportFailureExitStatus runs the rd2d binary (this test binary,
// re-executed into run) with -report on a FIFO whose consumer has gone.
// rd2d opens the report read-write, so the FIFO keeps a reader and never
// raises EPIPE; a vanished consumer shows up as a full pipe and an
// expired -write-timeout instead. Sessions still get their summaries, and
// rd2d exits 2 with "report: ..." once it drains.
func TestReportFailureExitStatus(t *testing.T) {
	if args := os.Getenv("RD2D_TEST_MAIN"); args != "" {
		os.Exit(run(strings.Split(args, "\n")))
	}
	// Two unordered threads putting the same key: every put races, so
	// the records overflow the 64 KiB pipe many times.
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Fork(0, 2))
	for i := 0; i < 300; i++ {
		for _, tid := range []int{1, 2} {
			tr.Append(trace.Act(vclock.Tid(tid), trace.Action{Obj: 0, Method: "put",
				Args: []trace.Value{trace.StrValue("k"), trace.IntValue(int64(i))},
				Rets: []trace.Value{trace.NilValue}}))
		}
	}

	fifo := filepath.Join(t.TempDir(), "report.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestReportFailureExitStatus$")
	cmd.Env = append(os.Environ(), "RD2D_TEST_MAIN="+strings.Join([]string{
		"-listen", "127.0.0.1:0", "-report", fifo, "-write-timeout", "100ms", "-q",
	}, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The consumer attaches and goes away before any record is written.
	if rf, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil {
		rf.Close()
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var addr string
	var stderrLog []string
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("rd2d exited before listening:\n%s", strings.Join(stderrLog, "\n"))
			}
			stderrLog = append(stderrLog, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ = strings.Cut(rest, " ")
			}
		case <-time.After(20 * time.Second):
			t.Fatal("rd2d did not start listening")
		}
	}

	cl, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Close(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Races < 300 {
		t.Fatalf("summary %+v: want at least 300 races", sum)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		stderrLog = append(stderrLog, line)
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("rd2d exit: %v, want status 2\n%s", err, strings.Join(stderrLog, "\n"))
	}
	if out := strings.Join(stderrLog, "\n"); !strings.Contains(out, "rd2d: report: ") {
		t.Fatalf("rd2d log lacks the report error:\n%s", out)
	}
}
