package main

// Connection-loss classification: every error a connection read can end
// with must map to exactly one outcome — park (the client may resume) or
// finalize (resuming would replay the same bad bytes).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

func TestConnLost(t *testing.T) {
	opErr := func(op string, err error) error {
		return &net.OpError{Op: op, Net: "tcp", Err: err}
	}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof at frame boundary", io.EOF, true},
		{"truncated mid-frame", fmt.Errorf("%w: frame payload: unexpected EOF", wire.ErrTruncated), true},
		{"read timeout", opErr("read", os.ErrDeadlineExceeded), true},
		{"connection reset", opErr("read", os.NewSyscallError("read", syscall.ECONNRESET)), true},
		{"broken pipe", opErr("write", os.NewSyscallError("write", syscall.EPIPE)), true},
		{"closed socket", opErr("read", net.ErrClosed), true},
		{"crc mismatch", fmt.Errorf("%w: got 1 want 2", wire.ErrCRC), false},
		{"lost frame sync", fmt.Errorf("%w: got 00 00", wire.ErrSync), false},
		{"other read error", opErr("read", os.NewSyscallError("read", syscall.EIO)), false},
		{"decode error", errors.New("wire: unknown event kind 99"), false},
	} {
		if got := connLost(tc.err); got != tc.want {
			t.Errorf("%s: connLost(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestDaemonParksOnPeerReset: a client writes a stream prefix, waits until
// the daemon has acked all of it, then aborts the connection with an RST
// (SO_LINGER 0). The daemon's blocked read returns ECONNRESET, which must
// park the session like any other lost connection, and a fresh connection
// must resume it to the full verdict. The reset lands either at a frame
// boundary or just after the next frame's kind byte, while the decoder
// waits for the frame-length varint.
func TestDaemonParksOnPeerReset(t *testing.T) {
	tr, wantRaces := racyTrace(t)
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = 96
	if err := enc.SetSession("rst"); err != nil {
		t.Fatal(err)
	}
	var ends []int // stream offset after each chunk
	var seqs []uint64
	enc.OnFrame = func(seq uint64, frame []byte) error {
		seqs = append(seqs, seq)
		ends = append(ends, buf.Len()+len(frame))
		return nil
	}
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(ends) < 3 {
		t.Fatalf("trace encodes to %d chunks, need >= 3", len(ends))
	}

	for _, tc := range []struct {
		name  string
		extra int // bytes of the next frame sent before the reset
	}{
		{"frame boundary", 0},
		{"frame length varint", 3}, // sync marker and kind byte
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sid = "rst"
			d, done := testDaemonCfg(t, nil, func(c *daemonConfig) { c.idleTimeout = time.Minute })
			conn, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(buf.Bytes()[:ends[1]+tc.extra]); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			sc := bufio.NewScanner(conn)
			for acked := false; !acked; {
				if !sc.Scan() {
					t.Fatalf("no ack for chunk %d: %v", seqs[1], sc.Err())
				}
				var ack struct{ Ack *uint64 }
				if err := json.Unmarshal(sc.Bytes(), &ack); err != nil || ack.Ack == nil {
					t.Fatalf("unexpected line before ack: %s", sc.Bytes())
				}
				acked = *ack.Ack == seqs[1]
			}
			conn.(*net.TCPConn).SetLinger(0)
			conn.Close()

			deadline := time.Now().Add(10 * time.Second)
			for {
				d.mu.Lock()
				s := d.sessions[sid]
				d.mu.Unlock()
				s.mu.Lock()
				state := s.state
				s.mu.Unlock()
				if state == stateParked {
					break
				}
				if state == stateCompleted {
					t.Fatalf("peer reset finalized the session instead of parking it: %+v", s.waitSummary())
				}
				if time.Now().After(deadline) {
					t.Fatal("session never parked")
				}
				time.Sleep(5 * time.Millisecond)
			}

			rc, err := wire.DialSession(d.Addr(), sid, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			rc.SetFrameSize(96)
			if err := rc.SendSource(tr.Source()); err != nil {
				t.Fatal(err)
			}
			sum, err := rc.Close(15 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Error != "" || !sum.Clean || sum.Events != tr.Len() || sum.Races != wantRaces || sum.Resumes != 1 {
				t.Fatalf("summary %+v, want clean, %d events, %d races, 1 resume", sum, tr.Len(), wantRaces)
			}
			d.Shutdown()
			if err := <-done; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// writeFailConn serves a complete stream and fails every write, like a
// client that vanished before its verdict. Only the methods the daemon's
// connection path calls are implemented.
type writeFailConn struct {
	net.Conn
	r io.Reader
}

func (c *writeFailConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *writeFailConn) Write([]byte) (int, error)        { return 0, syscall.EPIPE }
func (c *writeFailConn) Close() error                     { return nil }
func (c *writeFailConn) SetReadDeadline(time.Time) error  { return nil }
func (c *writeFailConn) SetWriteDeadline(time.Time) error { return nil }
func (c *writeFailConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }

// lockedWriter serializes log output written from daemon goroutines.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSummaryWriteErrors: a summary or busy-reject line that cannot be
// written is logged (on the session, when there is one) and counted in
// rd2d.summary_write_errors instead of vanishing.
func TestSummaryWriteErrors(t *testing.T) {
	obs.SetEnabled(true)
	tr, _ := racyTrace(t)
	var stream bytes.Buffer
	enc := wire.NewEncoder(&stream)
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	var logs lockedWriter
	reg := obs.NewRegistry()
	d, done := testDaemonCfg(t, nil, func(c *daemonConfig) {
		c.obsRoot = reg
		c.logger = log.New(&logs, "", 0)
	})
	errs := reg.Counter("rd2d.summary_write_errors")

	d.handle(&writeFailConn{r: &stream})
	if n := errs.Load(); n != 1 {
		t.Fatalf("after a failed summary: %d write errors counted, want 1", n)
	}
	if !strings.Contains(logs.String(), "session 1: summary write: broken pipe") {
		t.Fatalf("failed summary not logged on the session:\n%s", logs.String())
	}

	d.rejectBusy(&writeFailConn{r: strings.NewReader("")}, "sid", "t", errors.New("over quota"))
	if n := errs.Load(); n != 2 {
		t.Fatalf("after a failed busy reject: %d write errors counted, want 2", n)
	}

	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
