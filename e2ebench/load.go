package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// base anchors the monotonic nanosecond clock shared by the client
// goroutines and the report reader.
var base = time.Now()

func nanotime() int64 { return int64(time.Since(base)) }

// sessionRun is one client session: its timing, its summary, and the race
// records the report reader attributed to it.
type sessionRun struct {
	name       string         // the daemon's session name: "conn-N" or the resumable sid
	chunkStart []atomic.Int64 // write start of each chunk (nanotime)
	dur        time.Duration  // dial to summary
	end        int64          // nanotime when the summary arrived
	cpu        time.Duration  // daemon CPU time when the summary arrived
	sum        wire.Summary
	err        error

	// Written by the report reader only.
	keys      []raceKey
	verdictMs []float64 // per race record: arrival minus its chunk's write start
}

// loadResult is what one measured pass of a workload produced.
type loadResult struct {
	sessions []*sessionRun
	start    int64         // nanotime of the first dial
	cpu0     time.Duration // daemon CPU time at the first dial
	wall     time.Duration // first dial to last summary
	events   int           // events covered by final summaries
	stray    int           // race records no session of this pass claims
	cut      bool          // the time limit stopped the pass before its quota
	readErr  error
}

// reportReader attributes JSONL race records to sessions as they arrive
// on the report FIFO, timestamping each line.
type reportReader struct {
	in   *input
	mu   sync.Mutex
	byID map[string]*sessionRun
	res  *loadResult
	done chan struct{}
}

func newReportReader(r io.Reader, in *input, res *loadResult) *reportReader {
	rr := &reportReader{in: in, byID: map[string]*sessionRun{}, res: res, done: make(chan struct{})}
	go rr.run(r)
	return rr
}

func (rr *reportReader) add(s *sessionRun) {
	rr.mu.Lock()
	rr.byID[s.name] = s
	rr.mu.Unlock()
}

func (rr *reportReader) run(r io.Reader) {
	defer close(rr.done)
	br := bufio.NewReaderSize(r, 1<<20)
	var last *sessionRun
	for {
		line, err := br.ReadSlice('\n')
		now := nanotime()
		if err == bufio.ErrBufferFull {
			rest, err2 := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), err2
		}
		if len(line) > 0 && err == nil {
			rr.line(line, now, &last)
		}
		if err != nil {
			if err != io.EOF {
				rr.res.readErr = err
			}
			return
		}
	}
}

func (rr *reportReader) line(line []byte, now int64, last **sessionRun) {
	rl, ok, err := scanRace(line)
	if err != nil {
		rr.res.stray++
		return
	}
	if !ok {
		return
	}
	s := *last
	if s == nil || s.name != rl.session {
		rr.mu.Lock()
		s = rr.byID[rl.session]
		rr.mu.Unlock()
		if s == nil {
			rr.res.stray++
			return
		}
		*last = s
	}
	s.keys = append(s.keys, rl.key)
	if ci := rr.in.chunkOf(rl.key.second); ci < len(s.chunkStart) {
		if t := s.chunkStart[ci].Load(); t > 0 {
			s.verdictMs = append(s.verdictMs, float64(now-t)/1e6)
		}
	}
}

// runLoad drives the workload's closed loop against d: each of w.conns
// connections runs its w.sessions(seconds) sessions back to back, but
// starts none after twice seconds have passed, so that a run on a host
// much slower than the one the work was sized on still ends in time. It
// returns after the daemon has been stopped and its report read to the
// end; stop is called in between.
func runLoad(d *daemonProc, w workload, in *input, seconds float64, stop func() error) (*loadResult, error) {
	res := &loadResult{}
	rr := newReportReader(d.report, in, res)
	quota := w.sessions(seconds)
	cutoff := int64(2 * seconds * 1e9)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var lastEnd int64
	var cpuErr error
	res.start = nanotime()
	res.cpu0, cpuErr = d.cpuTime()
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < quota; n++ {
				if n > 0 && nanotime()-res.start > cutoff {
					mu.Lock()
					res.cut = true
					mu.Unlock()
					return
				}
				s := &sessionRun{chunkStart: make([]atomic.Int64, len(in.chunks))}
				mu.Lock()
				if w.durable {
					s.name = fmt.Sprintf("c%d-s%d", c, n)
				} else {
					// Plain sessions are named by the daemon's session
					// ordinal; a plain workload runs one connection, so
					// ordinals follow the client's order.
					s.name = fmt.Sprintf("conn-%d", len(res.sessions)+1)
				}
				res.sessions = append(res.sessions, s)
				mu.Unlock()
				rr.add(s)
				t0 := nanotime()
				if w.durable {
					s.err = runResumable(d.addr, s, in, fmt.Sprintf("tenant-%d", c))
				} else {
					s.err = runPlain(d.addr, s, in)
				}
				t1 := nanotime()
				s.dur = time.Duration(t1 - t0)
				mu.Lock()
				s.end = t1
				if cpu, err := d.cpuTime(); err != nil {
					cpuErr = err
				} else {
					s.cpu = cpu
				}
				if t1 > lastEnd {
					lastEnd = t1
				}
				if s.err == nil {
					res.events += s.sum.Events
				}
				mu.Unlock()
				if s.err != nil {
					return // a broken connection loop would spin
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Duration(lastEnd - res.start)
	defer d.release()
	if err := stop(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, fmt.Errorf("reading rd2d CPU time: %w", cpuErr)
	}
	select {
	case <-rr.done:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("report FIFO not closed 30s after rd2d exited")
	}
	return res, nil
}

const ioTimeout = 120 * time.Second

// runPlain streams the pre-encoded plain stream on one connection,
// half-closes, and reads the one-line summary.
func runPlain(addr string, s *sessionRun, in *input) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if err := writeChunks(conn, s, in); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading summary: %w", err)
	}
	return json.Unmarshal(line, &s.sum)
}

// runResumable streams one resumable session: its own header and hello,
// then the shared pre-encoded chunks. Acks are read concurrently so the
// daemon's return path never fills up.
func runResumable(addr string, s *sessionRun, in *input, tenant string) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	type reply struct {
		sum wire.Summary
		err error
	}
	replies := make(chan reply, 1)
	go func() {
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				replies <- reply{err: fmt.Errorf("reading summary: %w", err)}
				return
			}
			if bytes.HasPrefix(line, []byte(`{"ack":`)) {
				continue
			}
			var r reply
			r.err = json.Unmarshal(line, &r.sum)
			replies <- r
			return
		}
	}()
	err = writeSession(conn, s, in, tenant)
	if err != nil {
		conn.Close() // ends the reader
	}
	r := <-replies
	if err != nil {
		return err
	}
	s.sum = r.sum
	return r.err
}

func writeSession(conn net.Conn, s *sessionRun, in *input, tenant string) error {
	if _, err := conn.Write(sessionHeader(s.name, tenant)); err != nil {
		return err
	}
	if err := writeChunks(conn, s, in); err != nil {
		return err
	}
	return conn.(*net.TCPConn).CloseWrite()
}

func writeChunks(conn net.Conn, s *sessionRun, in *input) error {
	off := 0
	for i, c := range in.chunks {
		s.chunkStart[i].Store(nanotime())
		if _, err := conn.Write(in.stream[off:c.end]); err != nil {
			return fmt.Errorf("writing chunk %d: %w", i, err)
		}
		off = c.end
	}
	return nil
}

// check compares one session against the offline reference: the summary
// race count, the JSONL record count, and the race set.
func (s *sessionRun) check(in *input) error {
	switch {
	case s.err != nil:
		return s.err
	case s.sum.Busy:
		return fmt.Errorf("busy")
	case s.sum.Error != "":
		return fmt.Errorf("summary error: %s", s.sum.Error)
	case s.sum.Degraded:
		return fmt.Errorf("degraded")
	case !s.sum.Clean:
		return fmt.Errorf("unclean end")
	case in.resumable && s.sum.SessionID != s.name:
		return fmt.Errorf("summary for session %q", s.sum.SessionID)
	case s.sum.Events != in.events:
		return fmt.Errorf("summary events %d, sent %d", s.sum.Events, in.events)
	case s.sum.Races != len(in.ref):
		return fmt.Errorf("summary races %d, reference %d", s.sum.Races, len(in.ref))
	case len(s.keys) != len(in.ref):
		return fmt.Errorf("%d JSONL records, reference %d", len(s.keys), len(in.ref))
	}
	sortKeys(s.keys)
	if !slices.Equal(s.keys, in.ref) {
		return fmt.Errorf("JSONL race set differs from the reference")
	}
	return nil
}

// verify checks every session and returns the number that failed, with
// the distinct failure reasons.
func (res *loadResult) verify(in *input) (failed int, reasons []string) {
	seen := map[string]bool{}
	for _, s := range res.sessions {
		if err := s.check(in); err != nil {
			failed++
			msg := err.Error()
			if !seen[msg] {
				seen[msg] = true
				reasons = append(reasons, fmt.Sprintf("session %s: %s", s.name, msg))
			}
		}
	}
	if res.stray > 0 {
		reasons = append(reasons, fmt.Sprintf("%d race records attributed to no session", res.stray))
	}
	if res.readErr != nil {
		reasons = append(reasons, "report read: "+res.readErr.Error())
	}
	return failed, reasons
}

// minWindowVerdicts is the least number of race records a measurement
// window holds, so that its 99th percentile has ten records beyond it.
const minWindowVerdicts = 1000

// window is a run of consecutive session completions that the rate, CPU
// and verdict latency metrics are computed over; each metric's value is
// its interquartile mean over a pass's windows, so that a burst of host
// noise that hits a few windows drops out.
type window struct {
	sessions  int
	events    int
	wall      time.Duration // previous window's last summary (or the first dial) to this one's
	cpu       time.Duration // daemon CPU time over the same span
	verdictMs []float64
}

// windows groups the pass's sessions, in completion order, into windows
// of at least w.conns sessions (so that with several connections each
// window spans work from all of them) and minWindowVerdicts race records
// where the workload races that much. A short remainder joins the last
// window.
func (res *loadResult) windows(w workload) []window {
	ss := slices.Clone(res.sessions)
	slices.SortFunc(ss, func(a, b *sessionRun) int { return cmp.Compare(a.end, b.end) })
	var out []window
	var cur window
	prevEnd, prevCPU := res.start, res.cpu0
	for i, s := range ss {
		cur.sessions++
		if s.err == nil {
			cur.events += s.sum.Events
		}
		cur.verdictMs = append(cur.verdictMs, s.verdictMs...)
		full := cur.sessions >= w.conns && len(cur.verdictMs) >= minWindowVerdicts
		if !full && i < len(ss)-1 {
			continue
		}
		cur.wall = time.Duration(s.end - prevEnd)
		cur.cpu = s.cpu - prevCPU
		if !full && len(out) > 0 {
			last := &out[len(out)-1]
			last.sessions += cur.sessions
			last.events += cur.events
			last.wall += cur.wall
			last.cpu += cur.cpu
			last.verdictMs = append(last.verdictMs, cur.verdictMs...)
		} else {
			out = append(out, cur)
		}
		cur = window{}
		prevEnd, prevCPU = s.end, s.cpu
	}
	return out
}
