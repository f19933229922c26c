package main

import (
	"os"
	"sync"
	"time"
)

// reportPendingCap bounds the bytes queued for the report file. A producer
// whose record would push the pending batch past it waits for the flusher,
// so a stuck reader still pushes back on the detecting sessions instead of
// letting the daemon buffer without limit.
const reportPendingCap = 256 << 10

// reportSink is the group-commit writer under the daemon's JSONL
// ReportWriter (DESIGN.md §8). Write only appends to a pending batch; one
// flusher goroutine swaps batches and writes each in a single write(2)
// under the write timeout. Appends happen under the ReportWriter's lock,
// so file order is still seq order. The first write error is sticky:
// every later Write and Flush returns it and blocked producers wake up.
type reportSink struct {
	f       *os.File
	timeout time.Duration

	mu      sync.Mutex
	cond    sync.Cond // broadcast when a batch is taken, done, or fails
	pending []byte
	queued  uint64 // bytes ever appended
	written uint64 // bytes ever handed to the flusher and finished with
	err     error
	closed  bool

	wake chan struct{} // capacity 1: pending may be non-empty
	stop chan struct{} // closed by Close
	done chan struct{} // closed when the flusher has exited
}

// newReportSink starts the flusher for f. Close stops it.
func newReportSink(f *os.File, timeout time.Duration) *reportSink {
	s := &reportSink{
		f:       f,
		timeout: timeout,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.cond.L = &s.mu
	go s.flusher()
	return s
}

// Write queues p for the next batch, blocking while the pending batch is
// at its cap. p is copied; the caller may reuse it.
func (s *reportSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && !s.closed && len(s.pending) > 0 && len(s.pending)+len(p) > reportPendingCap {
		s.cond.Wait()
	}
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, os.ErrClosed
	}
	s.pending = append(s.pending, p...)
	s.queued += uint64(len(p))
	select {
	case s.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return len(p), nil
}

// Flush is the report barrier: it returns once every byte written before
// the call is in the file, or the sticky error. A nil sink (no -report)
// has nothing pending.
func (s *reportSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for target := s.queued; s.err == nil && s.written < target; {
		s.cond.Wait()
	}
	return s.err
}

// Close writes what is pending, stops the flusher, and returns the sticky
// error. Later Writes fail with os.ErrClosed.
func (s *reportSink) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// flusher swaps out the pending batch and writes it whole, until Close.
func (s *reportSink) flusher() {
	defer close(s.done)
	var batch []byte
	for {
		select {
		case <-s.wake:
		case <-s.stop:
			s.commit(&batch)
			return
		}
		s.commit(&batch)
	}
}

// commit writes out the current pending batch, reusing *batch (the
// previous batch's buffer) as the next pending buffer.
func (s *reportSink) commit(batch *[]byte) {
	s.mu.Lock()
	*batch, s.pending = s.pending, (*batch)[:0]
	failed := s.err != nil
	if len(*batch) > 0 {
		s.cond.Broadcast() // producers waiting at the cap can fill the fresh buffer
	}
	s.mu.Unlock()
	if len(*batch) == 0 {
		return
	}
	var err error
	if !failed {
		if s.timeout > 0 {
			// Regular files reject deadlines (os.ErrNoDeadline) and are
			// written as-is; pipes and sockets, where a stuck reader could
			// otherwise wedge every session's reporting, honor it.
			_ = s.f.SetWriteDeadline(time.Now().Add(s.timeout))
		}
		_, err = s.f.Write(*batch)
	}
	s.mu.Lock()
	s.written += uint64(len(*batch))
	if err != nil && s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}
