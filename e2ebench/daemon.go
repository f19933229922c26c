package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// daemonProc is one rd2d process started by the benchmark. Its JSONL
// report goes to a FIFO the benchmark reads as it is written.
type daemonProc struct {
	cmd      *exec.Cmd
	dir      string // per-process scratch: report FIFO and state directory
	fifo     string
	addr     string
	httpAddr string
	setup    time.Duration // exec until the daemon serves (its "listening on" line)
	report   *os.File      // read end of the report FIFO

	mu   sync.Mutex
	tail []string // last stderr lines, for error messages

	logDone chan struct{}
	exited  chan struct{}
	waitErr error
}

var daemonSeq int

// daemonArgs are the flags a workload passes to rd2d: only workload and
// deployment flags, so every tuning knob stays at its default. Durable
// sessions run with -fsync off: WAL appends and snapshots still happen,
// but on a shared virtual disk flush latency rather than rd2d set the pace
// (identical -fsync always runs measured 243K to 447K events/s).
func daemonArgs(w workload, dir string, http bool) []string {
	args := []string{"-listen", "127.0.0.1:0", "-report", filepath.Join(dir, "report.fifo")}
	if w.durable {
		args = append(args, "-fleet", "-statedir", filepath.Join(dir, "state"), "-fsync", "off")
	}
	if http {
		args = append(args, "-http", "127.0.0.1:0")
	}
	return args
}

// startDaemon execs rd2d for w and waits until it serves.
func startDaemon(bin, workdir string, w workload, http bool) (*daemonProc, error) {
	daemonSeq++
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d-%d", os.Getpid(), daemonSeq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemonProc{dir: dir, fifo: filepath.Join(dir, "report.fifo"),
		logDone: make(chan struct{}), exited: make(chan struct{})}
	if err := syscall.Mkfifo(d.fifo, 0o600); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("mkfifo: %w", err)
	}
	d.cmd = exec.Command(bin, daemonArgs(w, dir, http)...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start rd2d: %w", err)
	}
	go d.readLog(stderr, ready, start)
	go func() {
		<-d.logDone
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	fail := func(err error) (*daemonProc, error) {
		d.kill()
		return nil, err
	}

	// With -statedir the daemon first reads the whole report to recover
	// per-session sequence numbers: give it an empty one by opening and
	// closing the write side once its read side is open.
	if w.durable {
		for {
			f, err := os.OpenFile(d.fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0)
			if err == nil {
				f.Close()
				break
			}
			if !errors.Is(err, syscall.ENXIO) {
				return fail(err)
			}
			select {
			case <-d.exited:
				return fail(d.failure("rd2d exited during start-up"))
			case <-time.After(100 * time.Microsecond):
			}
			if time.Since(start) > 30*time.Second {
				return fail(d.failure("rd2d did not open its report"))
			}
		}
	}
	// The daemon's write open of the report blocks until a reader exists
	// (durable) or holds a read-write descriptor (plain), so opening the
	// read side without blocking never loses a record. Reads only start
	// once the daemon serves, when its writer is open.
	d.report, err = os.OpenFile(d.fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return fail(err)
	}
	// A report file never makes its writer wait; a FIFO does once its
	// buffer is full. The largest buffer an unprivileged process may set
	// keeps the daemon's report writes from waiting on this reader.
	if err := setPipeSize(d.report, pipeBuffer); err != nil {
		return fail(fmt.Errorf("report FIFO buffer: %w", err))
	}
	select {
	case <-ready:
	case <-d.exited:
		return fail(d.failure("rd2d exited during start-up"))
	case <-time.After(30 * time.Second):
		return fail(d.failure("rd2d not serving after 30s"))
	}
	return d, nil
}

// readLog drains the daemon's stderr, picking up the bound addresses.
func (d *daemonProc) readLog(r io.Reader, ready chan struct{}, start time.Time) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	served := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if len(d.tail) == 20 {
			d.tail = d.tail[1:]
		}
		d.tail = append(d.tail, line)
		d.mu.Unlock()
		if served {
			continue
		}
		if _, rest, ok := strings.Cut(line, "metrics on http://"); ok {
			d.httpAddr, _, _ = strings.Cut(rest, "/")
		}
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
			d.setup = time.Since(start)
			served = true
			close(ready)
		}
	}
}

func (d *daemonProc) failure(msg string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Errorf("%s; rd2d stderr:\n  %s", msg, strings.Join(d.tail, "\n  "))
}

// pipeBuffer is the report FIFO's buffer size (Linux's default
// /proc/sys/fs/pipe-max-size).
const pipeBuffer = 1 << 20

// setPipeSize sets the buffer size of the pipe f reads from.
func setPipeSize(f *os.File, size int) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if _, _, e := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETPIPE_SZ, uintptr(size)); e != 0 {
			serr = e
		}
	})
	if err != nil {
		return err
	}
	return serr
}

// cpuTime reads the daemon's CPU time so far (user plus system, all
// threads) from its process CPU clock, at nanosecond resolution.
func (d *daemonProc) cpuTime() (time.Duration, error) {
	// The clock id clock_getcpuclockid(3) returns for pid: CPUCLOCK_SCHED
	// of the whole process.
	clk := (^int64(d.cmd.Process.Pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// rssPeakMB reads the daemon's VmHWM.
func (d *daemonProc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM and waits for it. rd2d exits 1
// when it found races, which every workload does. The report FIFO stays
// open for its reader: call release once the reader is done.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return d.failure("rd2d did not drain within 60s")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 && code != 1 {
		return d.failure(fmt.Sprintf("rd2d failed: %v", d.waitErr))
	}
	return nil
}

// release closes the report FIFO and removes the daemon's scratch
// directory; the daemon must have exited.
func (d *daemonProc) release() {
	if d.report != nil {
		d.report.Close()
	}
	os.RemoveAll(d.dir)
}

// kill ends the daemon without a drain, waits for it, and releases it
// (error paths).
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.release()
}
