package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// errCorrupt classifies decode failures that corruption resync can recover
// from (vs. IO-level truncation, which only more bytes could fix).
var errCorrupt = errors.New("wire: corrupt frame")

// errAgain is an internal sentinel: readFrame consumed a non-event frame
// (hello, empty, duplicate chunk) or entered a resync scan; call it again.
var errAgain = errors.New("wire: internal again")

// Decoder streams events out of an RDB2 binary stream. It implements
// trace.Source: Next yields one event at a time and returns io.EOF after
// the end-of-stream frame (or a clean underlying EOF at a frame boundary).
// Memory is bounded by one frame plus the interning table; the whole trace
// is never materialized. All failure modes — truncation, CRC mismatch,
// unknown tags, over-limit lengths — surface as errors, never panics.
//
// With SetResync(true), corrupt frames are skipped instead (see the
// package comment); with a resuming client on the other end, seq'd chunks
// are deduplicated and acknowledged through OnChunk.
type Decoder struct {
	r       *bufio.Reader
	ob      *wireObs
	version byte
	frame   []byte   // current frame payload
	pos     int      // read position within frame
	intern  []string // 1-based string table (index id-1)
	seq     int
	frames  int
	clean   bool // end-of-stream frame seen
	err     error
	tuple   []trace.Value // readTuples' argument staging

	// Corruption resync state.
	resync        bool
	scanning      bool
	skippedBytes  int64
	skippedFrames int
	resyncs       int

	// Resumable session state.
	sid         string
	tenant      string
	expectChunk uint64 // next expected chunk sequence number
	seenChunk   bool   // at least one seq'd chunk accepted
	dups        int

	// OnChunk, when set, is invoked with the highest contiguous chunk
	// sequence number accepted so far, each time a seq'd events frame is
	// accepted or a duplicate is skipped — the daemon's ack hook. Called
	// from within Next.
	OnChunk func(acked uint64)

	// OnFrameAccepted, when set, is invoked with each events frame's kind
	// and payload after the frame passes its CRC and before it is
	// dispatched — in particular before a seq'd chunk is deduplicated or
	// acknowledged through OnChunk. A WAL hook that appends the frame here
	// therefore makes every acknowledged chunk durable first; duplicates
	// are logged too, and replay drops them exactly as the live stream
	// did. The payload slice is only valid for the duration of the call.
	// A non-nil error fails the decode (sticky, no resync).
	OnFrameAccepted func(kind byte, payload []byte) error
}

// NewDecoder reads and verifies the stream header and returns a streaming
// decoder for the events that follow.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReaderSize(r, ResyncWindow), ob: defaultWireObs}
	var hdr [len(Magic) + 1]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if !Sniff(hdr[:len(Magic)]) {
		return nil, fmt.Errorf("wire: bad magic %q (not an RDB2 stream)", hdr[:len(Magic)])
	}
	v := hdr[len(Magic)]
	if v < MinVersion || v > Version {
		return nil, fmt.Errorf("wire: unsupported version %d (want %d..%d)", v, MinVersion, Version)
	}
	d.version = v
	return d, nil
}

// SetResync enables (or disables) corruption resync: on a corrupt frame
// the decoder scans forward to the next verifiable frame instead of
// failing. Only effective on version 2 streams (version 1 frames carry no
// sync marker).
func (d *Decoder) SetResync(on bool) { d.resync = on }

// SetObs points the decoder's resync/dedup metrics at reg (an rd2d session
// scope, say); nil restores the process-global set. Call before Next.
func (d *Decoder) SetObs(reg *obs.Registry) {
	if reg == nil {
		d.ob = defaultWireObs
		return
	}
	d.ob = newWireObs(reg)
}

// Clean reports whether an explicit end-of-stream frame terminated the
// stream (false while decoding, and after a bare EOF at a frame boundary).
func (d *Decoder) Clean() bool { return d.clean }

// Events returns the number of events decoded so far.
func (d *Decoder) Events() int { return d.seq }

// Frames returns the number of frames read so far (including the
// end-of-stream frame).
func (d *Decoder) Frames() int { return d.frames }

// SessionID returns the session id from the stream's hello frame, or ""
// for a plain (non-resumable) stream.
func (d *Decoder) SessionID() string { return d.sid }

// Tenant returns the tenant id from the stream's hello frame (version 3),
// or "" when none was declared (the daemon's default tenant).
func (d *Decoder) Tenant() string { return d.tenant }

// SkippedBytes returns the bytes discarded by corruption resync scans.
func (d *Decoder) SkippedBytes() int64 { return d.skippedBytes }

// SkippedFrames returns the number of frames known to be lost: resync
// episodes, CRC-valid but undecodable frames dropped, and chunk-sequence
// gaps observed after a resync.
func (d *Decoder) SkippedFrames() int { return d.skippedFrames }

// Resyncs returns the number of corruption resync scans entered.
func (d *Decoder) Resyncs() int { return d.resyncs }

// DupChunks returns the number of duplicate chunks skipped (a resuming
// client replaying already-received data — protocol-normal, not loss).
func (d *Decoder) DupChunks() int { return d.dups }

// Degraded reports whether the decoded event stream is known to be
// incomplete: resync skipped bytes or dropped frames.
func (d *Decoder) Degraded() bool { return d.skippedBytes > 0 || d.skippedFrames > 0 }

// AckedChunk returns the highest contiguous chunk sequence number accepted
// and whether any chunk has been accepted at all.
func (d *Decoder) AckedChunk() (uint64, bool) {
	if d.expectChunk == 0 {
		return 0, false
	}
	return d.expectChunk - 1, true
}

// AdoptState transplants the cross-connection stream state — interning
// table, event sequence, chunk cursor, and degradation counters — from the
// decoder of a previous connection of the same resumable session. The
// receiving decoder must be freshly constructed (header read, no events
// consumed); the previous decoder must not be used afterwards.
func (d *Decoder) AdoptState(prev *Decoder) {
	d.intern = prev.intern
	d.seq = prev.seq
	d.frames += prev.frames
	d.expectChunk = prev.expectChunk
	d.seenChunk = prev.seenChunk
	d.skippedBytes += prev.skippedBytes
	d.skippedFrames += prev.skippedFrames
	d.resyncs += prev.resyncs
	d.dups += prev.dups
}

// fail records and returns a sticky error.
func (d *Decoder) fail(err error) error {
	d.err = err
	return err
}

// canResync reports whether err is a corruption (not an IO condition) that
// a forward scan can recover from on this stream.
func (d *Decoder) canResync(err error) bool {
	if !d.resync || d.version < 2 {
		return false
	}
	return errors.Is(err, ErrCRC) || errors.Is(err, ErrSync) ||
		errors.Is(err, ErrChunkGap) || errors.Is(err, errCorrupt)
}

// enterScan switches into resync scanning, accounting one lost frame.
func (d *Decoder) enterScan() {
	d.scanning = true
	d.resyncs++
	d.skippedFrames++
	d.ob.resyncs.Inc()
	d.ob.skippedFrames.Inc()
}

// discard consumes n bytes as resync junk.
func (d *Decoder) discard(n int) {
	d.r.Discard(n)
	d.skippedBytes += int64(n)
	d.ob.skippedBytes.Add(uint64(n))
}

// scan advances the reader to the next sync marker that begins a frame
// whose checksum verifies inside the lookahead window. Bytes passed over
// are counted as skipped. Returns io.EOF when the stream ends first.
func (d *Decoder) scan() error {
	for {
		pre, err := d.r.Peek(2)
		if len(pre) < 2 {
			// Tail too short for any frame: consume and end unclean.
			d.discard(len(pre))
			if err == nil || err == io.EOF {
				return io.EOF
			}
			return err
		}
		if pre[0] != sync0 || pre[1] != sync1 || !d.peekValidFrame() {
			d.discard(1)
			continue
		}
		return nil
	}
}

// peekValidFrame reports whether the bytes at the current read position
// (starting with a sync marker) form a complete frame with a valid
// checksum, verified entirely within the lookahead window.
func (d *Decoder) peekValidFrame() bool {
	buf, _ := d.r.Peek(ResyncWindow)
	if len(buf) < 2+1+1+4 {
		return false
	}
	kind := buf[2]
	if kind < frameEvents || kind > frameEventsSeq {
		return false
	}
	size, n := binary.Uvarint(buf[3:])
	if n <= 0 || size > MaxFrame {
		return false
	}
	total := 3 + n + int(size) + 4
	if total > len(buf) {
		return false // cannot verify inside the window: treat as junk
	}
	payload := buf[3+n : 3+n+int(size)]
	want := binary.LittleEndian.Uint32(buf[3+n+int(size):])
	return crc32.Checksum(payload, castagnoli) == want
}

// parseFrame reads one frame (sync marker, kind, length, payload, CRC)
// into d.frame and returns its kind. io.EOF is returned only for a clean
// EOF before any frame byte.
func (d *Decoder) parseFrame() (byte, error) {
	first, err := d.r.ReadByte()
	if err == io.EOF {
		return 0, io.EOF // frame-aligned end without an end frame
	}
	if err != nil {
		return 0, err
	}
	var kind byte
	if d.version >= 2 {
		second, err := d.r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: frame sync: %v", ErrTruncated, err)
		}
		if first != sync0 || second != sync1 {
			return 0, fmt.Errorf("%w: got %02x %02x", ErrSync, first, second)
		}
		if kind, err = d.r.ReadByte(); err != nil {
			return 0, fmt.Errorf("%w: frame kind: %v", ErrTruncated, err)
		}
	} else {
		kind = first
	}
	size, err := d.readFrameLen()
	if err != nil {
		if errors.Is(err, errCorrupt) {
			return 0, err
		}
		// The transport failed inside the varint (EOF, reset, timeout):
		// keep the cause matchable so the daemon can tell a lost
		// connection from corruption.
		return 0, fmt.Errorf("%w: frame length: %w", ErrTruncated, err)
	}
	if size > MaxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", errCorrupt, size)
	}
	if cap(d.frame) < int(size) {
		d.frame = make([]byte, size)
	}
	d.frame = d.frame[:size]
	if _, err := io.ReadFull(d.r, d.frame); err != nil {
		return 0, fmt.Errorf("%w: frame payload: %v", ErrTruncated, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(d.r, crc[:]); err != nil {
		return 0, fmt.Errorf("%w: frame CRC: %v", ErrTruncated, err)
	}
	want := binary.LittleEndian.Uint32(crc[:])
	if got := crc32.Checksum(d.frame, castagnoli); got != want {
		return 0, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	d.frames++
	return kind, nil
}

// readFrameLen reads a frame's length varint from the stream. It decodes
// like binary.ReadUvarint but keeps the two failure classes apart: an
// overflowing varint is errCorrupt, a reader error is returned as is
// (io.EOF after the first byte becomes io.ErrUnexpectedEOF).
func (d *Decoder) readFrameLen() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: frame length varint overflows 64 bits", errCorrupt)
}

// readFrame advances the stream by one frame. It returns nil when an
// events frame is loaded (d.frame/d.pos ready), errAgain when a non-event
// frame was consumed (call again), io.EOF at the end of the stream, and a
// sticky error otherwise.
func (d *Decoder) readFrame() error {
	if d.scanning {
		if err := d.scan(); err != nil {
			return d.fail(err)
		}
		d.scanning = false
	}
	kind, err := d.parseFrame()
	if err != nil {
		if err == io.EOF {
			return d.fail(io.EOF)
		}
		if d.canResync(err) {
			d.scanning = true
			d.resyncs++
			d.skippedFrames++
			d.ob.resyncs.Inc()
			d.ob.skippedFrames.Inc()
			return errAgain
		}
		return d.fail(err)
	}
	if (kind == frameEvents || kind == frameEventsSeq) && d.OnFrameAccepted != nil {
		if err := d.OnFrameAccepted(kind, d.frame); err != nil {
			return d.fail(err)
		}
	}
	switch kind {
	case frameEnd:
		d.clean = true
		return d.fail(io.EOF)
	case frameEvents:
		if len(d.frame) == 0 {
			return errAgain
		}
		d.pos = 0
		return nil
	case frameHello:
		err := d.parseHello()
		// Whatever the outcome, the hello frame is fully consumed: mark the
		// frame buffer drained so a caller leaving the read loop right after
		// (ReadHello) cannot misdecode the hello payload as events.
		d.frame = d.frame[:0]
		d.pos = 0
		if err != nil {
			if d.canResync(err) {
				d.scanning = true
				d.resyncs++
				d.skippedFrames++
				d.ob.resyncs.Inc()
				d.ob.skippedFrames.Inc()
				return errAgain
			}
			return d.fail(err)
		}
		return errAgain
	case frameEventsSeq:
		return d.acceptChunk()
	default:
		err := fmt.Errorf("%w: unknown frame kind 0x%02x", errCorrupt, kind)
		if d.canResync(err) {
			d.scanning = true
			d.resyncs++
			d.skippedFrames++
			d.ob.resyncs.Inc()
			d.ob.skippedFrames.Inc()
			return errAgain
		}
		return d.fail(err)
	}
}

// parseHello decodes a hello frame payload from d.frame: the session id,
// and in version 3 an optional trailing tenant id. Version 2 hellos are
// exactly `sidlen sid` with a non-empty sid; version 3 additionally allows
// `sidlen sid tidlen tid`, with an empty sid permitted only when a tenant
// follows (a tenant-declaring plain stream).
func (d *Decoder) parseHello() error {
	if d.version < 2 {
		return fmt.Errorf("%w: hello frame in version %d stream", errCorrupt, d.version)
	}
	n, w := binary.Uvarint(d.frame)
	if w <= 0 || n > MaxSessionID || w+int(n) > len(d.frame) {
		return fmt.Errorf("%w: malformed hello frame", errCorrupt)
	}
	rest := d.frame[w+int(n):]
	if len(rest) == 0 {
		if n == 0 {
			return fmt.Errorf("%w: malformed hello frame", errCorrupt)
		}
		d.sid = string(d.frame[w : w+int(n)])
		return nil
	}
	if d.version < 3 {
		return fmt.Errorf("%w: malformed hello frame", errCorrupt)
	}
	tn, tw := binary.Uvarint(rest)
	if tw <= 0 || tn == 0 || tn > MaxTenantID || int(tn) != len(rest)-tw {
		return fmt.Errorf("%w: malformed hello frame", errCorrupt)
	}
	if n > 0 {
		d.sid = string(d.frame[w : w+int(n)])
	}
	d.tenant = string(rest[tw : tw+int(tn)])
	return nil
}

// acceptChunk handles a seq'd events frame: deduplicate replays, detect
// gaps, position the payload, and fire the ack hook.
func (d *Decoder) acceptChunk() error {
	if d.version < 2 {
		return d.fail(fmt.Errorf("%w: seq'd frame in version %d stream", errCorrupt, d.version))
	}
	seq, w := binary.Uvarint(d.frame)
	if w <= 0 {
		err := fmt.Errorf("%w: bad chunk sequence", errCorrupt)
		if d.canResync(err) {
			d.scanning = true
			d.resyncs++
			d.skippedFrames++
			d.ob.resyncs.Inc()
			d.ob.skippedFrames.Inc()
			return errAgain
		}
		return d.fail(err)
	}
	switch {
	case seq < d.expectChunk:
		// A resuming client replayed a chunk we already consumed: skip it
		// (marking the frame fully drained), but re-ack so the client can
		// trim its resend buffer.
		d.pos = len(d.frame)
		d.dups++
		d.ob.dupChunks.Inc()
		if d.OnChunk != nil {
			d.OnChunk(d.expectChunk - 1)
		}
		return errAgain
	case seq > d.expectChunk:
		if !d.resync {
			return d.fail(fmt.Errorf("%w: got chunk %d, expected %d", ErrChunkGap, seq, d.expectChunk))
		}
		// After a resync scan the lost region may have swallowed whole
		// chunks; account for them and carry on — the stream is already
		// marked degraded.
		gap := int(seq - d.expectChunk)
		d.skippedFrames += gap
		d.ob.skippedFrames.Add(uint64(gap))
	}
	d.expectChunk = seq + 1
	d.seenChunk = true
	if d.OnChunk != nil {
		d.OnChunk(seq)
	}
	d.pos = w
	if d.remaining() == 0 {
		return errAgain // empty chunk (timer flush with no events)
	}
	return nil
}

// nextFrame loads the next events frame into d.frame. It returns io.EOF on
// an end-of-stream frame or a clean EOF at a frame boundary.
func (d *Decoder) nextFrame() error {
	for {
		err := d.readFrame()
		if err != errAgain {
			return err
		}
	}
}

// ReadHello reads frames until the stream's intent is known: it returns
// the session id as soon as a hello frame is seen (before consuming any
// events frame that follows), or "" once the first events frame, end
// frame, or EOF shows this is a plain stream. The daemon calls it before
// Next to route resumable sessions to their session state.
func (d *Decoder) ReadHello() (string, error) {
	for d.sid == "" {
		if d.err != nil || d.remaining() > 0 {
			return d.sid, nil
		}
		err := d.readFrame()
		if err == errAgain {
			continue
		}
		if err == io.EOF {
			return d.sid, nil // empty/ended stream; Next returns the sticky EOF
		}
		if err != nil {
			return d.sid, err
		}
		return d.sid, nil // events frame loaded: plain stream
	}
	return d.sid, nil
}

func (d *Decoder) remaining() int { return len(d.frame) - d.pos }

// Buffered reports whether the current frame still holds undecoded bytes,
// i.e. whether the next Next can decode without reading the stream. A
// consumer that batches decoded events flushes when it turns false, so a
// partial batch never waits on the socket.
func (d *Decoder) Buffered() bool { return d.remaining() > 0 }

func (d *Decoder) readByte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: event record crosses frame end", ErrTruncated)
	}
	b := d.frame[d.pos]
	d.pos++
	return b, nil
}

func (d *Decoder) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(d.frame[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint in frame", ErrTruncated)
	}
	d.pos += n
	return v, nil
}

func (d *Decoder) readVarint() (int64, error) {
	v, n := binary.Varint(d.frame[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint in frame", ErrTruncated)
	}
	d.pos += n
	return v, nil
}

// readID decodes a non-negative id bounded to the int range.
func (d *Decoder) readID() (int, error) {
	v, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("wire: id %d overflows int", v)
	}
	return int(v), nil
}

// readString decodes an interned string reference or a new table entry.
func (d *Decoder) readString() (string, error) {
	ref, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if ref > 0 {
		if ref > uint64(len(d.intern)) {
			return "", fmt.Errorf("wire: string ref %d out of range (table has %d)", ref, len(d.intern))
		}
		return d.intern[ref-1], nil
	}
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", fmt.Errorf("wire: string of %d bytes exceeds MaxString", n)
	}
	if int(n) > d.remaining() {
		return "", fmt.Errorf("%w: string crosses frame end", ErrTruncated)
	}
	if len(d.intern) >= MaxStrings {
		return "", fmt.Errorf("wire: interning table full (%d strings)", MaxStrings)
	}
	s := string(d.frame[d.pos : d.pos+int(n)])
	d.pos += int(n)
	d.intern = append(d.intern, s)
	return s, nil
}

func (d *Decoder) readValue() (trace.Value, error) {
	tag, err := d.readByte()
	if err != nil {
		return trace.Value{}, err
	}
	switch tag {
	case wireNil:
		return trace.NilValue, nil
	case wireInt:
		v, err := d.readVarint()
		if err != nil {
			return trace.Value{}, err
		}
		return trace.IntValue(v), nil
	case wireStr:
		s, err := d.readString()
		if err != nil {
			return trace.Value{}, err
		}
		return trace.StrValue(s), nil
	case wireBool:
		b, err := d.readByte()
		if err != nil {
			return trace.Value{}, err
		}
		if b > 1 {
			return trace.Value{}, fmt.Errorf("wire: bad bool byte 0x%02x", b)
		}
		return trace.BoolValue(b == 1), nil
	default:
		return trace.Value{}, fmt.Errorf("wire: unknown value tag 0x%02x", tag)
	}
}

// readTuples decodes an action's argument and return tuples into one
// allocation: the arguments are staged in the decoder's scratch until the
// return count is known. Each tuple gets a full slice expression, so an
// append to one can never write into the other; an empty tuple is nil.
func (d *Decoder) readTuples() (args, rets []trace.Value, err error) {
	n, err := d.readTupleLen()
	if err != nil {
		return nil, nil, err
	}
	d.tuple = d.tuple[:0]
	for i := 0; i < n; i++ {
		v, err := d.readValue()
		if err != nil {
			return nil, nil, err
		}
		d.tuple = append(d.tuple, v)
	}
	m, err := d.readTupleLen()
	if err != nil || n+m == 0 {
		return nil, nil, err
	}
	vals := make([]trace.Value, n+m)
	copy(vals, d.tuple)
	clear(d.tuple) // drop the staged strings
	for i := n; i < n+m; i++ {
		if vals[i], err = d.readValue(); err != nil {
			return nil, nil, err
		}
	}
	if n > 0 {
		args = vals[:n:n]
	}
	if m > 0 {
		rets = vals[n : n+m : n+m]
	}
	return args, rets, nil
}

// readTupleLen reads a tuple's value count and checks it against MaxTuple
// and, since a value takes at least one payload byte, against what the
// frame can still hold, before any allocation trusts it.
func (d *Decoder) readTupleLen() (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxTuple {
		return 0, fmt.Errorf("wire: tuple of %d values exceeds MaxTuple", n)
	}
	if int(n) > d.remaining() {
		return 0, fmt.Errorf("%w: tuple crosses frame end", ErrTruncated)
	}
	return int(n), nil
}

// Next decodes the next event. It returns io.EOF at the end of the stream;
// any other error is sticky — except in resync mode, where a CRC-valid but
// undecodable frame is dropped (counted as skipped) and decoding carries
// on at the next frame boundary.
func (d *Decoder) Next() (trace.Event, error) {
	if d.err != nil {
		return trace.Event{}, d.err
	}
	for {
		if d.remaining() == 0 {
			if err := d.nextFrame(); err != nil {
				return trace.Event{}, err
			}
		}
		e, err := d.decodeEvent()
		if err != nil {
			if d.resync && d.version >= 2 {
				// The frame passed its CRC but does not decode (producer
				// bug or interning drift after an earlier skip): drop the
				// rest of it, honestly counted.
				d.pos = len(d.frame)
				d.skippedFrames++
				d.ob.skippedFrames.Inc()
				continue
			}
			return trace.Event{}, d.fail(err)
		}
		e.Seq = d.seq
		d.seq++
		return e, nil
	}
}

func (d *Decoder) decodeEvent() (trace.Event, error) {
	kb, err := d.readByte()
	if err != nil {
		return trace.Event{}, err
	}
	kind := trace.EventKind(kb)
	tid, err := d.readID()
	if err != nil {
		return trace.Event{}, err
	}
	e := trace.Event{Kind: kind, Thread: vclock.Tid(tid)}
	switch kind {
	case trace.ForkEvent, trace.JoinEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Other = vclock.Tid(id)
	case trace.AcquireEvent, trace.ReleaseEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Lock = trace.LockID(id)
	case trace.ReadEvent, trace.WriteEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Var = trace.VarID(id)
	case trace.SendEvent, trace.RecvEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Chan = trace.ChanID(id)
	case trace.BeginEvent, trace.EndEvent:
	case trace.DieEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Act.Obj = trace.ObjID(id)
	case trace.ActionEvent:
		id, err := d.readID()
		if err != nil {
			return trace.Event{}, err
		}
		e.Act.Obj = trace.ObjID(id)
		if e.Act.Method, err = d.readString(); err != nil {
			return trace.Event{}, err
		}
		if e.Act.Args, e.Act.Rets, err = d.readTuples(); err != nil {
			return trace.Event{}, err
		}
	default:
		return trace.Event{}, fmt.Errorf("wire: unknown event kind 0x%02x", kb)
	}
	return e, nil
}

// DecodeTrace drains an RDB2 stream into an in-memory trace.
func DecodeTrace(r io.Reader) (*trace.Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(d)
}

// NewSource sniffs the input and returns a streaming event source: a wire
// Decoder when the RDB2 magic is present, a text TextSource otherwise.
// This is the auto-detection used by rd2, rd2bench, and rd2d tooling to
// accept .rdb binary traces and text traces interchangeably.
func NewSource(r io.Reader) (trace.Source, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(SniffLen)
	if err != nil && len(prefix) < SniffLen {
		// Too short to be a wire stream; let the text parser handle it
		// (an empty input is a valid empty text trace).
		return trace.NewTextSource(br), nil
	}
	if Sniff(prefix) {
		return NewDecoder(br)
	}
	return trace.NewTextSource(br), nil
}

// ParseAny decodes a whole trace with format auto-detection (see
// NewSource).
func ParseAny(r io.Reader) (*trace.Trace, error) {
	src, err := NewSource(r)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(src)
}
