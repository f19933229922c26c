package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// This file is the durable-session side of the wire format (DESIGN.md §15):
//
//   - AppendFrame / AppendStreamHeader / FrameWireSize let cmd/rd2d keep a
//     per-session write-ahead log that *is* an RDB2 stream — accepted frames
//     are re-serialized verbatim, so recovery replays the WAL through an
//     ordinary Decoder and reproduces the exact event sequence (including
//     duplicate-chunk drops) the live connection produced.
//   - DecoderState / Decoder.State / ResumeDecoder checkpoint and restore
//     the cross-frame decoder state (interning table, event/chunk cursors,
//     degradation counters), so WAL replay can start mid-file at a
//     snapshot's offset instead of from genesis.
//   - StateWriter / StateReader are a CRC-framed section codec for snapshot
//     files ("RDS1"): each section is framed exactly like an RDB2 frame
//     (sync, kind, length, payload, CRC-32C) and the file ends with an
//     explicit end marker, so truncation anywhere — even at a section
//     boundary — is detected and the reader fails instead of returning a
//     silently shortened snapshot. Their VC, Value and Action primitives
//     are the vocabulary hb and core encode their live state in; the
//     sections themselves belong to the packages whose state they hold.

// StateMagic identifies a snapshot (checkpoint) file written by StateWriter.
const StateMagic = "RDS1"

// MaxStateSection bounds a single snapshot section payload. Snapshot
// sections carry whole engine and detector states, so the bound is far looser
// than MaxFrame while still rejecting corrupt length fields before they
// turn into huge allocations.
const MaxStateSection = 1 << 30

// stateEnd is the reserved section kind closing a snapshot file; callers
// must use kinds >= 1.
const stateEnd byte = 0x00

// ErrStateTruncated reports a snapshot file that ends without its end
// marker — a torn checkpoint write.
var ErrStateTruncated = errors.New("wire: snapshot truncated")

// AppendFrame appends one complete RDB2 frame (sync marker, kind, length,
// payload, CRC-32C) to dst and returns the extended slice. It is the
// allocation-controlled twin of the Encoder's internal frame serializer,
// exported for WAL appends that must re-emit an accepted frame verbatim.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, sync0, sync1, kind)
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	return append(dst, crc[:]...)
}

// FrameWireSize returns the on-wire size of a frame with a payload of
// payloadLen bytes: sync (2) + kind (1) + uvarint length + payload + CRC (4).
// WAL replay uses it to advance its byte-offset accounting one accepted
// frame at a time without re-reading the file.
func FrameWireSize(payloadLen int) int {
	var tmp [binary.MaxVarintLen64]byte
	return 3 + binary.PutUvarint(tmp[:], uint64(payloadLen)) + payloadLen + 4
}

// AppendStreamHeader appends an RDB2 stream header — magic, current
// version, and (when sid or tenant is non-empty) the hello frame a client
// with that identity would send — to dst and returns the extended slice.
// Writing it at offset 0 of a fresh WAL makes the log a self-describing
// RDB2 stream that NewDecoder accepts directly.
func AppendStreamHeader(dst []byte, sid, tenant string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	if sid == "" && tenant == "" {
		return dst
	}
	hello := make([]byte, 0, len(sid)+len(tenant)+2*binary.MaxVarintLen64)
	n := binary.PutUvarint(tmp[:], uint64(len(sid)))
	hello = append(hello, tmp[:n]...)
	hello = append(hello, sid...)
	if tenant != "" {
		n = binary.PutUvarint(tmp[:], uint64(len(tenant)))
		hello = append(hello, tmp[:n]...)
		hello = append(hello, tenant...)
	}
	return AppendFrame(dst, frameHello, hello)
}

// DecoderState is the portable cross-frame state of a Decoder: everything a
// later decoder needs to continue the same logical stream — after a
// connection handoff persisted across a daemon restart — with interning
// references resolving and duplicate chunks deduplicating exactly as they
// would have on the uninterrupted stream.
type DecoderState struct {
	Version       byte
	SID           string
	Tenant        string
	Intern        []string
	Events        int
	Frames        int
	ExpectChunk   uint64
	SeenChunk     bool
	DupChunks     int
	SkippedBytes  int64
	SkippedFrames int
	Resyncs       int
}

// State captures the decoder's cross-frame state. The interning slice is
// shared, not copied: its populated prefix is immutable (the decoder only
// appends), so a snapshot taken between frames stays valid while the live
// decoder keeps interning.
func (d *Decoder) State() DecoderState {
	return DecoderState{
		Version:       d.version,
		SID:           d.sid,
		Tenant:        d.tenant,
		Intern:        d.intern[:len(d.intern):len(d.intern)],
		Events:        d.seq,
		Frames:        d.frames,
		ExpectChunk:   d.expectChunk,
		SeenChunk:     d.seenChunk,
		DupChunks:     d.dups,
		SkippedBytes:  d.skippedBytes,
		SkippedFrames: d.skippedFrames,
		Resyncs:       d.resyncs,
	}
}

// ResumeDecoder returns a decoder that continues a stream from a captured
// DecoderState: r must be positioned at a frame boundary of the same
// logical stream (a WAL at a snapshot's frame offset). No header or hello
// is expected — identity and version come from the state.
func ResumeDecoder(r io.Reader, st DecoderState) *Decoder {
	d := &Decoder{r: bufio.NewReaderSize(r, ResyncWindow), ob: defaultWireObs}
	d.version = st.Version
	d.sid = st.SID
	d.tenant = st.Tenant
	d.intern = st.Intern
	d.seq = st.Events
	d.frames = st.Frames
	d.expectChunk = st.ExpectChunk
	d.seenChunk = st.SeenChunk
	d.dups = st.DupChunks
	d.skippedBytes = st.SkippedBytes
	d.skippedFrames = st.SkippedFrames
	d.resyncs = st.Resyncs
	return d
}

// StateWriter builds a CRC-framed snapshot file in memory: the RDS1 magic,
// a sequence of sections (Begin … primitives … End), and an end marker
// (Close). Its buffers survive Reset, so a writer kept for every snapshot
// of a session allocates only while they grow. A section whose payload was
// encoded ahead of the file — by another writer, read back with Payload —
// is framed whole by Section.
type StateWriter struct {
	out  []byte // the file: magic, then every framed section
	sec  []byte // the open section's payload
	kind byte
	tmp  [binary.MaxVarintLen64]byte
}

// Reset starts a new snapshot file, overwriting the bytes the last Close
// returned.
func (sw *StateWriter) Reset() { sw.out = append(sw.out[:0], StateMagic...) }

// Begin opens a section of the given kind (>= 1; kind 0 is the end
// marker), discarding any section left open.
func (sw *StateWriter) Begin(kind byte) {
	sw.kind = kind
	sw.sec = sw.sec[:0]
}

// Payload returns the open section's bytes so far, valid until the next
// Begin.
func (sw *StateWriter) Payload() []byte { return sw.sec }

// End frames the open section onto the file.
func (sw *StateWriter) End() { sw.out = AppendFrame(sw.out, sw.kind, sw.sec) }

// Section frames payload onto the file as a section of the given kind.
func (sw *StateWriter) Section(kind byte, payload []byte) {
	sw.out = AppendFrame(sw.out, kind, payload)
}

// Close appends the end marker and returns the file, valid until the next
// Reset.
func (sw *StateWriter) Close() []byte {
	sw.out = AppendFrame(sw.out, stateEnd, nil)
	return sw.out
}

// Uvarint appends an unsigned varint to the open section.
func (sw *StateWriter) Uvarint(v uint64) {
	n := binary.PutUvarint(sw.tmp[:], v)
	sw.sec = append(sw.sec, sw.tmp[:n]...)
}

// Varint appends a zigzag varint to the open section.
func (sw *StateWriter) Varint(v int64) {
	n := binary.PutVarint(sw.tmp[:], v)
	sw.sec = append(sw.sec, sw.tmp[:n]...)
}

// Bool appends a boolean byte to the open section.
func (sw *StateWriter) Bool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	sw.Uvarint(v)
}

// String appends a length-prefixed string to the open section.
func (sw *StateWriter) String(s string) {
	sw.Uvarint(uint64(len(s)))
	sw.sec = append(sw.sec, s...)
}

// Bytes appends a length-prefixed byte string to the open section.
func (sw *StateWriter) Bytes(b []byte) {
	sw.Uvarint(uint64(len(b)))
	sw.sec = append(sw.sec, b...)
}

// VC appends a vector clock: a presence flag, then the length and entries.
// A nil or empty clock is written absent (bottom either way).
func (sw *StateWriter) VC(c vclock.VC) {
	sw.Bool(len(c) != 0)
	if len(c) == 0 {
		return
	}
	sw.Uvarint(uint64(len(c)))
	for _, v := range c {
		sw.Uvarint(v)
	}
}

// Value appends a trace value: its kind, then the payload the kind has.
func (sw *StateWriter) Value(v trace.Value) {
	sw.Uvarint(uint64(v.Kind()))
	switch v.Kind() {
	case trace.Int:
		sw.Varint(v.Int())
	case trace.Str:
		sw.String(v.Str())
	case trace.Bool:
		sw.Bool(v.Bool())
	}
}

// Action appends an action: object, method, then the counted arguments
// and return values.
func (sw *StateWriter) Action(a trace.Action) {
	sw.Varint(int64(a.Obj))
	sw.String(a.Method)
	sw.Uvarint(uint64(len(a.Args)))
	for _, v := range a.Args {
		sw.Value(v)
	}
	sw.Uvarint(uint64(len(a.Rets)))
	for _, v := range a.Rets {
		sw.Value(v)
	}
}

// StateReader reads a snapshot file written by StateWriter. Next loads one
// section at a time; the field accessors consume the current section with a
// sticky error (check Err, or rely on the zero values they return after a
// failure). Any framing violation — bad magic, CRC mismatch, short read,
// missing end marker, a section with bytes left unread — is an error: a torn
// snapshot never reads as a valid shorter one. Lengths and counts are
// bounded by the section's remaining bytes before anything is allocated for
// them, so a CRC-valid but hostile snapshot fails instead of panicking.
type StateReader struct {
	r       *bufio.Reader
	payload []byte
	pos     int
	err     error
}

// NewStateReader verifies the RDS1 magic and returns a section reader.
func NewStateReader(r io.Reader) (*StateReader, error) {
	sr := &StateReader{r: bufio.NewReader(r)}
	var magic [len(StateMagic)]byte
	if _, err := io.ReadFull(sr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrStateTruncated, err)
	}
	if string(magic[:]) != StateMagic {
		return nil, fmt.Errorf("wire: bad snapshot magic %q", magic[:])
	}
	return sr, nil
}

// Next loads the next section and returns its kind. It returns io.EOF at
// the end marker, ErrStateTruncated if the file ends early, and ErrCRC on
// checksum mismatch. The previous section must have been consumed entirely.
func (sr *StateReader) Next() (byte, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	if sr.Remaining() != 0 {
		return 0, sr.fail(fmt.Errorf("wire: %d unread bytes at snapshot section end", sr.Remaining()))
	}
	var hdr [3]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return 0, sr.fail(fmt.Errorf("%w: section header: %v", ErrStateTruncated, err))
	}
	if hdr[0] != sync0 || hdr[1] != sync1 {
		return 0, sr.fail(fmt.Errorf("%w: got %02x %02x", ErrSync, hdr[0], hdr[1]))
	}
	kind := hdr[2]
	size, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return 0, sr.fail(fmt.Errorf("%w: section length: %v", ErrStateTruncated, err))
	}
	if size > MaxStateSection {
		return 0, sr.fail(fmt.Errorf("wire: snapshot section of %d bytes exceeds limit", size))
	}
	if cap(sr.payload) < int(size) {
		sr.payload = make([]byte, size)
	}
	sr.payload = sr.payload[:size]
	if _, err := io.ReadFull(sr.r, sr.payload); err != nil {
		return 0, sr.fail(fmt.Errorf("%w: section payload: %v", ErrStateTruncated, err))
	}
	var crc [4]byte
	if _, err := io.ReadFull(sr.r, crc[:]); err != nil {
		return 0, sr.fail(fmt.Errorf("%w: section CRC: %v", ErrStateTruncated, err))
	}
	want := binary.LittleEndian.Uint32(crc[:])
	if got := crc32.Checksum(sr.payload, castagnoli); got != want {
		return 0, sr.fail(fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want))
	}
	sr.pos = 0
	if kind == stateEnd {
		sr.err = io.EOF
		return 0, io.EOF
	}
	return kind, nil
}

// Err returns the sticky error, if any (io.EOF after a clean end marker).
func (sr *StateReader) Err() error {
	if sr.err == io.EOF {
		return nil
	}
	return sr.err
}

// Remaining returns the unconsumed bytes of the current section.
func (sr *StateReader) Remaining() int { return len(sr.payload) - sr.pos }

func (sr *StateReader) fail(err error) error {
	sr.err = err
	return err
}

// Uvarint consumes an unsigned varint from the current section.
func (sr *StateReader) Uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, n := binary.Uvarint(sr.payload[sr.pos:])
	if n <= 0 {
		sr.fail(fmt.Errorf("%w: bad uvarint in section", ErrStateTruncated))
		return 0
	}
	sr.pos += n
	return v
}

// Varint consumes a zigzag varint from the current section.
func (sr *StateReader) Varint() int64 {
	if sr.err != nil {
		return 0
	}
	v, n := binary.Varint(sr.payload[sr.pos:])
	if n <= 0 {
		sr.fail(fmt.Errorf("%w: bad varint in section", ErrStateTruncated))
		return 0
	}
	sr.pos += n
	return v
}

// Bool consumes a boolean.
func (sr *StateReader) Bool() bool { return sr.Uvarint() != 0 }

// Int consumes a varint bounded to the int range.
func (sr *StateReader) Int() int {
	v := sr.Varint()
	if sr.err == nil && int64(int(v)) != v {
		sr.fail(fmt.Errorf("wire: snapshot int %d overflows", v))
		return 0
	}
	return int(v)
}

// Count consumes the element count of a sequence whose elements take at
// least one byte each, so a count larger than the rest of the section is
// an error rather than an allocation.
func (sr *StateReader) Count() int {
	n := sr.Uvarint()
	if sr.err == nil && n > uint64(sr.Remaining()) {
		sr.fail(fmt.Errorf("%w: count %d crosses section end", ErrStateTruncated, n))
		return 0
	}
	return int(n)
}

// span consumes a length prefix and the bytes it covers.
func (sr *StateReader) span(what string) []byte {
	n := sr.Uvarint()
	if sr.err != nil {
		return nil
	}
	if n > uint64(sr.Remaining()) {
		sr.fail(fmt.Errorf("%w: %s crosses section end", ErrStateTruncated, what))
		return nil
	}
	b := sr.payload[sr.pos : sr.pos+int(n)]
	sr.pos += int(n)
	return b
}

// String consumes a length-prefixed string.
func (sr *StateReader) String() string { return string(sr.span("string")) }

// Bytes consumes a length-prefixed byte string into a fresh slice.
func (sr *StateReader) Bytes() []byte {
	b := sr.span("bytes")
	if sr.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// VC consumes a vector clock written by StateWriter.VC; an absent clock
// reads as nil.
func (sr *StateReader) VC() vclock.VC {
	if !sr.Bool() {
		return nil
	}
	n := sr.Count()
	if sr.err != nil {
		return nil
	}
	c := make(vclock.VC, n)
	for i := range c {
		c[i] = sr.Uvarint()
	}
	return c
}

// Value consumes a trace value written by StateWriter.Value.
func (sr *StateReader) Value() trace.Value {
	switch k := trace.Kind(sr.Uvarint()); k {
	case trace.Nil:
		return trace.NilValue
	case trace.Int:
		return trace.IntValue(sr.Varint())
	case trace.Str:
		return trace.StrValue(sr.String())
	case trace.Bool:
		return trace.BoolValue(sr.Bool())
	default:
		sr.fail(fmt.Errorf("wire: snapshot value of unknown kind %d", k))
		return trace.NilValue
	}
}

// Action consumes an action written by StateWriter.Action.
func (sr *StateReader) Action() trace.Action {
	a := trace.Action{Obj: trace.ObjID(sr.Int()), Method: sr.String()}
	a.Args = sr.values()
	a.Rets = sr.values()
	return a
}

// values consumes a counted value list; an empty list reads as nil.
func (sr *StateReader) values() []trace.Value {
	n := sr.Count()
	if n == 0 || sr.err != nil {
		return nil
	}
	vs := make([]trace.Value, n)
	for i := range vs {
		vs[i] = sr.Value()
	}
	return vs
}
