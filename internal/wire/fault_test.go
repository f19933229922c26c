package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
)

// faultTrace builds a trace whose interned strings (method + keys) all
// appear within the first few events, so dropping a later frame cannot
// shift the interning table — post-resync events must decode exactly.
func faultTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	for i := 0; i < n; i++ {
		tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "put",
			Args: []trace.Value{trace.StrValue(fmt.Sprintf("key-%d", i%7)), trace.IntValue(int64(i))},
			Rets: []trace.Value{trace.NilValue}}))
	}
	tr.Append(trace.Join(0, 1))
	return tr
}

// encodeFrames encodes tr as a plain v2 stream with small frames.
func encodeFrames(t *testing.T, tr *trace.Trace, frameSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.FrameSize = frameSize
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameOffsets walks a v2 stream structurally and returns the byte offset
// of each frame start (after the 5-byte header).
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	pos := len(Magic) + 1
	for pos < len(data) {
		offs = append(offs, pos)
		if data[pos] != sync0 || data[pos+1] != sync1 {
			t.Fatalf("no sync marker at offset %d", pos)
		}
		size, n := binary.Uvarint(data[pos+3:])
		if n <= 0 {
			t.Fatalf("bad frame length at offset %d", pos)
		}
		pos += 3 + n + int(size) + 4
	}
	return offs
}

func drain(d *Decoder) ([]trace.Event, error) {
	var events []trace.Event
	for {
		e, err := d.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// TestResyncSkipsCorruptFrame corrupts one middle frame's payload. Strict
// decoding must fail on the CRC; resync decoding must lose exactly that
// frame's events and decode everything around it bit-exactly, with honest
// degradation counters.
func TestResyncSkipsCorruptFrame(t *testing.T) {
	tr := faultTrace(300)
	data := encodeFrames(t, tr, 64)
	offs := frameOffsets(t, data)
	if len(offs) < 6 {
		t.Fatalf("want many frames, got %d", len(offs))
	}
	// Flip a payload byte of a middle frame (past sync+kind+len).
	victim := len(offs) / 2
	corrupt := append([]byte(nil), data...)
	corrupt[offs[victim]+6] ^= 0x40

	if _, err := DecodeTrace(bytes.NewReader(corrupt)); !errors.Is(err, ErrCRC) {
		t.Fatalf("strict decode error = %v, want ErrCRC", err)
	}

	d, err := NewDecoder(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	d.SetResync(true)
	events, err := drain(d)
	if err != nil {
		t.Fatalf("resync decode failed: %v", err)
	}
	if !d.Clean() {
		t.Error("resync decode should still reach the end-of-stream frame")
	}
	if !d.Degraded() || d.SkippedFrames() < 1 || d.Resyncs() != 1 {
		t.Errorf("degradation counters: frames=%d bytes=%d resyncs=%d degraded=%v",
			d.SkippedFrames(), d.SkippedBytes(), d.Resyncs(), d.Degraded())
	}
	lost := len(tr.Events) - len(events)
	if lost <= 0 || lost > 16 {
		t.Fatalf("lost %d events, want one small frame's worth", lost)
	}
	// The surviving events must be the original sequence with one contiguous
	// gap: an untouched prefix, then the tail shifted by the lost count.
	m := 0
	for m < len(events) && events[m].String() == tr.Events[m].String() {
		m++
	}
	if m == len(events) {
		t.Fatal("no gap found despite lost events")
	}
	for i := m; i < len(events); i++ {
		if events[i].String() != tr.Events[i+lost].String() {
			t.Fatalf("post-gap event %d = %q, want %q (gap at %d, lost=%d)",
				i, events[i].String(), tr.Events[i+lost].String(), m, lost)
		}
	}
}

// TestResyncSkipsInjectedJunk splices junk at a frame boundary: the decoder
// must lose sync, scan past the junk, and carry on.
func TestResyncSkipsInjectedJunk(t *testing.T) {
	tr := faultTrace(100)
	data := encodeFrames(t, tr, 64)
	offs := frameOffsets(t, data)
	at := offs[len(offs)/2]
	junk := bytes.Repeat([]byte{0xAA, 0x00, 0x17}, 13)
	spliced := append(append(append([]byte(nil), data[:at]...), junk...), data[at:]...)

	d, err := NewDecoder(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	d.SetResync(true)
	events, err := drain(d)
	if err != nil {
		t.Fatalf("resync decode failed: %v", err)
	}
	// Junk between frames destroys no frame: every event survives.
	if len(events) != len(tr.Events) {
		t.Fatalf("decoded %d events, want all %d", len(events), len(tr.Events))
	}
	// The first two junk bytes are consumed by the failing frame parse
	// (ErrSync); the scan discards the rest.
	if !d.Clean() || d.SkippedBytes() < int64(len(junk)-2) {
		t.Errorf("clean=%v skippedBytes=%d (junk was %d)", d.Clean(), d.SkippedBytes(), len(junk))
	}
}

// sessionChunks encodes tr in resumable mode with tiny chunks, returning
// the header+hello prefix, the serialized chunks, and the end frame.
func sessionChunks(t *testing.T, tr *trace.Trace, frameSize int) (prefix []byte, chunks [][]byte, end []byte) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.FrameSize = frameSize
	if err := enc.SetSession("s-test"); err != nil {
		t.Fatal(err)
	}
	enc.OnFrame = func(seq uint64, frame []byte) error {
		if seq != uint64(len(chunks)) {
			t.Fatalf("OnFrame seq %d, want %d", seq, len(chunks))
		}
		chunks = append(chunks, append([]byte(nil), frame...))
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
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	prefix = append([]byte(nil), buf.Bytes()[:buf.Len()-total]...)
	var endBuf bytes.Buffer
	e2 := NewEncoder(&endBuf)
	end = append([]byte(nil), e2.serializeFrame(frameEnd, nil)...)
	return prefix, chunks, end
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestSessionDedupAndAcks replays a chunk (as a resuming client would): the
// decoder must skip the duplicate, re-ack it, and count no event twice.
func TestSessionDedupAndAcks(t *testing.T) {
	tr := faultTrace(60)
	prefix, chunks, end := sessionChunks(t, tr, 64)
	if len(chunks) < 3 {
		t.Fatalf("want >= 3 chunks, got %d", len(chunks))
	}
	stream := concat(prefix, chunks[0], chunks[0]) // dup replay of chunk 0
	for _, c := range chunks[1:] {
		stream = append(stream, c...)
	}
	stream = append(stream, end...)

	d, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var acks []uint64
	d.OnChunk = func(acked uint64) { acks = append(acks, acked) }
	sid, err := d.ReadHello()
	if err != nil || sid != "s-test" {
		t.Fatalf("ReadHello = (%q, %v), want (s-test, nil)", sid, err)
	}
	events, err := drain(d)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if len(events) != len(tr.Events) {
		t.Fatalf("decoded %d events, want %d (dups must not double-count)", len(events), len(tr.Events))
	}
	if d.DupChunks() != 1 || d.Degraded() {
		t.Errorf("dups=%d degraded=%v, want 1/false (dedup is protocol-normal)", d.DupChunks(), d.Degraded())
	}
	if len(acks) != len(chunks)+1 || acks[0] != 0 || acks[1] != 0 {
		t.Errorf("acks = %v, want 0 (accept), 0 (dup re-ack), then 1..%d", acks, len(chunks)-1)
	}
	if got, ok := d.AckedChunk(); !ok || got != uint64(len(chunks)-1) {
		t.Errorf("AckedChunk = (%d, %v)", got, ok)
	}
}

// TestChunkGap: a missing chunk is a protocol error on a healthy stream and
// an honestly counted loss under resync.
func TestChunkGap(t *testing.T) {
	tr := faultTrace(60)
	prefix, chunks, end := sessionChunks(t, tr, 64)
	stream := concat(prefix, chunks[0]) // chunk 1 lost
	for _, c := range chunks[2:] {
		stream = append(stream, c...)
	}
	stream = append(stream, end...)

	d, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(d); !errors.Is(err, ErrChunkGap) {
		t.Fatalf("strict gap error = %v, want ErrChunkGap", err)
	}

	d2, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	d2.SetResync(true)
	events, err := drain(d2)
	if err != nil {
		t.Fatalf("resync decode failed: %v", err)
	}
	if len(events) >= len(tr.Events) || len(events) == 0 {
		t.Fatalf("decoded %d events, want some but not all of %d", len(events), len(tr.Events))
	}
	if !d2.Degraded() || d2.SkippedFrames() < 1 {
		t.Errorf("gap not counted: degraded=%v skippedFrames=%d", d2.Degraded(), d2.SkippedFrames())
	}
}

// TestAdoptStateResumesAcrossConnections simulates the daemon's resume
// path: connection 1 dies mid-stream, connection 2 replays the unacked
// chunk and carries on. The adopted decoder must dedup the replay, keep the
// interning table, and reassemble the exact original event sequence.
func TestAdoptStateResumesAcrossConnections(t *testing.T) {
	tr := faultTrace(90)
	prefix, chunks, end := sessionChunks(t, tr, 64)
	if len(chunks) < 4 {
		t.Fatalf("want >= 4 chunks, got %d", len(chunks))
	}

	// Connection 1 delivers chunks 0..1 then dies (no end frame).
	conn1 := concat(prefix, chunks[0], chunks[1])
	d1, err := NewDecoder(bytes.NewReader(conn1))
	if err != nil {
		t.Fatal(err)
	}
	if sid, err := d1.ReadHello(); err != nil || sid != "s-test" {
		t.Fatalf("conn1 ReadHello = (%q, %v)", sid, err)
	}
	events1, err := drain(d1)
	if err != nil {
		t.Fatalf("conn1 decode = %v, want frame-aligned EOF", err)
	}
	if d1.Clean() {
		t.Fatal("conn1 must end unclean (no end frame)")
	}
	if acked, ok := d1.AckedChunk(); !ok || acked != 1 {
		t.Fatalf("conn1 AckedChunk = (%d, %v), want (1, true)", acked, ok)
	}

	// Connection 2: the client never saw an ack for chunk 1, so it replays
	// it, then sends the rest and the end frame.
	conn2 := concat(prefix, chunks[1])
	for _, c := range chunks[2:] {
		conn2 = append(conn2, c...)
	}
	conn2 = append(conn2, end...)
	d2, err := NewDecoder(bytes.NewReader(conn2))
	if err != nil {
		t.Fatal(err)
	}
	if sid, err := d2.ReadHello(); err != nil || sid != "s-test" {
		t.Fatalf("conn2 ReadHello = (%q, %v)", sid, err)
	}
	d2.AdoptState(d1)
	events2, err := drain(d2)
	if err != nil {
		t.Fatalf("conn2 decode failed: %v", err)
	}
	if !d2.Clean() || d2.Degraded() {
		t.Errorf("conn2 clean=%v degraded=%v, want true/false", d2.Clean(), d2.Degraded())
	}
	if d2.DupChunks() != 1 {
		t.Errorf("conn2 dups = %d, want 1 (the replayed chunk)", d2.DupChunks())
	}
	all := append(events1, events2...)
	if len(all) != len(tr.Events) {
		t.Fatalf("reassembled %d events, want %d", len(all), len(tr.Events))
	}
	for i := range all {
		if all[i].String() != tr.Events[i].String() {
			t.Fatalf("event %d = %q, want %q", i, all[i].String(), tr.Events[i].String())
		}
	}
}

// TestResumableClientSurvivesSeveredConn runs the full client resume loop
// against an in-test server that hard-closes the first connection after one
// chunk, then serves the resumed connection to completion.
func TestResumableClientSurvivesSeveredConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	tr := faultTrace(200)
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			// Connection 1: accept one chunk's worth of events, then sever.
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			d1, err := NewDecoder(conn)
			if err != nil {
				return err
			}
			if _, err := d1.ReadHello(); err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				if _, err := d1.Next(); err != nil {
					return fmt.Errorf("conn1 event %d: %v", i, err)
				}
			}
			conn.Close()

			// Connection 2: adopt, ack, drain to the clean end, summarize.
			conn2, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn2.Close()
			d2, err := NewDecoder(conn2)
			if err != nil {
				return err
			}
			if _, err := d2.ReadHello(); err != nil {
				return err
			}
			d2.AdoptState(d1)
			d2.OnChunk = func(acked uint64) { fmt.Fprintf(conn2, "{\"ack\":%d}\n", acked) }
			if _, err := drain(d2); err != nil {
				return fmt.Errorf("conn2 drain: %v", err)
			}
			if !d2.Clean() {
				return fmt.Errorf("conn2 stream did not end cleanly")
			}
			_, err = fmt.Fprintf(conn2, "{\"events\":%d,\"races\":0,\"clean\":true,\"resumes\":1}\n", d2.Events())
			return err
		}()
	}()

	c, err := DialSession(ln.Addr().String(), "s-e2e", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Backoff = time.Millisecond
	for i := range tr.Events {
		if err := c.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatalf("WriteEvent %d: %v", i, err)
		}
		if (i+1)%5 == 0 { // exactly one chunk per 5 events
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush at %d: %v", i, err)
			}
		}
	}
	sum, err := c.Close(10 * time.Second)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if sum.Events != len(tr.Events) || !sum.Clean {
		t.Fatalf("summary = %+v, want %d events clean (no loss, no duplication)", sum, len(tr.Events))
	}
	if c.Resumes() < 1 {
		t.Fatalf("resumes = %d, want >= 1", c.Resumes())
	}
}

// resetReader serves data, then fails every read with ECONNRESET, the way
// a socket does after the peer's RST.
type resetReader struct{ data []byte }

func (r *resetReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, syscall.ECONNRESET
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameLengthTransportError cuts a stream inside a frame's length
// varint. A peer reset there is a lost connection, not corruption: the
// error stays ErrTruncated with ECONNRESET matchable, so the daemon parks
// the session. Only an overflowing varint is corrupt.
func TestFrameLengthTransportError(t *testing.T) {
	data := encodeFrames(t, faultTrace(40), 256)
	second := frameOffsets(t, data)[1]
	for _, cut := range []int{second + 3, second + 4} { // after the kind byte; after one varint byte
		prefix := append([]byte(nil), data[:cut]...)
		if cut == second+4 {
			prefix[cut-1] |= 0x80 // a continued varint, so the reset lands mid-varint
		}
		dec, err := NewDecoder(&resetReader{data: prefix})
		if err != nil {
			t.Fatal(err)
		}
		_, err = drain(dec)
		if !errors.Is(err, syscall.ECONNRESET) || !errors.Is(err, ErrTruncated) || errors.Is(err, errCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated wrapping ECONNRESET", cut, err)
		}
	}

	overflow := append(append([]byte(nil), data[:second+3]...), bytes.Repeat([]byte{0xff}, 10)...)
	dec, err := NewDecoder(bytes.NewReader(overflow))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(dec); !errors.Is(err, errCorrupt) {
		t.Fatalf("overflowing frame length: err = %v, want corrupt", err)
	}
}
