package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// writeSnapshot builds a three-section snapshot exercising every primitive,
// the third section framed whole from another writer's payload.
func writeSnapshot(t *testing.T) []byte {
	t.Helper()
	var pre StateWriter
	pre.Begin(9)
	pre.VC(vclock.VC{3, 0, 7})
	pre.VC(nil)
	pre.VC(vclock.VC{})
	pre.Value(trace.NilValue)
	pre.Action(trace.Action{Obj: 4, Method: "put",
		Args: []trace.Value{trace.StrValue("k"), trace.IntValue(-2)},
		Rets: []trace.Value{trace.BoolValue(true)}})
	pre.Action(trace.Action{Obj: 5, Method: "size"})

	var sw StateWriter
	sw.Reset()
	sw.Begin(1)
	sw.Uvarint(0)
	sw.Uvarint(1 << 40)
	sw.Varint(-12345)
	sw.Bool(true)
	sw.String("session-α")
	sw.Bytes([]byte{0xE5, 0x4D, 0x00})
	sw.End()
	sw.Begin(7)
	sw.String("")
	sw.Varint(9)
	sw.End()
	sw.Section(9, pre.Payload())
	return append([]byte(nil), sw.Close()...)
}

func TestStateRoundTrip(t *testing.T) {
	data := writeSnapshot(t)
	sr, err := NewStateReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewStateReader: %v", err)
	}
	kind, err := sr.Next()
	if err != nil || kind != 1 {
		t.Fatalf("Next = %d, %v; want 1, nil", kind, err)
	}
	if v := sr.Uvarint(); v != 0 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := sr.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := sr.Varint(); v != -12345 {
		t.Fatalf("Varint = %d", v)
	}
	if !sr.Bool() {
		t.Fatal("Bool = false")
	}
	if s := sr.String(); s != "session-α" {
		t.Fatalf("String = %q", s)
	}
	if b := sr.Bytes(); !bytes.Equal(b, []byte{0xE5, 0x4D, 0x00}) {
		t.Fatalf("Bytes = %x", b)
	}
	if sr.Remaining() != 0 {
		t.Fatalf("Remaining = %d", sr.Remaining())
	}
	kind, err = sr.Next()
	if err != nil || kind != 7 {
		t.Fatalf("Next = %d, %v; want 7, nil", kind, err)
	}
	if s := sr.String(); s != "" {
		t.Fatalf("String = %q", s)
	}
	if v := sr.Int(); v != 9 {
		t.Fatalf("Int = %d", v)
	}
	kind, err = sr.Next()
	if err != nil || kind != 9 {
		t.Fatalf("Next = %d, %v; want 9, nil", kind, err)
	}
	if c := sr.VC(); !c.Equal(vclock.VC{3, 0, 7}) {
		t.Fatalf("VC = %v", c)
	}
	if c := sr.VC(); c != nil {
		t.Fatalf("nil VC read back as %v", c)
	}
	if c := sr.VC(); c != nil {
		t.Fatalf("empty VC read back as %v, want absent", c)
	}
	if v := sr.Value(); v != trace.NilValue {
		t.Fatalf("Value = %v", v)
	}
	want := trace.Action{Obj: 4, Method: "put",
		Args: []trace.Value{trace.StrValue("k"), trace.IntValue(-2)},
		Rets: []trace.Value{trace.BoolValue(true)}}
	if a := sr.Action(); !reflect.DeepEqual(a, want) {
		t.Fatalf("Action = %+v, want %+v", a, want)
	}
	if a := sr.Action(); !reflect.DeepEqual(a, trace.Action{Obj: 5, Method: "size"}) {
		t.Fatalf("Action = %+v", a)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next at end marker = %v; want io.EOF", err)
	}
	if sr.Err() != nil {
		t.Fatalf("Err = %v", sr.Err())
	}
}

// A snapshot truncated at any byte must fail to read completely — it must
// never parse as a valid shorter snapshot.
func TestStateTruncationDetected(t *testing.T) {
	data := writeSnapshot(t)
	for n := 0; n < len(data); n++ {
		sr, err := NewStateReader(bytes.NewReader(data[:n]))
		if err != nil {
			continue // torn magic: rejected at open
		}
		sawEOF := false
		for {
			_, err := sr.Next()
			if err == io.EOF {
				sawEOF = true
				break
			}
			if err != nil {
				break
			}
			// Drain the section so short payloads surface.
			for sr.Remaining() > 0 {
				sr.Bytes()
				if sr.Err() != nil {
					break
				}
			}
		}
		if sawEOF {
			t.Fatalf("truncation at byte %d/%d read as a complete snapshot", n, len(data))
		}
	}
}

func TestStateCorruptionDetected(t *testing.T) {
	data := writeSnapshot(t)
	// Flip one bit inside the first section's payload.
	corrupt := append([]byte(nil), data...)
	corrupt[len(StateMagic)+5] ^= 0x40
	sr, err := NewStateReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("NewStateReader: %v", err)
	}
	if _, err := sr.Next(); err == nil {
		t.Fatal("corrupt section read without error")
	}
}

// craftedSection returns a CRC-valid snapshot whose one section holds
// payload, as a hostile or corrupt-but-checksummed file would.
func craftedSection(payload []byte) []byte {
	data := AppendFrame([]byte(StateMagic), 1, payload)
	return AppendFrame(data, stateEnd, nil)
}

// Length and count fields are checked against the section before they
// size anything: a CRC-valid section claiming 2^63 bytes or elements must
// fail to decode, not panic or allocate.
func TestStateHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64-8)
	cases := []struct {
		name    string
		payload []byte
		read    func(sr *StateReader)
	}{
		{"string", huge, func(sr *StateReader) { _ = sr.String() }},
		{"bytes", huge, func(sr *StateReader) { sr.Bytes() }},
		{"count", huge, func(sr *StateReader) { sr.Count() }},
		{"vc", append([]byte{1}, huge...), func(sr *StateReader) { sr.VC() }},
		{"args", append([]byte{2, 0}, huge...), func(sr *StateReader) { sr.Action() }},
		{"count past end", []byte{3, 1}, func(sr *StateReader) { sr.Count() }},
		{"value kind", []byte{9}, func(sr *StateReader) { sr.Value() }},
	}
	for _, tc := range cases {
		sr, err := NewStateReader(bytes.NewReader(craftedSection(tc.payload)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatalf("%s: Next: %v", tc.name, err)
		}
		tc.read(sr)
		if sr.Err() == nil {
			t.Errorf("%s: hostile length decoded without error", tc.name)
		}
	}
}

// A section with bytes its reader never consumed is an error at the next
// section: the writer never leaves trailing bytes.
func TestStateUnreadBytesRejected(t *testing.T) {
	sr, err := NewStateReader(bytes.NewReader(craftedSection([]byte{1, 2})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	sr.Uvarint()
	if _, err := sr.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after a partly read section = %v, want an error", err)
	}
}

// AppendFrame + AppendStreamHeader must reproduce a byte-stream the normal
// decoder accepts, and FrameWireSize must account each frame exactly — the
// invariants the rd2d WAL depends on.
func TestAppendFrameRebuildsStream(t *testing.T) {
	tr := sampleTrace()

	var orig bytes.Buffer
	enc := NewEncoder(&orig)
	enc.SetSession("sid-1")
	enc.SetTenant("acme")
	enc.FrameSize = 64 // several frames
	for _, e := range tr.Events {
		if err := enc.WriteEvent(&e); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Capture accepted frames through the hook while decoding.
	d, err := NewDecoder(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	type frame struct {
		kind    byte
		payload []byte
	}
	var frames []frame
	d.OnFrameAccepted = func(kind byte, payload []byte) error {
		frames = append(frames, frame{kind, append([]byte(nil), payload...)})
		return nil
	}
	var want []trace.Event
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		want = append(want, e)
	}
	if len(frames) == 0 {
		t.Fatal("hook saw no frames")
	}

	// Rebuild: header + hello + the captured frames, verbatim.
	rebuilt := AppendStreamHeader(nil, "sid-1", "acme")
	for _, f := range frames {
		pre := len(rebuilt)
		rebuilt = AppendFrame(rebuilt, f.kind, f.payload)
		if got := len(rebuilt) - pre; got != FrameWireSize(len(f.payload)) {
			t.Fatalf("FrameWireSize(%d) = %d, frame took %d bytes",
				len(f.payload), FrameWireSize(len(f.payload)), got)
		}
	}

	d2, err := NewDecoder(bytes.NewReader(rebuilt))
	if err != nil {
		t.Fatalf("NewDecoder(rebuilt): %v", err)
	}
	if sid, err := d2.ReadHello(); err != nil || sid != "sid-1" {
		t.Fatalf("ReadHello = %q, %v", sid, err)
	}
	if d2.Tenant() != "acme" {
		t.Fatalf("Tenant = %q", d2.Tenant())
	}
	var got []trace.Event
	for {
		e, err := d2.Next()
		if err != nil {
			// No end frame in the rebuilt stream: a bare EOF at a frame
			// boundary is the expected termination.
			if err == io.EOF {
				break
			}
			t.Fatalf("rebuilt Next: %v", err)
		}
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("rebuilt stream has %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() || got[i].Seq != want[i].Seq {
			t.Fatalf("event %d: got %v seq %d, want %v seq %d",
				i, got[i], got[i].Seq, want[i], want[i].Seq)
		}
	}
}

// Decoding the tail of a stream through ResumeDecoder with a mid-stream
// State capture must yield the same events, seqs, and interning resolution
// as the uninterrupted decode.
func TestDecoderStateResume(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.SetSession("s")
	enc.FrameSize = 48
	for _, e := range tr.Events {
		if err := enc.WriteEvent(&e); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full := buf.Bytes()

	// First pass: record each accepted frame's byte offset and the decoder
	// state just before it, via the hook + FrameWireSize accounting.
	d, err := NewDecoder(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	type boundary struct {
		off int
		st  DecoderState
	}
	headerLen := len(AppendStreamHeader(nil, "s", ""))
	off := headerLen
	var bounds []boundary
	d.OnFrameAccepted = func(kind byte, payload []byte) error {
		bounds = append(bounds, boundary{off, d.State()})
		off += FrameWireSize(len(payload))
		return nil
	}
	var want []trace.Event
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		want = append(want, e)
	}
	if len(bounds) < 2 {
		t.Fatalf("only %d frames; need more for a meaningful resume", len(bounds))
	}

	for _, b := range bounds {
		rd := ResumeDecoder(bytes.NewReader(full[b.off:len(full)-FrameWireSize(0)]), b.st)
		got := want[:b.st.Events:b.st.Events]
		for {
			e, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("resume at %d: Next: %v", b.off, err)
			}
			got = append(got, e)
		}
		if len(got) != len(want) {
			t.Fatalf("resume at %d: %d events, want %d", b.off, len(got), len(want))
		}
		for i := b.st.Events; i < len(want); i++ {
			if got[i].String() != want[i].String() || got[i].Seq != want[i].Seq {
				t.Fatalf("resume at %d: event %d mismatch: %v vs %v", b.off, i, got[i], want[i])
			}
		}
	}
}

// A hook error must fail the decode and stick.
func TestFrameHookErrorSticks(t *testing.T) {
	data := encodeBytes(t, sampleTrace())
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	boom := errors.New("wal full")
	d.OnFrameAccepted = func(byte, []byte) error { return boom }
	if _, err := d.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next = %v; want hook error", err)
	}
	if _, err := d.Next(); !errors.Is(err, boom) {
		t.Fatalf("second Next = %v; want sticky hook error", err)
	}
}
