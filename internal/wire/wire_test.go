package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// sampleTrace covers every event kind and every value kind, with repeated
// method names and string values to exercise the interning table.
func sampleTrace() *trace.Trace {
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Fork(0, 2))
	tr.Append(trace.Event{Kind: trace.BeginEvent, Thread: 1})
	tr.Append(trace.Act(1, trace.Action{Obj: 0, Method: "put",
		Args: []trace.Value{trace.StrValue("a.com"), trace.IntValue(1)},
		Rets: []trace.Value{trace.NilValue}}))
	tr.Append(trace.Act(2, trace.Action{Obj: 0, Method: "put",
		Args: []trace.Value{trace.StrValue("a.com"), trace.IntValue(-7)},
		Rets: []trace.Value{trace.IntValue(1)}}))
	tr.Append(trace.Acquire(2, 3))
	tr.Append(trace.Act(2, trace.Action{Obj: 1, Method: "contains",
		Args: []trace.Value{trace.StrValue("κλειδί")}, // non-ASCII survives
		Rets: []trace.Value{trace.BoolValue(true)}}))
	tr.Append(trace.Release(2, 3))
	tr.Append(trace.Event{Kind: trace.EndEvent, Thread: 1})
	tr.Append(trace.Send(2, 0))
	tr.Append(trace.Recv(0, 0))
	tr.Append(trace.Read(0, 5))
	tr.Append(trace.Write(0, 5))
	tr.Append(trace.Join(0, 1))
	tr.Append(trace.Join(0, 2))
	tr.Append(trace.Die(0, 0))
	tr.Append(trace.Act(0, trace.Action{Obj: 1, Method: "size",
		Rets: []trace.Value{trace.IntValue(0)}}))
	return tr
}

func encodeBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripSample(t *testing.T) {
	tr := sampleTrace()
	data := encodeBytes(t, tr)
	got, err := DecodeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if want, have := trace.Format(tr), trace.Format(got); want != have {
		t.Fatalf("round trip mismatch:\nwant:\n%s\nhave:\n%s", want, have)
	}
	// Seq must be reassigned in stream order.
	for i, e := range got.Events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

func TestRoundTripGenerated(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := trace.GenConfig{
			Threads: 4, Objects: 3, Keys: 5, Vals: 3, Locks: 2,
			OpsMin: 10, OpsMax: 30, PSize: 15, PGet: 35, PLocked: 30, PRemove: 25,
		}
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		got, err := DecodeTrace(bytes.NewReader(encodeBytes(t, tr)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if trace.Format(tr) != trace.Format(got) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

// TestRoundTripTinyFrames forces one-event frames so the frame machinery
// (length prefixes, CRCs, interning across frame boundaries) is exercised.
func TestRoundTripTinyFrames(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.FrameSize = 1
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if trace.Format(tr) != trace.Format(got) {
		t.Fatal("tiny-frame round trip mismatch")
	}
}

func TestInterningSharesStrings(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Act(0, trace.Action{Obj: 0, Method: "put",
			Args: []trace.Value{trace.StrValue("the-same-long-key-string"), trace.IntValue(int64(i))},
			Rets: []trace.Value{trace.NilValue}}))
	}
	data := encodeBytes(t, tr)
	if n := bytes.Count(data, []byte("the-same-long-key-string")); n != 1 {
		t.Fatalf("interned string transmitted %d times, want 1", n)
	}
	got, err := DecodeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Format(tr) != trace.Format(got) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecoderClean(t *testing.T) {
	tr := sampleTrace()
	data := encodeBytes(t, tr)

	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadAll(d); err != nil {
		t.Fatal(err)
	}
	if !d.Clean() {
		t.Fatal("Clean() = false after end-of-stream frame")
	}
	if d.Events() != tr.Len() {
		t.Fatalf("Events() = %d, want %d", d.Events(), tr.Len())
	}

	// Dropping the end-of-stream frame (8 bytes: sync2 + kind + len0 + crc4)
	// still decodes everything but reports an unclean end.
	d2, err := NewDecoder(bytes.NewReader(data[:len(data)-8]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(d2)
	if err != nil {
		t.Fatalf("frame-aligned truncation should still decode: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
	}
	if d2.Clean() {
		t.Fatal("Clean() = true without an end-of-stream frame")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeBytes(t, sampleTrace())

	t.Run("bad magic", func(t *testing.T) {
		_, err := NewDecoder(strings.NewReader("t0 fork t1\n"))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[4] = 99
		if _, err := NewDecoder(bytes.NewReader(data)); err == nil {
			t.Fatal("version 99 accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[10] ^= 0xff // inside the first frame payload
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_, err = trace.ReadAll(d)
		if !errors.Is(err, ErrCRC) {
			t.Fatalf("err = %v, want ErrCRC", err)
		}
	})
	t.Run("mid-frame truncation", func(t *testing.T) {
		d, err := NewDecoder(bytes.NewReader(valid[:len(valid)/2]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReadAll(d); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("error is sticky", func(t *testing.T) {
		d, err := NewDecoder(bytes.NewReader(valid[:len(valid)/2]))
		if err != nil {
			t.Fatal(err)
		}
		_, err1 := trace.ReadAll(d)
		_, err2 := d.Next()
		if err1 == nil || err2 == nil || !errors.Is(err2, ErrTruncated) {
			t.Fatalf("sticky error broken: %v / %v", err1, err2)
		}
	})
}

func TestEncoderRejectsNegativeIDs(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	e := trace.Acquire(0, trace.LockID(-1))
	if err := enc.WriteEvent(&e); err == nil {
		t.Fatal("negative lock id accepted")
	}
	// The failed record must not corrupt the stream.
	ok := trace.Fork(0, 1)
	if err := enc.WriteEvent(&ok); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil || got.Len() != 1 {
		t.Fatalf("got %d events, err %v", got.Len(), err)
	}
}

func TestNewSourceAutoDetect(t *testing.T) {
	tr := sampleTrace()
	text := trace.Format(tr)

	src, err := NewSource(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*trace.TextSource); !ok {
		t.Fatalf("text input detected as %T", src)
	}
	got, err := trace.ReadAll(src)
	if err != nil || trace.Format(got) != text {
		t.Fatalf("text auto-parse mismatch (err %v)", err)
	}

	src, err = NewSource(bytes.NewReader(encodeBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*Decoder); !ok {
		t.Fatalf("wire input detected as %T", src)
	}
	got, err = trace.ReadAll(src)
	if err != nil || trace.Format(got) != text {
		t.Fatalf("wire auto-parse mismatch (err %v)", err)
	}

	// Tiny inputs (shorter than the magic) fall back to text.
	got, err = ParseAny(strings.NewReader(""))
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty input: %d events, err %v", got.Len(), err)
	}
}

func TestFlushMakesEventsVisible(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	e := trace.Fork(0, 1)
	if err := enc.WriteEvent(&e); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("event leaked before Flush")
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Next()
	if err != nil || got.Kind != trace.ForkEvent {
		t.Fatalf("flushed event not decodable: %v %v", got, err)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after flushed prefix, got %v", err)
	}
}

// TestDecoderBuffered checks that Buffered turns false exactly once per
// events frame: after the frame's last event, before the next frame is read.
func TestDecoderBuffered(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.FrameSize = 24
	for i := range tr.Events {
		if err := enc.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !dec.Buffered() {
			drained++
		}
	}
	if drained < 2 || drained != dec.Frames()-1 { // every events frame, not the end frame
		t.Fatalf("Buffered went false %d times over %d frames", drained, dec.Frames())
	}
}
