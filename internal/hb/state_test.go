package hb

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func stateTestTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for seed := int64(1); seed <= 4; seed++ {
		cfg := trace.GenConfig{
			Threads: 5, Objects: 3, Keys: 6, Vals: 4, Locks: 3,
			OpsMin: 40, OpsMax: 120, PSize: 10, PGet: 35, PLocked: 35, PRemove: 20,
		}
		out = append(out, trace.Generate(rand.New(rand.NewSource(seed)), cfg))
	}
	// A hand-built trace driving channels and thread death explicitly, so
	// chanState queues and dead flags cross the snapshot.
	tr := &trace.Trace{}
	tr.Append(trace.Fork(0, 1))
	tr.Append(trace.Fork(0, 2))
	tr.Append(trace.Send(1, 0))
	tr.Append(trace.Send(1, 0))
	tr.Append(trace.Send(2, 1))
	tr.Append(trace.Acquire(1, 0))
	tr.Append(trace.Release(1, 0))
	tr.Append(trace.Event{Kind: trace.EndEvent, Thread: 2})
	tr.Append(trace.Recv(0, 0))
	tr.Append(trace.Recv(0, 1))
	tr.Append(trace.Acquire(0, 0))
	tr.Append(trace.Recv(0, 0))
	tr.Append(trace.Join(0, 2))
	tr.Append(trace.Release(0, 0))
	tr.Append(trace.Fork(0, 3))
	tr.Append(trace.Send(3, 0))
	tr.Append(trace.Recv(1, 0))
	tr.Append(trace.Join(0, 1))
	out = append(out, tr)
	return out
}

// roundTrip encodes en's state as a snapshot section and decodes it into a
// fresh engine, requiring the section to be consumed exactly.
func roundTrip(t *testing.T, en *Engine) *Engine {
	t.Helper()
	var sw wire.StateWriter
	sw.Reset()
	sw.Begin(1)
	en.WriteState(&sw)
	sw.End()
	sr, err := wire.NewStateReader(bytes.NewReader(sw.Close()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	en2 := New()
	if err := en2.ReadState(sr); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after the engine section: %v, want the end marker", err)
	}
	return en2
}

// stampVia runs the trace through an engine that is written and read back
// at the split point, returning the stamp clock of every event
// (deep-copied).
func stampVia(t *testing.T, tr *trace.Trace, split int) []vclock.VC {
	t.Helper()
	en := New()
	var clocks []vclock.VC
	for i := range tr.Events {
		if i == split {
			en2 := roundTrip(t, en)
			// The old engine keeps working after WriteState; mutate it to
			// prove the decoded engine shares nothing with it.
			for j := 0; j < 3; j++ {
				e := trace.Acquire(0, 99)
				en.Process(&e)
				r := trace.Release(0, 99)
				en.Process(&r)
			}
			en = en2
		}
		e := tr.Events[i]
		c, err := en.Process(&e)
		if err != nil {
			t.Fatalf("Process(%v): %v", e, err)
		}
		var cp vclock.VC
		if c != nil {
			cp = append(vclock.VC(nil), c...)
		}
		clocks = append(clocks, cp)
	}
	return clocks
}

// An engine rebuilt from its encoded state at any split point must stamp the rest
// of the trace with clocks value-equal to the uninterrupted run, and agree
// on MeetLive (the compaction threshold).
func TestEngineExportImportDifferential(t *testing.T) {
	for ti, tr := range stateTestTraces(t) {
		want := stampVia(t, tr, -1)
		for split := 0; split <= tr.Len(); split += 1 + tr.Len()/7 {
			got := stampVia(t, tr, split)
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("trace %d split %d: event %d (%v): clock %v != %v",
						ti, split, i, tr.Events[i], got[i], want[i])
				}
			}
		}
	}
}

func TestEngineExportImportMeetLive(t *testing.T) {
	for _, tr := range stateTestTraces(t) {
		en := New()
		for i := range tr.Events {
			e := tr.Events[i]
			if _, err := en.Process(&e); err != nil {
				t.Fatalf("Process: %v", err)
			}
		}
		en2 := roundTrip(t, en)
		if a, b := en.MeetLive(), en2.MeetLive(); !a.Equal(b) {
			t.Fatalf("MeetLive diverged: %v vs %v", a, b)
		}
		if en.Threads() != en2.Threads() {
			t.Fatalf("Threads diverged: %d vs %d", en.Threads(), en2.Threads())
		}
	}
}

// Once its buffers have grown, encoding an engine allocates nothing.
func TestEngineWriteStateZeroAlloc(t *testing.T) {
	traces := stateTestTraces(t)
	en := New()
	for _, tr := range traces[:1] {
		for i := range tr.Events {
			if _, err := en.Process(&tr.Events[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(en.locks) == 0 {
		t.Fatal("no lock clocks; the sorted-lock path is not exercised")
	}
	var sw wire.StateWriter
	encode := func() {
		sw.Begin(1)
		en.WriteState(&sw)
	}
	encode()
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("WriteState allocates %.1f times per call; want 0", allocs)
	}
}
