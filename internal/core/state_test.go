package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ap"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/wire"
)

// encodeState returns d's state as a one-section snapshot file.
func encodeState(d *Detector) []byte {
	var sw wire.StateWriter
	sw.Reset()
	sw.Begin(1)
	d.WriteState(&sw)
	sw.End()
	return sw.Close()
}

// decodeState reads a file from encodeState into a fresh detector,
// requiring the section to be consumed exactly.
func decodeState(t *testing.T, data []byte, cfg Config, repFor func(trace.ObjID) (ap.Rep, error)) *Detector {
	t.Helper()
	sr, err := wire.NewStateReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	if err := d.ReadState(sr, repFor); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after the detector section: %v, want the end marker", err)
	}
	return d
}

// runSplit stamps tr and feeds it through a detector whose state is
// written at the split point and read into a fresh one (split < 0 disables
// the handoff), compacting every compactEvery events. It returns the imported
// (or sole) detector and the concatenated OnRace stream.
func runSplit(t *testing.T, tr *trace.Trace, reps map[trace.ObjID]ap.Rep,
	engine Engine, split, compactEvery int) (*Detector, []string) {
	t.Helper()
	var raceLog []string
	cfg := Config{Engine: engine, MaxRaces: 1 << 20,
		OnRace: func(r Race) { raceLog = append(raceLog, r.String()) }}
	repFor := func(obj trace.ObjID) (ap.Rep, error) {
		rep, ok := reps[obj]
		if !ok {
			return nil, fmt.Errorf("no rep for o%d", obj)
		}
		return rep, nil
	}
	d := New(cfg)
	for obj, rep := range reps {
		d.Register(obj, rep)
	}
	en := hb.New()
	for i := range tr.Events {
		if i == split {
			d2 := decodeState(t, encodeState(d), cfg, repFor)
			for obj, rep := range reps {
				d2.Register(obj, rep)
			}
			// Keep driving the old detector to prove the decoded one is
			// independent of it.
			d.Compact(en.MeetLive())
			d = d2
		}
		e := &tr.Events[i]
		if _, err := en.Process(e); err != nil {
			t.Fatal(err)
		}
		if err := d.Process(e); err != nil {
			t.Fatal(err)
		}
		if compactEvery > 0 && i > 0 && i%compactEvery == 0 {
			d.Compact(en.MeetLive())
		}
	}
	d.FlushObs()
	return d, raceLog
}

func stateReps(n int) map[trace.ObjID]ap.Rep {
	reps := map[trace.ObjID]ap.Rep{}
	for o := 0; o < n; o++ {
		reps[trace.ObjID(o)] = ap.DictRep{}
	}
	return reps
}

// A detector rebuilt from its encoded state at any split point must report the
// remaining races identically to the uninterrupted run and land on the same
// stats — across compaction, spilled tables, promoted clocks, and object
// death, for both engines.
func TestDetectorExportImportDifferential(t *testing.T) {
	type caseT struct {
		name         string
		tr           *trace.Trace
		reps         map[trace.ObjID]ap.Rep
		compactEvery int
	}
	var cases []caseT
	for seed := int64(1); seed <= 3; seed++ {
		gcfg := trace.GenConfig{Threads: 4, Objects: 3, Keys: 12, Vals: 3, Locks: 2,
			OpsMin: 120, OpsMax: 240, PSize: 10, PGet: 30, PLocked: 30, PRemove: 20}
		tr := trace.Generate(rand.New(rand.NewSource(seed)), gcfg)
		cases = append(cases,
			caseT{fmt.Sprintf("gen%d", seed), tr, stateReps(gcfg.Objects), 0},
			caseT{fmt.Sprintf("gen%d-compact", seed), tr, stateReps(gcfg.Objects), 25},
		)
	}
	tr, reps := churnTrace(8, 30) // spill + growth + die/reclaim
	cases = append(cases, caseT{"churn", tr, reps, 0})

	for _, tc := range cases {
		for _, engine := range []Engine{EngineAuto, EngineEnumerating} {
			want, wantLog := runSplit(t, tc.tr, tc.reps, engine, -1, tc.compactEvery)
			for split := 0; split <= tc.tr.Len(); split += 1 + tc.tr.Len()/5 {
				got, gotLog := runSplit(t, tc.tr, tc.reps, engine, split, tc.compactEvery)
				if len(gotLog) != len(wantLog) {
					t.Fatalf("%s/%v split %d: %d races, want %d",
						tc.name, engine, split, len(gotLog), len(wantLog))
				}
				for i := range wantLog {
					if gotLog[i] != wantLog[i] {
						t.Fatalf("%s/%v split %d: race %d:\n  got  %s\n  want %s",
							tc.name, engine, split, i, gotLog[i], wantLog[i])
					}
				}
				if gs, ws := got.Stats(), want.Stats(); gs != ws {
					t.Fatalf("%s/%v split %d: stats diverge:\n  got  %+v\n  want %+v",
						tc.name, engine, split, gs, ws)
				}
				if gd, wd := got.DistinctObjects(), want.DistinctObjects(); gd != wd {
					t.Fatalf("%s/%v split %d: distinct %d, want %d",
						tc.name, engine, split, gd, wd)
				}
			}
		}
	}
}

// Encoding must survive a round through itself: the detector decoded from
// a snapshot encodes to the same bytes (deterministic ordering).
func TestDetectorExportDeterministic(t *testing.T) {
	tr, reps := churnTrace(6, 20)
	repFor := func(obj trace.ObjID) (ap.Rep, error) { return reps[obj], nil }
	d, _ := runSplit(t, tr, reps, EngineAuto, -1, 0)
	a := encodeState(d)
	b := encodeState(decodeState(t, a, Config{MaxRaces: 1 << 20}, repFor))
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding not stable across a round trip:\n%x\nvs\n%x", a, b)
	}
}

// A snapshot that frames and decodes cleanly but repeats a point or an
// object describes no detector: ReadState must refuse it.
func TestDetectorReadStateRejectsDuplicates(t *testing.T) {
	repFor := func(trace.ObjID) (ap.Rep, error) { return ap.DictRep{}, nil }
	var sw wire.StateWriter
	point := func() {
		sw.Varint(1)                // class
		sw.Value(trace.IntValue(5)) // value
		sw.Varint(0)                // epoch tid
		sw.Uvarint(1)               // epoch clock
		sw.VC(nil)
		sw.Action(trace.Action{Obj: 3, Method: "put"})
		sw.Varint(0) // last thread
		sw.Varint(1) // last seq
	}
	for _, tc := range []struct {
		name string
		body func()
	}{
		{"point", func() {
			sw.Uvarint(1) // objects
			sw.Varint(3)
			sw.Uvarint(2)
			point()
			point()
		}},
		{"object", func() {
			sw.Uvarint(2)
			for i := 0; i < 2; i++ {
				sw.Varint(3)
				sw.Uvarint(1)
				point()
			}
		}},
	} {
		sw.Reset()
		sw.Begin(1)
		tc.body()
		sw.Uvarint(0)            // racy objects
		for i := 0; i < 8; i++ { // dead racy, seven counters
			sw.Varint(0)
		}
		sw.End()
		sr, err := wire.NewStateReader(bytes.NewReader(sw.Close()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		if err := New(Config{}).ReadState(sr, repFor); err == nil {
			t.Errorf("%s repeated: ReadState accepted it", tc.name)
		}
	}
}

// The suppression window: a restored reporter replays already-durable
// records silently, keeps numbering intact, and resumes writing past the
// mark.
func TestSessionReporterRestore(t *testing.T) {
	var buf1, buf2 []byte
	mk := func(buf *[]byte) *SessionReporter {
		rw := NewReportWriter(writerFunc(func(p []byte) (int, error) {
			*buf = append(*buf, p...)
			return len(p), nil
		}))
		return rw.Session("s1")
	}
	race := Race{Obj: 3, First: trace.Action{Obj: 3, Method: "put"},
		Second: trace.Action{Obj: 3, Method: "get"}}

	// Uninterrupted: four records.
	sr := mk(&buf1)
	for i := 0; i < 4; i++ {
		if err := sr.Write(race, "dict"); err != nil {
			t.Fatal(err)
		}
	}

	// Restarted: two records before the crash, then a reporter restored to
	// snapshot seq 1 with durable mark 2 regenerates records 2..4.
	sr2 := mk(&buf2)
	for i := 0; i < 2; i++ {
		if err := sr2.Write(race, "dict"); err != nil {
			t.Fatal(err)
		}
	}
	sr2.Restore(1, 2)
	if got := sr2.Seq(); got != 1 {
		t.Fatalf("Seq after Restore = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if err := sr2.Write(race, "dict"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sr2.Seq(); got != 4 {
		t.Fatalf("Seq after replay = %d, want 4", got)
	}
	if string(buf1) != string(buf2) {
		t.Fatalf("restored stream diverges:\n%s\nvs\n%s", buf1, buf2)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// Once its buffers have grown, encoding a detector allocates nothing: a
// checkpoint's only copy of the state is its bytes.
func TestDetectorWriteStateZeroAlloc(t *testing.T) {
	gcfg := trace.GenConfig{Threads: 4, Objects: 3, Keys: 12, Vals: 3, Locks: 2,
		OpsMin: 120, OpsMax: 240, PSize: 10, PGet: 30, PLocked: 30, PRemove: 20}
	tr := trace.Generate(rand.New(rand.NewSource(1)), gcfg)
	d, _ := runSplit(t, tr, stateReps(gcfg.Objects), EngineAuto, -1, 0)
	spilled := false
	for _, os := range d.objects {
		spilled = spilled || os.table != nil
	}
	if !spilled {
		t.Fatal("no object spilled; the table path is not exercised")
	}
	var sw wire.StateWriter
	encode := func() {
		sw.Begin(1)
		d.WriteState(&sw)
	}
	encode()
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("WriteState allocates %.1f times per call; want 0", allocs)
	}
}
