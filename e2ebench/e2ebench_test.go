package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The same seed gives byte-identical inputs; another seed gives other ones.
func TestInputsDeterministicBySeed(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, err := buildInput(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInput(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := buildInput(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.stream, b.stream) || !slices.Equal(a.chunks, b.chunks) || !slices.Equal(a.ref, b.ref) {
				t.Fatal("seed 1 gave two different inputs")
			}
			if bytes.Equal(a.stream, c.stream) {
				t.Fatal("seeds 1 and 2 gave the same stream")
			}
			if len(a.ref) == 0 {
				t.Fatal("workload has no races: verdict latency would have no samples")
			}
		})
	}
}

// Every chunk ends on a frame boundary after exactly the events its endSeq
// claims, and chunkOf maps each event to the chunk that carries it.
func TestChunkSeqMappingExact(t *testing.T) {
	b := trace.NewBuilder()
	b.Fork(0, 1).Fork(0, 2)
	for i := 0; i < 2*frameEvents+100; i++ {
		tid := vclock.Tid(1 + i%2)
		if i%3 == 0 {
			b.Acquire(tid, 0)
			b.Put(tid, 0, trace.StrValue("k"), trace.IntValue(int64(i)), trace.NilValue)
			b.Release(tid, 0)
		} else {
			b.Get(tid, trace.ObjID(i%5), trace.StrValue("k"), trace.NilValue)
		}
	}
	b.Join(0, 1).Join(0, 2)
	events := b.Trace().Events
	for _, resumable := range []bool{false, true} {
		in, err := encodeInput(events, resumable)
		if err != nil {
			t.Fatal(err)
		}
		if last := in.chunks[len(in.chunks)-1]; last.end != len(in.stream) || last.endSeq != len(events) {
			t.Fatalf("resumable=%v: last chunk %+v, stream %d bytes, %d events", resumable, last, len(in.stream), len(events))
		}
		full := in.fullStream()
		prefix := len(full) - len(in.stream)
		prev := 0
		for i, c := range in.chunks {
			if got := decodedEvents(t, full[:prefix+c.end]); got != c.endSeq {
				t.Fatalf("resumable=%v: chunks 0..%d decode to %d events, endSeq %d", resumable, i, got, c.endSeq)
			}
			for seq := prev; seq < c.endSeq; seq++ {
				if got := in.chunkOf(seq); got != i {
					t.Fatalf("resumable=%v: chunkOf(%d) = %d, want %d", resumable, seq, got, i)
				}
			}
			prev = c.endSeq
		}
	}
}

// decodedEvents counts the events a decoder yields from a stream prefix
// before it runs out of bytes.
func decodedEvents(t *testing.T, stream []byte) int {
	t.Helper()
	dec, err := wire.NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadHello(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := dec.Next()
		if err == io.EOF || errors.Is(err, wire.ErrTruncated) {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric name uses only [A-Za-z0-9_.-], and BENCHMARK.json lists the
// same metrics with the same units as this command prints.
func TestMetricNames(t *testing.T) {
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(s.name) {
			t.Errorf("metric name %q", s.name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, e := range def.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(def.PerLayer), len(perLayer))
	}
	for i, p := range def.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// scanRace agrees with encoding/json on records core.ReportWriter writes,
// including points that need JSON escaping.
func TestScanRaceMatchesJSON(t *testing.T) {
	var buf bytes.Buffer
	rw := core.NewReportWriter(&buf)
	sr := rw.Session("c0-s1")
	det := core.New(core.Config{OnRace: func(r core.Race) { sr.Write(r, "dict") }})
	w, _ := findWorkload("racy")
	w.gen.OpsMin, w.gen.OpsMax = 50, 50
	tr := trace.Generate(rand.New(rand.NewSource(3)), w.gen)
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < w.gen.Objects; o++ {
		det.Register(trace.ObjID(o), rep)
	}
	if err := det.RunTrace(tr); err != nil {
		t.Fatal(err)
	}
	odd := core.Race{Obj: 7, FirstSeq: 3, SecondSeq: 11, FirstPoint: `put("a\"b",<x>)`, SecondPoint: "size\\é\n",
		FirstClock: vclock.VC{1, 2}, SecondClock: vclock.VC{3}}
	rw.Write(odd, "dict")
	rw.WriteNote(map[string]string{"note": "session start", "session": "c0-s1"})
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("only %d records", len(lines))
	}
	for _, line := range lines {
		var rec core.RaceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		rl, ok, err := scanRace(line)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if rec.First.Point != "" {
				t.Fatalf("race record skipped: %s", line)
			}
			continue
		}
		if rl.session != rec.Session || rl.key.obj != rec.Object || rl.key.first != rec.First.Seq || rl.key.second != rec.Second.Seq {
			t.Fatalf("scan %+v, json %+v", rl, rec)
		}
		p1, _ := json.Marshal(rec.First.Point)
		p2, _ := json.Marshal(rec.Second.Point)
		if want := pointsHash(p1[1:len(p1)-1], p2[1:len(p2)-1]); rl.key.points != want {
			t.Fatalf("points hash differs for %s", line)
		}
	}
}

// quartiles reproduces Python's statistics.quantiles(n=4) and median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{4, 1, 3, 2, 8, 6, 9, 7, 5}, 2.5, 5, 7.5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// Windows group sessions in completion order until each holds w.conns
// sessions and minWindowVerdicts records; a short remainder joins the
// last window, and every window's span starts where the previous ended.
func TestWindows(t *testing.T) {
	w := workload{conns: 2}
	verdicts := func(n int) []float64 { return make([]float64, n) }
	sess := func(end int64, cpu time.Duration, events, races int) *sessionRun {
		s := &sessionRun{end: end, cpu: cpu, verdictMs: verdicts(races)}
		s.sum.Events = events
		return s
	}
	res := &loadResult{start: 100, cpu0: 10, sessions: []*sessionRun{
		// Listed out of completion order on purpose.
		sess(300, 40, 10, 600),
		sess(200, 20, 10, 600),
		sess(400, 70, 10, 0),
		sess(500, 90, 10, 1200),
		sess(600, 95, 10, 5),
	}}
	got := res.windows(w)
	if len(got) != 2 {
		t.Fatalf("%d windows, want 2: %+v", len(got), got)
	}
	// 200 and 300: two sessions, 1200 records.
	if g := got[0]; g.sessions != 2 || g.events != 20 || g.wall != 200 || g.cpu != 30 || len(g.verdictMs) != 1200 {
		t.Errorf("window 0 = %d sessions, %d events, wall %v, cpu %v, %d verdicts",
			g.sessions, g.events, g.wall, g.cpu, len(g.verdictMs))
	}
	// 400 and 500 fill the second; 600 alone is short and joins it.
	if g := got[1]; g.sessions != 3 || g.events != 30 || g.wall != 300 || g.cpu != 55 || len(g.verdictMs) != 1205 {
		t.Errorf("window 1 = %d sessions, %d events, wall %v, cpu %v, %d verdicts",
			g.sessions, g.events, g.wall, g.cpu, len(g.verdictMs))
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},                    // one dropped at each end
		{[]float64{9, 1, 5, 5, 5, 5, 5, 5}, 5},            // two dropped at each end
		{[]float64{1000, 4, 3, 2, 1, 6, 5, 8, 7, 0}, 4.5}, // 2..7 kept
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
