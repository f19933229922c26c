package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ap"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestReportWriterJSONL runs the Fig 3 trace with every race streamed
// through a ReportWriter and checks the JSONL output: one valid object per
// line carrying both sides' actions, threads, points, and clocks.
func TestReportWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	rw := NewReportWriter(&buf)
	d := newDictDetector(Config{OnRace: func(r Race) {
		if err := rw.Write(r, "dict"); err != nil {
			t.Fatal(err)
		}
	}})
	if err := d.RunTrace(fig3Trace()); err != nil {
		t.Fatal(err)
	}
	if rw.Count() != d.Stats().Races || rw.Count() == 0 {
		t.Fatalf("wrote %d records, detector found %d races", rw.Count(), d.Stats().Races)
	}

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec RaceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Spec != "dict" {
			t.Errorf("line %d: spec = %q, want dict", lines, rec.Spec)
		}
		if rec.First.Method == "" || rec.Second.Method == "" {
			t.Errorf("line %d: missing method: %+v", lines, rec)
		}
		if rec.First.Thread == rec.Second.Thread {
			t.Errorf("line %d: both sides on t%d", lines, rec.First.Thread)
		}
		if len(rec.Second.Clock) == 0 {
			t.Errorf("line %d: second side has no clock", lines)
		}
		if !strings.Contains(rec.First.Action, rec.First.Method) {
			t.Errorf("line %d: action %q does not mention method %q",
				lines, rec.First.Action, rec.First.Method)
		}
		if rec.First.Point == "" || rec.Second.Point == "" {
			t.Errorf("line %d: missing access point: %+v", lines, rec)
		}
	}
	if lines != rw.Count() {
		t.Fatalf("output has %d lines, writer counted %d", lines, rw.Count())
	}
}

// TestReportWriterConcurrent exercises the writer from many goroutines (the
// pipeline's OnRace callbacks run on shard goroutines) and checks every
// line stays a valid, untorn JSON object.
func TestReportWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rw := NewReportWriter(&buf)
	race := Race{Obj: 1, SecondClock: []uint64{1, 2}, FirstClock: []uint64{2, 1}}
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := rw.Write(race, "dict"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if rw.Count() != writers*per {
		t.Fatalf("count = %d, want %d", rw.Count(), writers*per)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec RaceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("torn line %d: %v", lines, err)
		}
	}
	if lines != writers*per {
		t.Fatalf("lines = %d, want %d", lines, writers*per)
	}
}

// TestAppendRecordMatchesEncodingJSON holds the hand-written record
// encoder to encoding/json byte for byte: fixed edge cases first (every
// escape class, nil vs empty clocks, zero seq, negative values), then
// seeded random records drawn from the same hostile alphabet.
func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	type tc struct {
		session string
		seq     uint64
		spec    string
		r       Race
	}
	var edge []string
	edge = append(edge, "", `"`, `\`, "<", ">", "&", "\u007f", "é", "日本",
		"\u2028", "\u2029", "\xff", "\xc3", "\xed\xa0\x80", "a\u2028b\xfe<c>", `q"uo\te`)
	for b := 0; b < 0x20; b++ {
		edge = append(edge, string(rune(b)))
	}
	act := func(method string, args ...trace.Value) trace.Action {
		return trace.Action{Obj: 3, Method: method, Args: args, Rets: []trace.Value{trace.NilValue}}
	}
	cases := []tc{
		{r: Race{}},
		{session: "s", seq: 1, spec: "dict", r: Race{
			Obj:   -2,
			First: act("put", trace.IntValue(-7), trace.BoolValue(true)), FirstThread: 1, FirstSeq: 4,
			FirstClock: vclock.VC{}, FirstPoint: "put(-7)",
			Second: act("get"), SecondThread: 2, SecondSeq: 9, SecondClock: vclock.VC{0, ^uint64(0)},
		}},
	}
	for _, s := range edge {
		cases = append(cases, tc{session: s, spec: s, r: Race{
			First: act(s, trace.StrValue(s)), FirstPoint: s, FirstClock: vclock.VC{1},
			Second: act("m"+s+"m", trace.StrValue(s+s)), SecondPoint: s + s,
		}})
	}

	rng := rand.New(rand.NewSource(1))
	str := func() string {
		var b []byte
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(3) == 0 {
				b = append(b, byte(rng.Intn(256)))
			} else {
				b = append(b, edge[rng.Intn(len(edge))]...)
			}
		}
		return string(b)
	}
	values := func() []trace.Value {
		var vs []trace.Value
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				vs = append(vs, trace.NilValue)
			case 1:
				vs = append(vs, trace.IntValue(rng.Int63()-rng.Int63()))
			case 2:
				vs = append(vs, trace.BoolValue(rng.Intn(2) == 0))
			default:
				vs = append(vs, trace.StrValue(str()))
			}
		}
		return vs
	}
	clock := func() vclock.VC {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return vclock.VC{}
		}
		c := make(vclock.VC, 1+rng.Intn(5))
		for i := range c {
			c[i] = rng.Uint64() >> uint(rng.Intn(64))
		}
		return c
	}
	action := func() trace.Action {
		return trace.Action{Obj: trace.ObjID(rng.Intn(100) - 10), Method: str(), Args: values(), Rets: values()}
	}
	for i := 0; i < 20000; i++ {
		var seq uint64
		if rng.Intn(3) > 0 {
			seq = rng.Uint64() >> uint(rng.Intn(64))
		}
		cases = append(cases, tc{session: str(), seq: seq, spec: str(), r: Race{
			Obj:   trace.ObjID(rng.Intn(1000) - 100),
			First: action(), FirstThread: vclock.Tid(rng.Intn(64)), FirstSeq: rng.Intn(1<<30) - 5,
			FirstClock: clock(), FirstPoint: str(),
			Second: action(), SecondThread: vclock.Tid(rng.Intn(64)), SecondSeq: rng.Intn(1 << 30),
			SecondClock: clock(), SecondPoint: str(),
		}})
	}

	buf := []byte("prefix|")
	for i, c := range cases {
		rec := c.r.Record(c.spec)
		rec.Session, rec.Seq = c.session, c.seq
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		buf = appendRecord(buf[:len("prefix|")], jsonLiteral(c.session), c.seq, &c.r, jsonLiteral(c.spec))
		if got := buf[len("prefix|"):]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want.Bytes())
		}
		if string(buf[:len("prefix|")]) != "prefix|" {
			t.Fatalf("case %d: prefix clobbered: %q", i, buf)
		}
	}
}

// reportRace is a typical racy-workload record: two dictionary puts on the
// same key from unordered threads.
func reportRace() Race {
	put := func(v int64) trace.Action {
		return trace.Action{Obj: 2, Method: "put",
			Args: []trace.Value{trace.StrValue("k13"), trace.IntValue(v)}, Rets: []trace.Value{trace.IntValue(v - 1)}}
	}
	return Race{
		Obj:    2,
		Second: put(7), SecondThread: 3, SecondSeq: 18211, SecondPoint: `put("k13")`,
		SecondClock: vclock.VC{1, 4512, 4490, 4532, 4470},
		First:       put(5), FirstThread: 1, FirstSeq: 18207, FirstPoint: `put("k13")`,
		FirstClock: vclock.VC{1, 4530, 4488, 4529, 4468},
	}
}

// TestReportWriteZeroAlloc pins the steady-state report path at zero
// allocations: once the encoding buffer has grown, a record costs none.
func TestReportWriteZeroAlloc(t *testing.T) {
	sr := NewReportWriter(io.Discard).Session("conn-1")
	r := reportRace()
	sr.Write(r, "dict")
	if n := testing.AllocsPerRun(100, func() { sr.Write(r, "dict") }); n != 0 {
		t.Fatalf("SessionReporter.Write allocates %.1f times per record, want 0", n)
	}
}

// BenchmarkReportWrite measures one session-stamped race record encoded
// and written (to io.Discard), after a warm-up that grows the buffer.
func BenchmarkReportWrite(b *testing.B) {
	sr := NewReportWriter(io.Discard).Session("conn-1")
	r := reportRace()
	sr.Write(r, "dict")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sr.Write(r, "dict"); err != nil {
			b.Fatal(err)
		}
	}
}

// hostileStrings covers every escape class of appendJSONString: quotes and
// backslashes, HTML characters, control bytes, U+2028/U+2029, non-ASCII and
// invalid UTF-8.
var hostileStrings = []string{`q"uo\te`, "<a&b>", "\x00\x01\x1f", "\u2028", "\u2029x",
	"\xff\xfe", "日本", "é\xc3", "\ttab\n", "plain"}

// hostileTrace is racy dictionary traffic (no locks, few objects) whose
// string keys are rewritten, injectively, into hostileStrings, so access
// points and actions carry every escape class into the race records.
func hostileTrace(seed int64, ops int) *trace.Trace {
	tr := trace.Generate(rand.New(rand.NewSource(seed)), trace.GenConfig{
		Threads: 4, Objects: 3, Keys: len(hostileStrings), Vals: 4,
		OpsMin: ops, OpsMax: ops, PSize: 5, PGet: 35, PRemove: 20})
	rewrite := func(vs []trace.Value) {
		for i, v := range vs {
			if v.Kind() == trace.Str {
				var k int
				if _, err := fmt.Sscanf(v.Str(), "k%d", &k); err == nil {
					vs[i] = trace.StrValue(hostileStrings[k])
				}
			}
		}
	}
	for i := range tr.Events {
		if a := &tr.Events[i].Act; tr.Events[i].Kind == trace.ActionEvent {
			rewrite(a.Args)
			rewrite(a.Rets)
		}
	}
	return tr
}

// TestFragmentRecordsMatchEncodingJSON holds the fragment path to
// encoding/json: every race a Detector hands to OnRace, written through a
// SessionReporter, must produce the bytes encoding/json gives for the same
// race found by RefDetector (which carries no fragments), and the record
// built from the race's fragments must equal the one built after they are
// stripped. Traces cover hostile strings, the example corpus, compaction
// (table rebuilds move the memos) and object churn (reclaim drops them);
// each runs with every race retained and with a cap of 3, where races
// borrow the detector's live clocks.
func TestFragmentRecordsMatchEncodingJSON(t *testing.T) {
	const session, spec = "s\u2028<&>\"\x01\xff", "dict\"<>\u2029\xfe"
	type input struct {
		name    string
		tr      *trace.Trace
		reps    map[trace.ObjID]ap.Rep
		compact int
	}
	var inputs []input
	for seed := int64(0); seed < 8; seed++ {
		tr := hostileTrace(seed, 60)
		inputs = append(inputs, input{fmt.Sprintf("hostile/%d", seed), tr, objReps(tr), 0},
			input{fmt.Sprintf("hostile-compact/%d", seed), tr, objReps(tr), 5})
	}
	churn, churnReps := churnTrace(6, 20)
	inputs = append(inputs, input{"churn", churn, churnReps, 0})
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example traces found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := wire.ParseAny(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"corpus/" + filepath.Base(path), tr, objReps(tr), 0})
	}

	sessLit, specLit := jsonLiteral(session), jsonLiteral(spec)
	for _, in := range inputs {
		for _, maxRaces := range []int{1 << 20, 3} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			seq := uint64(0)
			ref := NewReference(Config{MaxRaces: maxRaces, OnRace: func(r Race) {
				seq++
				rec := r.Record(spec)
				rec.Session, rec.Seq = session, seq
				if err := enc.Encode(rec); err != nil {
					t.Fatal(err)
				}
			}})
			var got bytes.Buffer
			sr := NewReportWriter(&got).Session(session)
			var fragged int
			d := New(Config{MaxRaces: maxRaces, OnRace: func(r Race) {
				if r.enc != nil {
					fragged++
				}
				plain := r
				plain.enc = nil
				a := appendRecord(nil, sessLit, 1, &r, specLit)
				if b := appendRecord(nil, sessLit, 1, &plain, specLit); !bytes.Equal(a, b) {
					t.Fatalf("%s: fragments diverge from fields:\nfrag  %s\nplain %s", in.name, a, b)
				}
				if err := sr.Write(r, spec); err != nil {
					t.Fatal(err)
				}
			}})
			for obj, rep := range in.reps {
				d.Register(obj, rep)
				ref.Register(obj, rep)
			}
			en := hb.New()
			for i := range in.tr.Events {
				e := &in.tr.Events[i]
				if _, err := en.Process(e); err != nil {
					t.Fatal(err)
				}
				if err := d.Process(e); err != nil {
					t.Fatal(err)
				}
				if err := ref.Process(e); err != nil {
					t.Fatal(err)
				}
				if in.compact > 0 && i%in.compact == 0 {
					meet := en.MeetLive()
					d.Compact(meet)
					ref.Compact(meet)
				}
			}
			if fragged != d.Stats().Races {
				t.Fatalf("%s: %d of %d races carried fragments", in.name, fragged, d.Stats().Races)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s (max races %d): report diverges from encoding/json:\ngot:\n%s\nwant:\n%s",
					in.name, maxRaces, got.String(), want.String())
			}
		}
	}
}

// objReps registers the dictionary rep for every object tr acts on.
func objReps(tr *trace.Trace) map[trace.ObjID]ap.Rep {
	reps := map[trace.ObjID]ap.Rep{}
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.ActionEvent {
			reps[tr.Events[i].Act.Obj] = dictRep
		}
	}
	return reps
}

// racyTrace generates and stamps the shape of rd2d's racy traffic: four
// unlocked threads on four hot dictionaries, about 1.6 races per action.
func racyTrace(tb testing.TB, opsPerThread int) *trace.Trace {
	tb.Helper()
	tr := trace.Generate(rand.New(rand.NewSource(1)), trace.GenConfig{
		Threads: 4, Objects: 4, Keys: 10, Vals: 8,
		OpsMin: opsPerThread, OpsMax: opsPerThread, PSize: 2, PGet: 40, PRemove: 10})
	en := hb.New()
	for i := range tr.Events {
		if _, err := en.Process(&tr.Events[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// reportRun streams a stamped trace through a Detector whose every race is
// written by a SessionReporter to io.Discard.
func reportRun(tb testing.TB, tr *trace.Trace, maxRaces int) *Detector {
	sr := NewReportWriter(io.Discard).Session("conn-1")
	d := New(Config{MaxRaces: maxRaces, OnRace: func(r Race) {
		if err := sr.Write(r, "dict"); err != nil {
			tb.Fatal(err)
		}
	}})
	for obj, rep := range objReps(tr) {
		d.Register(obj, rep)
	}
	for i := range tr.Events {
		if err := d.Process(&tr.Events[i]); err != nil {
			tb.Fatal(err)
		}
	}
	d.FlushObs()
	return d
}

// TestReportSlabBounded: races past the MaxRaces cap are handed to OnRace
// without being copied into the never-recycled report slab, so the arena a
// quota is charged for stays put while the race count grows tenfold.
func TestReportSlabBounded(t *testing.T) {
	small := reportRun(t, racyTrace(t, 5000), 100)
	big := reportRun(t, racyTrace(t, 50000), 100)
	if small.Stats().Races < 10000 || big.Stats().Races < 9*small.Stats().Races {
		t.Fatalf("races %d and %d: the traces are not racy enough to test the slab",
			small.Stats().Races, big.Stats().Races)
	}
	const slack = 64 << 10
	if sb, bb := small.ArenaBytes(), big.ArenaBytes(); bb > sb+slack {
		t.Fatalf("arena grew from %d B at %d races to %d B at %d races (slack %d B)",
			sb, small.Stats().Races, bb, big.Stats().Races, slack)
	}
}

// BenchmarkDetectorReport measures the report layer end to end: a stamped
// racy trace (20K events, about 32K races) through a Detector into a
// SessionReporter writing to io.Discard, with rd2d's default retention cap.
// ns/race is the headline; allocs/op must not grow with the race count.
func BenchmarkDetectorReport(b *testing.B) {
	tr := racyTrace(b, 5000)
	races := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		races = reportRun(b, tr, 100).Stats().Races
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*races), "ns/race")
}
