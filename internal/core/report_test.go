package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
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
		buf = appendRecord(buf[:len("prefix|")], c.session, c.seq, &c.r, c.spec)
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
