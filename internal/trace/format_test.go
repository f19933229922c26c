package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestActionString(t *testing.T) {
	a := Action{Obj: 3, Method: "put", Args: []Value{StrValue("a.com"), IntValue(1)}, Rets: []Value{NilValue}}
	if got, want := a.String(), `o3.put("a.com", 1)/nil`; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	b := Action{Obj: 0, Method: "size", Rets: []Value{IntValue(2)}}
	if got, want := b.String(), "o0.size()/2"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	c := Action{Obj: 1, Method: "clear"}
	if got, want := c.String(), "o1.clear()"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if got, want := string(a.AppendTo([]byte("t1 act "))), `t1 act o3.put("a.com", 1)/nil`; got != want {
		t.Fatalf("AppendTo: got %q want %q", got, want)
	}
}

func TestActionOperands(t *testing.T) {
	a := Action{Method: "put", Args: []Value{IntValue(1), IntValue(2)}, Rets: []Value{IntValue(3)}}
	ops := a.Operands()
	if len(ops) != 3 || ops[0] != IntValue(1) || ops[2] != IntValue(3) {
		t.Fatalf("Operands = %v", ops)
	}
}

func TestParseAction(t *testing.T) {
	cases := []string{
		`o0.put("a.com", 1)/nil`,
		`o12.get("k")/nil`,
		`o1.size()/7`,
		`o2.transfer(1, 2, 50)/true, 950`,
		`o3.reset()`,
		`o4.put("comma, (paren", nil)/"x"`,
	}
	for _, s := range cases {
		a, err := ParseAction(s)
		if err != nil {
			t.Fatalf("ParseAction(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseActionErrors(t *testing.T) {
	for _, s := range []string{
		"", "put(1)", "o.put(1)", "o1put(1)", "o1.(1)", "o1.put 1",
		"o1.put(1", `o1.put("x)`, "o1.put(1)2", "o1.put(1)/",
	} {
		if _, err := ParseAction(s); err == nil {
			t.Errorf("ParseAction(%q) should fail", s)
		}
	}
}

func TestEventStringParseRoundTrip(t *testing.T) {
	lines := []string{
		"t0 fork t1",
		"t1 join t2",
		"t3 acq l0",
		"t3 rel l0",
		"t2 read v7",
		"t2 write v7",
		"t0 begin",
		"t0 end",
		"t1 die o4",
		"t0 send c2",
		"t1 recv c2",
		`t1 act o0.put("a.com", 1)/nil`,
		"t0 act o0.size()/1",
	}
	for _, line := range lines {
		e, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", line, err)
		}
		if got := e.String(); got != line {
			t.Fatalf("round trip %q -> %q", line, got)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	for _, line := range []string{
		"", "fork t1", "t0 fork", "t0 fork l1", "t0 frob t1",
		"t0 acq t1", "t0 read o1", "t0 die t1", "tx act o0.f()",
		"t0 act", "t0 act put(1)",
	} {
		if _, err := ParseEvent(line); err == nil {
			t.Errorf("ParseEvent(%q) should fail", line)
		}
	}
}

func TestTraceParseIgnoresCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
t0 fork t1

t1 act o0.get("k")/nil
# done
`
	tr, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("got %d events, want 2", tr.Len())
	}
	if tr.Events[0].Seq != 0 || tr.Events[1].Seq != 1 {
		t.Fatal("sequence numbers not assigned")
	}
}

func TestTraceParseReportsLine(t *testing.T) {
	_, err := ParseString("t0 fork t1\nbogus line\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestTraceFormatRoundTrip(t *testing.T) {
	b := NewBuilder().
		Fork(0, 1).Fork(0, 2).
		Put(1, 0, StrValue("a.com"), IntValue(1), NilValue).
		Put(2, 0, StrValue("a.com"), IntValue(2), IntValue(1)).
		Acquire(1, 3).Release(1, 3).
		Join(0, 1).Join(0, 2).
		Size(0, 0, 1).
		Die(0, 0)
	tr := b.Trace()
	text := Format(tr)
	back, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("length %d -> %d", tr.Len(), back.Len())
	}
	for i := range tr.Events {
		if tr.Events[i].String() != back.Events[i].String() {
			t.Fatalf("event %d: %q -> %q", i, tr.Events[i].String(), back.Events[i].String())
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := NewBuilder().
		Fork(0, 5).
		Get(5, 1, StrValue("k"), NilValue).
		Size(0, 1, 0).
		Trace()
	if got := tr.Threads(); got != 6 {
		t.Fatalf("Threads = %d, want 6", got)
	}
	if got := len(tr.Actions()); got != 2 {
		t.Fatalf("Actions = %d, want 2", got)
	}
	empty := &Trace{}
	if empty.Threads() != 0 || empty.Len() != 0 {
		t.Fatal("empty trace accounting broken")
	}
}

func TestJoinAllBuilder(t *testing.T) {
	tr := NewBuilder().JoinAll(0, 1, 2, 3).Trace()
	if tr.Len() != 3 {
		t.Fatalf("JoinAll emitted %d events", tr.Len())
	}
	for i, e := range tr.Events {
		if e.Kind != JoinEvent || e.Thread != 0 || int(e.Other) != i+1 {
			t.Fatalf("event %d = %v", i, e)
		}
	}
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		ForkEvent: "fork", JoinEvent: "join", AcquireEvent: "acq",
		ReleaseEvent: "rel", ActionEvent: "act", ReadEvent: "read",
		WriteEvent: "write", BeginEvent: "begin", EndEvent: "end",
		DieEvent: "die", EventKind(77): "EventKind(77)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind %d: got %q want %q", k, got, want)
		}
	}
}

func TestPropGeneratedTracesRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := Generate(r, cfg)
		back, err := ParseString(Format(tr))
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Events {
			if tr.Events[i].String() != back.Events[i].String() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropGeneratedTracesWellFormed(t *testing.T) {
	cfg := DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := Generate(r, cfg)
		// Every worker action happens after its fork and before its join;
		// lock ops are balanced per thread.
		forked := map[int]bool{0: true}
		joined := map[int]bool{}
		held := map[int]map[LockID]bool{}
		for _, e := range tr.Events {
			tid := int(e.Thread)
			if !forked[tid] || joined[tid] {
				return false
			}
			switch e.Kind {
			case ForkEvent:
				if forked[int(e.Other)] {
					return false
				}
				forked[int(e.Other)] = true
			case JoinEvent:
				joined[int(e.Other)] = true
			case AcquireEvent:
				if held[tid] == nil {
					held[tid] = map[LockID]bool{}
				}
				if held[tid][e.Lock] {
					return false
				}
				held[tid][e.Lock] = true
			case ReleaseEvent:
				if !held[tid][e.Lock] {
					return false
				}
				delete(held[tid], e.Lock)
			}
		}
		for _, h := range held {
			if len(h) != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropGeneratedDictReturnsConsistent(t *testing.T) {
	// Replaying the generated trace against a reference dictionary must
	// reproduce the recorded return values (the trace is realizable).
	cfg := DefaultGenConfig()
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := Generate(r, cfg)
		dicts := map[ObjID]map[Value]Value{}
		stateOf := func(o ObjID) map[Value]Value {
			if dicts[o] == nil {
				dicts[o] = map[Value]Value{}
			}
			return dicts[o]
		}
		for _, e := range tr.Events {
			if e.Kind != ActionEvent {
				continue
			}
			d := stateOf(e.Act.Obj)
			switch e.Act.Method {
			case "put":
				prev, ok := d[e.Act.Args[0]]
				if !ok {
					prev = NilValue
				}
				if e.Act.Rets[0] != prev {
					return false
				}
				d[e.Act.Args[0]] = e.Act.Args[1]
			case "get":
				cur, ok := d[e.Act.Args[0]]
				if !ok {
					cur = NilValue
				}
				if e.Act.Rets[0] != cur {
					return false
				}
			case "size":
				var n int64
				for _, v := range d {
					if !v.IsNil() {
						n++
					}
				}
				if e.Act.Rets[0] != IntValue(n) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}
