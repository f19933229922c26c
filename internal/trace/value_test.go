package trace

import (
	"testing"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !NilValue.IsNil() || NilValue.Kind() != Nil {
		t.Fatal("NilValue must be nil-kinded")
	}
	v := IntValue(42)
	if v.Kind() != Int || v.Int() != 42 || v.IsNil() {
		t.Fatalf("IntValue broken: %v", v)
	}
	s := StrValue("hi")
	if s.Kind() != Str || s.Str() != "hi" {
		t.Fatalf("StrValue broken: %v", s)
	}
	bt, bf := BoolValue(true), BoolValue(false)
	if !bt.Bool() || bf.Bool() {
		t.Fatal("BoolValue broken")
	}
	if bt == bf {
		t.Fatal("true and false must differ")
	}
}

func TestValueComparable(t *testing.T) {
	if IntValue(1) != IntValue(1) {
		t.Fatal("equal ints must be ==")
	}
	if IntValue(0) == NilValue {
		t.Fatal("int 0 is not nil")
	}
	if StrValue("") == NilValue {
		t.Fatal("empty string is not nil")
	}
	m := map[Value]int{IntValue(1): 1, StrValue("1"): 2, NilValue: 3}
	if len(m) != 3 {
		t.Fatal("values must be distinct map keys")
	}
}

func TestValueString(t *testing.T) {
	cases := map[Value]string{
		NilValue:            "nil",
		IntValue(-3):        "-3",
		BoolValue(true):     "true",
		BoolValue(false):    "false",
		StrValue("a.com"):   `"a.com"`,
		StrValue(`q"uo,te`): `"q\"uo,te"`,
		{kind: 9}:           "?kind9",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
		if got := string(v.AppendTo([]byte("x="))); got != "x="+want {
			t.Errorf("%#v.AppendTo = %q, want %q", v, got, "x="+want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{
		NilValue, IntValue(0), IntValue(-17), IntValue(1 << 40),
		BoolValue(true), BoolValue(false),
		StrValue(""), StrValue("a.com"), StrValue(`comma, "quote"`),
	}
	for _, v := range vals {
		got, err := ParseValue(v.String())
		if err != nil {
			t.Fatalf("ParseValue(%s): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %s -> %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, s := range []string{"", "abc", `"unterminated`, "12x"} {
		if _, err := ParseValue(s); err == nil {
			t.Errorf("ParseValue(%q) should fail", s)
		}
	}
}

func TestValueLessTotalOrder(t *testing.T) {
	ordered := []Value{
		NilValue,
		IntValue(-1), IntValue(0), IntValue(5),
		StrValue("a"), StrValue("b"),
		BoolValue(false), BoolValue(true),
	}
	for i := range ordered {
		for j := range ordered {
			want := i < j
			if got := ordered[i].Less(ordered[j]); got != want {
				t.Errorf("%v < %v = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValuesFormat(t *testing.T) {
	got := Values([]Value{IntValue(1), StrValue("x"), NilValue})
	if got != `1, "x", nil` {
		t.Fatalf("Values = %q", got)
	}
	if Values(nil) != "" {
		t.Fatal("empty tuple should render empty")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Nil: "nil", Int: "int", Str: "string", Bool: "bool", Kind(99): "Kind(99)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
