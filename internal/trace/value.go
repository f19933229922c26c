// Package trace defines the execution model of the paper (Section 3.1):
// runtime values, actions o.m(ū)/v̄, events, and traces, together with a
// deterministic text encoding used by the command-line tools and tests.
package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the variants of a Value.
type Kind uint8

// The value kinds. Nil is the special no-value of the paper's dictionaries.
const (
	Nil Kind = iota
	Int
	Str
	Bool
)

func (k Kind) String() string {
	switch k {
	case Nil:
		return "nil"
	case Int:
		return "int"
	case Str:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a runtime argument or return value of an action. It is a small
// comparable variant type, so Values can be compared with == and used as map
// keys (access points embed the witnessed value).
type Value struct {
	kind Kind
	i    int64
	s    string
}

// NilValue is the distinguished no-value nil.
var NilValue = Value{}

// IntValue returns the integer value v.
func IntValue(v int64) Value { return Value{kind: Int, i: v} }

// StrValue returns the string value s.
func StrValue(s string) Value { return Value{kind: Str, s: s} }

// BoolValue returns the boolean value b.
func BoolValue(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: Bool, i: i}
}

// Kind returns the variant of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the no-value nil.
func (v Value) IsNil() bool { return v.kind == Nil }

// Int returns the integer payload; it is zero for non-integer values.
func (v Value) Int() int64 { return v.i }

// Str returns the string payload; it is empty for non-string values.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload; it is false for non-boolean values.
func (v Value) Bool() bool { return v.kind == Bool && v.i != 0 }

// Hash returns a 64-bit structural hash of the value, suitable for
// open-addressed tables keyed by values (or by structs embedding them,
// like ap.Point). Equal values hash equal; the hash never allocates and
// never formats. String payloads are hashed with FNV-1a, scalar payloads
// are mixed through a splitmix64 finalizer so dense integer keys spread
// over power-of-two tables.
func (v Value) Hash() uint64 {
	h := uint64(v.kind)
	if v.kind == Str {
		// FNV-1a over the string bytes, seeded with the kind.
		h ^= 14695981039346656037
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= 1099511628211
		}
		return h
	}
	return mix64(h<<56 ^ uint64(v.i))
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Less imposes a total order on values: by kind, then payload. It exists so
// specs may use ordered atoms (x < y) in the LB fragment and so dumps are
// deterministic.
func (v Value) Less(w Value) bool {
	if v.kind != w.kind {
		return v.kind < w.kind
	}
	switch v.kind {
	case Str:
		return v.s < w.s
	default:
		return v.i < w.i
	}
}

// String renders the value in the trace syntax: nil, integers, true/false,
// or a double-quoted string.
func (v Value) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String form of the value to dst and returns the
// extended slice. It never formats through fmt, so report encoders can
// render values into a reused buffer without allocating.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.kind {
	case Nil:
		return append(dst, "nil"...)
	case Int:
		return strconv.AppendInt(dst, v.i, 10)
	case Bool:
		return strconv.AppendBool(dst, v.i != 0)
	case Str:
		return strconv.AppendQuote(dst, v.s)
	default:
		return strconv.AppendUint(append(dst, "?kind"...), uint64(v.kind), 10)
	}
}

// ParseValue parses the String form of a value.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "nil":
		return NilValue, nil
	case s == "true":
		return BoolValue(true), nil
	case s == "false":
		return BoolValue(false), nil
	case len(s) >= 2 && s[0] == '"':
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("trace: bad string value %s: %v", s, err)
		}
		return StrValue(u), nil
	default:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("trace: bad value %q", s)
		}
		return IntValue(i), nil
	}
}

// Values formats a tuple of values as "a, b, c".
func Values(vs []Value) string { return string(AppendValues(nil, vs)) }

// AppendValues appends the Values form of vs to dst.
func AppendValues(dst []byte, vs []Value) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.AppendTo(dst)
	}
	return dst
}
