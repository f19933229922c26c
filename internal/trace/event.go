package trace

import (
	"fmt"
	"strconv"

	"repro/internal/vclock"
)

// ObjID identifies a shared object. Objects are assigned small dense ids by
// whoever constructs the trace (the monitored runtime, a parser, a test).
type ObjID int

// LockID identifies a lock.
type LockID int

// Action is a method invocation o.m(ū)/v̄ on a shared object (Section 3.1).
// Args and Rets carry the concrete arguments and return values.
type Action struct {
	Obj    ObjID
	Method string
	Args   []Value
	Rets   []Value
}

// String renders the action as o3.put("a", 1)/nil.
func (a Action) String() string { return string(a.AppendTo(nil)) }

// AppendTo appends the String form of the action to dst and returns the
// extended slice.
func (a Action) AppendTo(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, 'o'), int64(a.Obj), 10)
	dst = append(append(dst, '.'), a.Method...)
	dst = append(AppendValues(append(dst, '('), a.Args), ')')
	if len(a.Rets) > 0 {
		dst = AppendValues(append(dst, '/'), a.Rets)
	}
	return dst
}

// Operands returns the concatenation ū·v̄ numbered w_1..w_n as in the
// translation of Section 6.2 (1-based indexing is applied by callers).
func (a Action) Operands() []Value {
	out := make([]Value, 0, len(a.Args)+len(a.Rets))
	out = append(out, a.Args...)
	return append(out, a.Rets...)
}

// Operand returns the i-th operand (arguments then returns) without
// allocating; ok is false when i is out of range.
func (a Action) Operand(i int) (Value, bool) {
	if i < 0 {
		return Value{}, false
	}
	if i < len(a.Args) {
		return a.Args[i], true
	}
	i -= len(a.Args)
	if i < len(a.Rets) {
		return a.Rets[i], true
	}
	return Value{}, false
}

// Kind discriminates the event variants consumed by the analyses.
type EventKind uint8

// The event kinds. Fork/Join/Acquire/Release are the synchronization events
// of Table 1; ActionEvent is a shared-object method invocation; ReadEvent
// and WriteEvent are low-level memory accesses (consumed by the FASTTRACK
// baseline); BeginEvent and EndEvent delimit a thread's lifetime; DieEvent
// reclaims a shared object's analysis state (the Section 5.3 optimization).
const (
	ForkEvent EventKind = iota
	JoinEvent
	AcquireEvent
	ReleaseEvent
	ActionEvent
	ReadEvent
	WriteEvent
	BeginEvent
	EndEvent
	DieEvent
	// SendEvent and RecvEvent are FIFO channel operations: the i-th
	// receive on a channel happens after the i-th send (message-passing
	// edges in the happens-before relation). They extend Table 1's
	// synchronization vocabulary for Go-style programs.
	SendEvent
	RecvEvent
)

func (k EventKind) String() string {
	switch k {
	case ForkEvent:
		return "fork"
	case JoinEvent:
		return "join"
	case AcquireEvent:
		return "acq"
	case ReleaseEvent:
		return "rel"
	case ActionEvent:
		return "act"
	case ReadEvent:
		return "read"
	case WriteEvent:
		return "write"
	case BeginEvent:
		return "begin"
	case EndEvent:
		return "end"
	case DieEvent:
		return "die"
	case SendEvent:
		return "send"
	case RecvEvent:
		return "recv"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// VarID identifies a memory location for low-level read/write events.
type VarID int

// ChanID identifies a channel for send/recv events.
type ChanID int

// Event is one transition label τ:a of a trace. Exactly the fields relevant
// to Kind are meaningful:
//
//	Fork, Join:        Thread (actor) and Other (forked/awaited thread)
//	Acquire, Release:  Thread and Lock
//	Action, Die:       Thread and Act (Die uses only Act.Obj)
//	Read, Write:       Thread and Var
//	Send, Recv:        Thread and Chan
//	Begin, End:        Thread
//
// Clock is filled in by the happens-before engine when the event is stamped;
// it is nil on raw (unstamped) events. Seq is the event's position in its
// trace, assigned by Trace.Append.
type Event struct {
	Seq    int
	Kind   EventKind
	Thread vclock.Tid
	Other  vclock.Tid
	Lock   LockID
	Var    VarID
	Chan   ChanID
	Act    Action
	Clock  vclock.VC
}

// String renders the event in the trace file syntax (without the clock).
func (e Event) String() string {
	switch e.Kind {
	case ForkEvent:
		return fmt.Sprintf("t%d fork t%d", e.Thread, e.Other)
	case JoinEvent:
		return fmt.Sprintf("t%d join t%d", e.Thread, e.Other)
	case AcquireEvent:
		return fmt.Sprintf("t%d acq l%d", e.Thread, e.Lock)
	case ReleaseEvent:
		return fmt.Sprintf("t%d rel l%d", e.Thread, e.Lock)
	case ActionEvent:
		return fmt.Sprintf("t%d act %s", e.Thread, e.Act)
	case ReadEvent:
		return fmt.Sprintf("t%d read v%d", e.Thread, e.Var)
	case WriteEvent:
		return fmt.Sprintf("t%d write v%d", e.Thread, e.Var)
	case BeginEvent:
		return fmt.Sprintf("t%d begin", e.Thread)
	case EndEvent:
		return fmt.Sprintf("t%d end", e.Thread)
	case DieEvent:
		return fmt.Sprintf("t%d die o%d", e.Thread, e.Act.Obj)
	case SendEvent:
		return fmt.Sprintf("t%d send c%d", e.Thread, e.Chan)
	case RecvEvent:
		return fmt.Sprintf("t%d recv c%d", e.Thread, e.Chan)
	default:
		return fmt.Sprintf("t%d ?%d", e.Thread, e.Kind)
	}
}

// Fork constructs a fork event.
func Fork(t, u vclock.Tid) Event { return Event{Kind: ForkEvent, Thread: t, Other: u} }

// Join constructs a join event.
func Join(t, u vclock.Tid) Event { return Event{Kind: JoinEvent, Thread: t, Other: u} }

// Acquire constructs a lock-acquire event.
func Acquire(t vclock.Tid, l LockID) Event { return Event{Kind: AcquireEvent, Thread: t, Lock: l} }

// Release constructs a lock-release event.
func Release(t vclock.Tid, l LockID) Event { return Event{Kind: ReleaseEvent, Thread: t, Lock: l} }

// Act constructs an action event.
func Act(t vclock.Tid, a Action) Event { return Event{Kind: ActionEvent, Thread: t, Act: a} }

// Read constructs a memory-read event.
func Read(t vclock.Tid, v VarID) Event { return Event{Kind: ReadEvent, Thread: t, Var: v} }

// Write constructs a memory-write event.
func Write(t vclock.Tid, v VarID) Event { return Event{Kind: WriteEvent, Thread: t, Var: v} }

// Die constructs an object-death event for o.
func Die(t vclock.Tid, o ObjID) Event {
	return Event{Kind: DieEvent, Thread: t, Act: Action{Obj: o}}
}

// Send constructs a channel-send event.
func Send(t vclock.Tid, c ChanID) Event { return Event{Kind: SendEvent, Thread: t, Chan: c} }

// Recv constructs a channel-receive event.
func Recv(t vclock.Tid, c ChanID) Event { return Event{Kind: RecvEvent, Thread: t, Chan: c} }

// Trace is a finite sequence of events (Section 3.1). The zero value is an
// empty trace ready to use.
type Trace struct {
	Events []Event
}

// Append adds an event, assigning its sequence number, and returns a pointer
// to the stored copy.
func (tr *Trace) Append(e Event) *Event {
	e.Seq = len(tr.Events)
	tr.Events = append(tr.Events, e)
	return &tr.Events[len(tr.Events)-1]
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.Events) }

// Threads returns the highest thread id mentioned, plus one.
func (tr *Trace) Threads() int {
	max := -1
	for _, e := range tr.Events {
		if int(e.Thread) > max {
			max = int(e.Thread)
		}
		if (e.Kind == ForkEvent || e.Kind == JoinEvent) && int(e.Other) > max {
			max = int(e.Other)
		}
	}
	return max + 1
}

// Actions returns the action events in order.
func (tr *Trace) Actions() []Event {
	var out []Event
	for _, e := range tr.Events {
		if e.Kind == ActionEvent {
			out = append(out, e)
		}
	}
	return out
}
