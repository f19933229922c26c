package core

// This file implements structured race reporting: a machine-readable JSONL
// record per race, so race output can be diffed, aggregated, and
// post-processed without parsing the human-oriented Race.String rendering.
// cmd/rd2's -report flag streams every race through a ReportWriter as it is
// found.
//
// RaceRecord is the schema; the writers do not go through encoding/json to
// produce it. appendRecord renders a Race straight into a reused buffer,
// byte for byte what json.Encoder.Encode(r.Record(spec)) would write, so
// reporting costs no reflection and, once the buffer has grown, no
// allocation (TestAppendRecordMatchesEncodingJSON holds the two encodings
// together).
//
// Most of a record repeats from race to race: the session and spec names,
// the handful of access-point descriptions a racy object keeps hitting, and
// each action, which takes part in about as many races as it conflicts
// with. Those parts are escaped once and copied after that: the writers
// keep the session and spec literals, and a Detector hands OnRace races
// that carry pre-encoded fragments (raceEnc) of their sides. A race without
// fragments — from RefDetector, Races(), or built by hand — is encoded from
// its fields; the bytes are the same either way
// (TestFragmentRecordsMatchEncodingJSON).

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// RaceSide is one side of a reported race: the action, who performed it,
// where in the trace, which access point it touched, and the vector clock
// under which it was evaluated. For the first (earlier) side the clock is
// the point's accumulated clock — the join over all events that touched the
// point (see Race.FirstClock).
type RaceSide struct {
	Action string   `json:"action"`
	Method string   `json:"method"`
	Thread int      `json:"thread"`
	Seq    int      `json:"seq"`
	Point  string   `json:"point"`
	Clock  []uint64 `json:"clock"`
}

// RaceRecord is the JSONL schema of one commutativity race. Session and
// Seq are stamped by a SessionReporter (rd2d): the owning session's id and
// a monotonic per-session sequence number assigned in file order, so a
// resumed session's corpus can be checked for continuity. They are the
// first fields so offline tools can strip the session prefix textually
// when diffing against a session-less report.
type RaceRecord struct {
	Session string   `json:"session,omitempty"`
	Seq     uint64   `json:"seq,omitempty"`
	Object  int      `json:"object"`
	Spec    string   `json:"spec,omitempty"` // responsible specification (object kind)
	First   RaceSide `json:"first"`
	Second  RaceSide `json:"second"`
}

// Record converts the race to its structured form. spec names the
// commutativity specification of the racing object ("" if unknown).
func (r Race) Record(spec string) RaceRecord {
	return RaceRecord{
		Object: int(r.Obj),
		Spec:   spec,
		First: RaceSide{
			Action: r.First.String(),
			Method: r.First.Method,
			Thread: int(r.FirstThread),
			Seq:    r.FirstSeq,
			Point:  r.FirstPoint,
			Clock:  r.FirstClock,
		},
		Second: RaceSide{
			Action: r.Second.String(),
			Method: r.Second.Method,
			Thread: int(r.SecondThread),
			Seq:    r.SecondSeq,
			Point:  r.SecondPoint,
			Clock:  r.SecondClock,
		},
	}
}

// ReportWriter streams RaceRecords as JSON Lines. It is safe for concurrent
// use (pipeline shards report from their own goroutines). Each record is
// encoded into one buffer reused under the lock and handed to the
// underlying writer in exactly one Write call.
type ReportWriter struct {
	mu   sync.Mutex
	w    io.Writer
	buf  []byte   // record encoding buffer (guarded by mu)
	spec specMemo // spec literal of plain Write calls (guarded by mu)
	n    int
	err  error
}

// NewReportWriter returns a writer emitting one JSON object per line to w.
func NewReportWriter(w io.Writer) *ReportWriter {
	return &ReportWriter{w: w}
}

// Write emits one race. The first write error is sticky and returned by
// this and every later call.
func (rw *ReportWriter) Write(r Race, spec string) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.emit("", 0, &r, rw.spec.literal(spec))
}

// emit encodes one record and writes it; session and spec are JSON
// literals (see appendRecord). The caller holds mu.
func (rw *ReportWriter) emit(session string, seq uint64, r *Race, spec string) error {
	if rw.err != nil {
		return rw.err
	}
	rw.buf = appendRecord(rw.buf[:0], session, seq, r, spec)
	if _, err := rw.w.Write(rw.buf); err != nil {
		rw.err = err
		return err
	}
	rw.n++
	return nil
}

// WriteNote emits an arbitrary JSONL record alongside the race records —
// rd2d uses it for per-session markers (session start, degraded-session
// annotations), so a report file is self-describing about sessions whose
// race set may be incomplete. Notes are rare, so they keep encoding/json.
// Notes do not count toward Count.
func (rw *ReportWriter) WriteNote(v any) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.err != nil {
		return rw.err
	}
	b, err := json.Marshal(v)
	if err == nil {
		_, err = rw.w.Write(append(b, '\n'))
	}
	if err != nil {
		rw.err = err
	}
	return err
}

// Session returns a view of the writer that stamps every record with the
// session id and a monotonic per-session sequence number. The seq is
// assigned under the writer's lock, so seq order equals file order even
// with other sessions interleaving on the same writer; a session resumed
// on a new connection keeps its reporter and the numbering continues
// without gaps.
func (rw *ReportWriter) Session(session string) *SessionReporter {
	return &SessionReporter{rw: rw, session: jsonLiteral(session)}
}

// SessionReporter stamps one session's identity onto shared JSONL output.
// Safe for concurrent use (it serializes on the underlying writer's lock).
type SessionReporter struct {
	rw       *ReportWriter
	session  string   // the session id as a JSON literal
	spec     specMemo // guarded by rw.mu
	seq      uint64   // guarded by rw.mu
	suppress uint64   // records with Seq <= suppress skip the file (guarded by rw.mu)
}

// Write emits one race stamped with the session id and the next seq.
// Records at or below the suppression mark (Restore) advance the numbering
// but are not written: they already sit in the report file from before a
// daemon restart, and replay determinism makes the regenerated copies
// byte-identical to the ones on disk.
func (sr *SessionReporter) Write(r Race, spec string) error {
	sr.rw.mu.Lock()
	defer sr.rw.mu.Unlock()
	if sr.rw.err != nil {
		return sr.rw.err
	}
	if sr.seq+1 <= sr.suppress {
		sr.seq++
		return nil
	}
	if err := sr.rw.emit(sr.session, sr.seq+1, &r, sr.spec.literal(spec)); err != nil {
		return err
	}
	sr.seq++
	return nil
}

// Restore positions a rehydrated session's reporter: numbering resumes from
// seq (the checkpoint's last assigned number) and regenerated records up to
// durable — the highest number already durable in the report file — are
// suppressed instead of duplicated. rd2d calls it before WAL replay.
func (sr *SessionReporter) Restore(seq, durable uint64) {
	sr.rw.mu.Lock()
	defer sr.rw.mu.Unlock()
	sr.seq = seq
	sr.suppress = durable
}

// Seq returns the last sequence number assigned (0 before the first race).
func (sr *SessionReporter) Seq() uint64 {
	sr.rw.mu.Lock()
	defer sr.rw.mu.Unlock()
	return sr.seq
}

// Count returns the number of records written so far.
func (rw *ReportWriter) Count() int {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.n
}

// Err returns the sticky write error, if any.
func (rw *ReportWriter) Err() error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.err
}

// specMemo keeps the JSON literal of the last spec name written: a
// session's races nearly always name one spec, so its literal is escaped
// once rather than once per record.
type specMemo struct{ name, lit string }

func (m *specMemo) literal(spec string) string {
	if spec != m.name {
		m.name, m.lit = spec, jsonLiteral(spec)
	}
	return m.lit
}

// jsonLiteral returns s as a JSON string literal, or "" for "" (the
// omitempty fields of RaceRecord leave an empty string out).
func jsonLiteral(s string) string {
	if s == "" {
		return ""
	}
	return string(appendJSONString(nil, s))
}

// raceEnc holds pre-encoded JSON fragments of one race's sides: a head
// `{"action":…,"method":…,"thread":N,"seq":N` and the point as a JSON
// literal. An empty fragment is encoded from the Race's fields instead.
// The Detector owns one raceEnc and refills it for every race it hands to
// OnRace, so fragments are valid only during that call.
type raceEnc struct {
	firstHead, secondHead   []byte
	firstPoint, secondPoint string
}

// appendRecord appends r's JSONL record — the bytes
// json.NewEncoder(w).Encode(rec) writes for rec := r.Record(spec) with
// rec.Session = session and rec.Seq = seq, trailing newline included.
// session and spec come as JSON literals (jsonLiteral), "" to leave them
// out. Field order, omitempty on session, seq and spec, and null for a nil
// clock all follow the RaceRecord tags.
func appendRecord(buf []byte, session string, seq uint64, r *Race, spec string) []byte {
	buf = append(buf, '{')
	if session != "" {
		buf = append(append(append(buf, `"session":`...), session...), ',')
	}
	if seq != 0 {
		buf = append(strconv.AppendUint(append(buf, `"seq":`...), seq, 10), ',')
	}
	buf = strconv.AppendInt(append(buf, `"object":`...), int64(r.Obj), 10)
	if spec != "" {
		buf = append(append(buf, `,"spec":`...), spec...)
	}
	var f raceEnc
	if r.enc != nil {
		f = *r.enc
	}
	buf = appendSide(append(buf, `,"first":`...), f.firstHead, f.firstPoint,
		r.First, r.FirstThread, r.FirstSeq, r.FirstPoint, r.FirstClock)
	buf = appendSide(append(buf, `,"second":`...), f.secondHead, f.secondPoint,
		r.Second, r.SecondThread, r.SecondSeq, r.SecondPoint, r.SecondClock)
	return append(buf, "}\n"...)
}

// appendSide appends one RaceSide object, copying the head and point
// fragments when given and encoding the fields otherwise.
func appendSide(buf, head []byte, pointLit string, a trace.Action, thread vclock.Tid, seq int, point string, clock vclock.VC) []byte {
	if len(head) > 0 {
		buf = append(buf, head...)
	} else {
		buf = appendSideHead(buf, a, thread, seq)
	}
	buf = append(buf, `,"point":`...)
	if pointLit != "" {
		buf = append(buf, pointLit...)
	} else {
		buf = appendJSONString(buf, point)
	}
	buf = append(buf, `,"clock":`...)
	if clock == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, c := range clock {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, c, 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendSideHead appends the opening of a RaceSide object up to its seq:
// the part that depends only on the action and who performed it.
func appendSideHead(buf []byte, a trace.Action, thread vclock.Tid, seq int) []byte {
	buf = appendJSONAction(append(buf, `{"action":`...), a)
	buf = appendJSONString(append(buf, `,"method":`...), a.Method)
	buf = strconv.AppendInt(append(buf, `,"thread":`...), int64(thread), 10)
	return strconv.AppendInt(append(buf, `,"seq":`...), int64(seq), 10)
}

// appendJSONAction appends a's rendering as a JSON string without a
// scratch buffer: the action is rendered raw past the end of buf, its
// escaped form is appended after that, and the escaped copy is slid down
// over the raw one.
func appendJSONAction(buf []byte, a trace.Action) []byte {
	p := len(buf)
	buf = a.AppendTo(buf)
	raw := buf[p:]
	buf = appendJSONString(buf, raw)
	n := copy(buf[p:], buf[p+len(raw):])
	return buf[:p+n]
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes appendJSONString copies verbatim.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendJSONString appends src as a JSON string literal, escaped exactly
// as encoding/json escapes strings with HTML escaping on (the Encoder
// default): quote and backslash, the short escapes \b \f \n \r \t, any
// other control byte and < > & as \u00XX, U+2028 and U+2029 as \u202X,
// and each byte of invalid UTF-8 as \ufffd.
func appendJSONString[S []byte | string](buf []byte, src S) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, src[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(src) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		c, size := utf8.DecodeRuneInString(string(src[i : i+n]))
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(append(buf, src[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(append(buf, src[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, src[start:]...), '"')
}
