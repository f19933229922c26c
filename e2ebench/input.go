package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// workload is one traffic mix: the generated trace shape and how the
// daemon is deployed for it. Every workload is a closed loop: each
// connection starts its next session only after the previous summary
// arrived, the way `rd2 -send` callers block on TCP backpressure and wait
// for their summary.
//
// A run does a fixed amount of work, sessionsPerSec sessions per
// connection for each second of --seconds, sized so that the measured
// pass takes about three quarters of --seconds on a 2-vCPU VM (the rest
// of a run builds the input and times start-ups). Fixed work keeps every
// metric a like-for-like comparison between commits; in particular rd2d
// keeps a finished session for the resume TTL (30s), so peak RSS grows
// with the number of sessions run (about 10 MB per bulk session) and
// would otherwise track throughput. That cost caps the session count,
// which is why the session-time tail is a 75th percentile, and the pass
// must stay under the TTL even on a host running at half speed, or peak
// RSS would again depend on speed.
type workload struct {
	name           string
	gen            trace.GenConfig
	durable        bool // -fleet -statedir <dir> -fsync off, resumable sessions
	conns          int  // concurrent client connections (one tenant each)
	sessionsPerSec float64
}

// sessions is the number of sessions each connection runs.
func (w workload) sessions(seconds float64) int {
	return max(1, int(w.sessionsPerSec*seconds+0.5))
}

// frameEvents is the number of events per client write: each write is one
// complete RDB2 frame, and the verdict latency of a race is measured from
// the write of the frame carrying its second event.
const frameEvents = 2048

// Generate draws each object's keys from at most ten (k0..k9), so the
// working set grows with Objects.
var workloads = []workload{
	{
		// Lock-heavy (about 55% sync events), 256 objects with spilled
		// point tables, under 1% of actions racing: the work sits in wire
		// decode, hb stamping, pipeline dispatch and core detection.
		name: "bulk",
		gen: trace.GenConfig{Threads: 8, Objects: 256, Keys: 10, Vals: 8, Locks: 4,
			OpsMin: 25000, OpsMax: 25000, PSize: 2, PGet: 40, PLocked: 60, PRemove: 10},
		conns:          1,
		sessionsPerSec: 2.8,
	},
	{
		// No locking, four hot objects: about 1.6 races per action, so
		// race-record construction and the JSONL write dominate.
		name: "racy",
		gen: trace.GenConfig{Threads: 4, Objects: 4, Keys: 10, Vals: 8, Locks: 0,
			OpsMin: 5000, OpsMax: 5000, PSize: 2, PGet: 40, PLocked: 0, PRemove: 10},
		conns:          1,
		sessionsPerSec: 5.6,
	},
	{
		// Back-to-back resumable sessions of moderate length on two
		// connections under two tenants: WAL appends, snapshots, the fleet
		// scheduler, admission and session setup/teardown.
		name: "durable",
		gen: trace.GenConfig{Threads: 4, Objects: 16, Keys: 10, Vals: 8, Locks: 2,
			OpsMin: 12000, OpsMax: 12000, PSize: 2, PGet: 40, PLocked: 60, PRemove: 10},
		durable:        true,
		conns:          2,
		sessionsPerSec: 5.5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// chunk is one client write: stream bytes up to end, carrying the events
// with sequence numbers below endSeq that the previous chunk did not.
type chunk struct {
	end    int
	endSeq int
}

// input is a workload's pre-encoded traffic plus its offline verdicts.
// For plain workloads stream is a complete RDB2 stream; for durable ones
// it is everything after the hello frame, and each session prepends its
// own header (sessionHeader) carrying its session id and tenant.
type input struct {
	stream     []byte
	resumable  bool
	chunks     []chunk
	events     int
	syncEvents int
	ref        []raceKey // sorted offline race set
}

// raceKey identifies one race record independently of clocks, which
// default compaction may trim: the object, both event sequence numbers,
// and a hash of the two access points' JSON-escaped descriptions.
type raceKey struct {
	obj, first, second int
	points             uint64
}

func sortKeys(ks []raceKey) {
	slices.SortFunc(ks, func(a, b raceKey) int {
		return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.first, b.first),
			cmp.Compare(a.second, b.second), cmp.Compare(a.points, b.points))
	})
}

// buildInput generates the workload's trace from seed, encodes it, and
// computes the offline reference verdicts with core.Detector on the
// decoded stream (the same sequence numbers the daemon assigns).
func buildInput(w workload, seed int64) (*input, error) {
	tr := trace.Generate(rand.New(rand.NewSource(seed)), w.gen)
	in, err := encodeInput(tr.Events, w.durable)
	if err != nil {
		return nil, err
	}
	tr = nil
	ref, err := referenceRaces(in.fullStream(), w.gen.Objects)
	if err != nil {
		return nil, err
	}
	in.ref = ref
	return in, nil
}

// encodeInput encodes events as frames of frameEvents events each.
func encodeInput(events []trace.Event, resumable bool) (*input, error) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.FrameSize = wire.MaxFrame // frames end only where Flush cuts them
	base := 0
	if resumable {
		if err := enc.SetSession("x"); err != nil {
			return nil, err
		}
		if err := enc.Start(); err != nil {
			return nil, err
		}
		base = buf.Len()
	}
	in := &input{events: len(events), resumable: resumable}
	for i := range events {
		if events[i].Kind != trace.ActionEvent {
			in.syncEvents++
		}
		if err := enc.WriteEvent(&events[i]); err != nil {
			return nil, fmt.Errorf("encode event %d: %w", i, err)
		}
		if (i+1)%frameEvents == 0 {
			if err := enc.Flush(); err != nil {
				return nil, err
			}
			in.chunks = append(in.chunks, chunk{end: buf.Len() - base, endSeq: i + 1})
		}
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	in.chunks = append(in.chunks, chunk{end: buf.Len() - base, endSeq: len(events)})
	in.stream = buf.Bytes()[base:]
	return in, nil
}

// fullStream returns a complete decodable stream: the plain stream, or
// the resumable body behind a header for a placeholder session.
func (in *input) fullStream() []byte {
	if !in.resumable {
		return in.stream
	}
	return append(sessionHeader("x", ""), in.stream...)
}

// chunkOf returns the index of the chunk carrying event seq.
func (in *input) chunkOf(seq int) int {
	return sort.Search(len(in.chunks), func(i int) bool { return in.chunks[i].endSeq > seq })
}

// sessionHeader renders the stream header and hello frame of a resumable
// session.
func sessionHeader(sid, tenant string) []byte {
	var b bytes.Buffer
	enc := wire.NewEncoder(&b)
	if err := enc.SetSession(sid); err != nil {
		panic(err) // sids are generated by this program
	}
	if tenant != "" {
		if err := enc.SetTenant(tenant); err != nil {
			panic(err)
		}
	}
	if err := enc.Start(); err != nil {
		panic(err) // bytes.Buffer writes do not fail
	}
	return b.Bytes()
}

// referenceRaces runs the offline detector over stream with every object
// bound to the dict specification (rd2d's default) and returns the sorted
// race set. Races pass through core.ReportWriter and the same JSONL
// scanner the daemon's report is read with.
func referenceRaces(stream []byte, objects int) ([]raceKey, error) {
	dec, err := wire.NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	if _, err := dec.ReadHello(); err != nil {
		return nil, err
	}
	rep, err := specs.Rep("dict")
	if err != nil {
		return nil, err
	}
	sink := &keySink{}
	rw := core.NewReportWriter(sink)
	det := core.New(core.Config{OnRace: func(r core.Race) { rw.Write(r, "dict") }})
	for o := 0; o < objects; o++ {
		det.Register(trace.ObjID(o), rep)
	}
	if err := det.RunSource(dec); err != nil {
		return nil, err
	}
	if err := rw.Err(); err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, sink.err
	}
	if len(sink.keys) != det.Stats().Races {
		return nil, fmt.Errorf("reference: %d records for %d races", len(sink.keys), det.Stats().Races)
	}
	sortKeys(sink.keys)
	return sink.keys, nil
}

// keySink scans the JSONL records a ReportWriter emits (one Write per
// line) into race keys.
type keySink struct {
	keys []raceKey
	err  error
}

func (s *keySink) Write(p []byte) (int, error) {
	rec, ok, err := scanRace(p)
	if err != nil && s.err == nil {
		s.err = err
	}
	if ok {
		s.keys = append(s.keys, rec.key)
	}
	return len(p), nil
}

// raceLine is what the benchmark needs from one JSONL race record.
type raceLine struct {
	session string
	key     raceKey
}

var errBadRecord = errors.New("malformed race record")

// scanRace extracts the session, object, both sequence numbers and both
// access points from one JSONL line written by core.ReportWriter, without
// a full JSON decode (the racy workload reads about a hundred thousand
// records a second). ok is false for lines that are not race records
// (session notes). The self-tests hold it to encoding/json.
func scanRace(line []byte) (rl raceLine, ok bool, err error) {
	fi := bytes.Index(line, []byte(`"first":{`))
	if fi < 0 {
		return rl, false, nil
	}
	si := bytes.Index(line, []byte(`"second":{`))
	if si < fi {
		return rl, false, errBadRecord
	}
	if s, ok := stringField(line[:fi], `"session":"`); ok {
		rl.session = string(s)
	}
	obj, ok1 := intField(line[:fi], `"object":`)
	first, ok2 := intField(line[fi:si], `"seq":`)
	second, ok3 := intField(line[si:], `"seq":`)
	p1, ok4 := stringField(line[fi:si], `"point":"`)
	p2, ok5 := stringField(line[si:], `"point":"`)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return rl, false, fmt.Errorf("%w: %.200s", errBadRecord, line)
	}
	rl.key = raceKey{obj: obj, first: first, second: second, points: pointsHash(p1, p2)}
	return rl, true, nil
}

// pointsHash is FNV-1a over the two raw (JSON-escaped) point strings.
func pointsHash(a, b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [][]byte{a, {0}, b} {
		for _, c := range s {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return h
}

// intField parses the integer that follows key in b.
func intField(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && (b[j] == '-' || b[j] >= '0' && b[j] <= '9') {
		j++
	}
	n, err := strconv.Atoi(string(b[:j]))
	return n, err == nil
}

// stringField returns the raw bytes of the JSON string that follows key
// (which ends with the opening quote), escapes left as written.
func stringField(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	b = b[i+len(key):]
	for j := 0; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return b[:j], true
		}
	}
	return nil, false
}
