package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The traced run replays a workload's pre-encoded bytes in process and
// records spans around the calls into each layer's public functions; the
// program itself carries no benchmark tracing. Replays mirror rd2d's
// per-connection session worker: decode, stamp, lazy registration,
// dispatch into the sharded pipeline (default shard count), compaction at
// joins, close. Detection runs on the pipeline's shard goroutines, out of
// reach of spans from outside, so a second, serial replay spans
// core.Detector.Process and the race reporting it calls.

// span layers.
const (
	lDecode = iota
	lStamp
	lDispatch
	lClose
	lDetect
	lReport
	nLayers
)

var layerNames = [nLayers]string{"wire.Decoder.Next", "hb.Engine.Process", "pipeline.Pipeline.Process",
	"pipeline.Pipeline.Close", "core.Detector.Process", "core.ReportWriter.Write"}

// spanRec is one recorded span; spans of one event share its seq.
type spanRec struct {
	layer      uint8
	seq        int32
	start, end int64
}

// tracer accumulates per-layer busy time and keeps every sampleEvery-th
// event's spans in memory for the span log written at the end.
type tracer struct {
	total [nLayers]int64
	spans []spanRec
}

const sampleEvery = 256

// The replays use rd2d's defaults for these.
const (
	maxRaces     = 100  // -max-races
	compactEvery = 4096 // -compact-every
)

// replayEvents is the least number of events each in-process replay
// covers; shorter inputs are replayed several times.
const replayEvents = 250000

func (t *tracer) add(layer int, seq int, start, end int64) {
	t.total[layer] += end - start
	if seq%sampleEvery == 0 {
		t.spans = append(t.spans, spanRec{layer: uint8(layer), seq: int32(seq), start: start, end: end})
	}
}

// writeSpans writes the sampled spans as JSON Lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"span":%q,"event":%d,"start_ns":%d,"end_ns":%d}`+"\n", layerNames[s.layer], s.seq, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayPipeline runs the per-connection worker's path over stream. With
// t nil it records nothing (the untraced twin used for the overhead).
func replayPipeline(stream []byte, t *tracer) (time.Duration, error) {
	rep, err := specs.Rep("dict")
	if err != nil {
		return 0, err
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	defer devnull.Close()
	rw := core.NewReportWriter(devnull)
	start := time.Now()
	dec, err := wire.NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return 0, err
	}
	if _, err := dec.ReadHello(); err != nil {
		return 0, err
	}
	en := hb.New()
	p := pipeline.New(pipeline.Config{Core: core.Config{MaxRaces: maxRaces,
		OnRace: func(r core.Race) { rw.Write(r, "dict") }}})
	registered := map[trace.ObjID]bool{}
	sinceCompact := 0
	var t0, t1, t2 int64
	for {
		if t != nil {
			t0 = nanotime()
		}
		e, err := dec.Next()
		if t != nil {
			t1 = nanotime()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			p.Close()
			return 0, err
		}
		if _, err := en.Process(&e); err != nil {
			p.Close()
			return 0, err
		}
		if t != nil {
			t2 = nanotime()
		}
		sinceCompact++
		if e.Kind == trace.ActionEvent && !registered[e.Act.Obj] {
			p.Register(e.Act.Obj, rep)
			registered[e.Act.Obj] = true
		}
		p.Process(&e)
		if e.Kind == trace.JoinEvent && sinceCompact >= compactEvery {
			p.Compact(en.MeetLive())
			sinceCompact = 0
		}
		if t != nil {
			t3 := nanotime()
			t.add(lDecode, e.Seq, t0, t1)
			t.add(lStamp, e.Seq, t1, t2)
			t.add(lDispatch, e.Seq, t2, t3)
		}
	}
	t0 = nanotime()
	err = p.Close()
	if t != nil {
		t.add(lClose, 0, t0, nanotime())
	}
	if err == nil {
		err = rw.Err()
	}
	return time.Since(start), err
}

// detectStats is what the serial detector replay reports.
type detectStats struct {
	stats       core.Stats
	arenaBytes  int64
	reportBytes int64
}

// replayDetector stamps stream untimed and spans core.Detector.Process,
// with race reporting (core.ReportWriter.Write, which builds the record
// with Race.Record) spanned inside it.
func replayDetector(stream []byte, t *tracer) (detectStats, error) {
	var ds detectStats
	rep, err := specs.Rep("dict")
	if err != nil {
		return ds, err
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return ds, err
	}
	defer devnull.Close()
	cw := &countWriter{w: devnull}
	rw := core.NewReportWriter(cw)
	var seq int
	det := core.New(core.Config{MaxRaces: maxRaces, OnRace: func(r core.Race) {
		t0 := nanotime()
		rw.Write(r, "dict")
		t.add(lReport, seq, t0, nanotime())
	}})
	dec, err := wire.NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return ds, err
	}
	if _, err := dec.ReadHello(); err != nil {
		return ds, err
	}
	en := hb.New()
	registered := map[trace.ObjID]bool{}
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ds, err
		}
		if _, err := en.Process(&e); err != nil {
			return ds, err
		}
		if e.Kind == trace.ActionEvent && !registered[e.Act.Obj] {
			det.Register(e.Act.Obj, rep)
			registered[e.Act.Obj] = true
		}
		seq = e.Seq
		t0 := nanotime()
		err = det.Process(&e)
		t.add(lDetect, e.Seq, t0, nanotime())
		if err != nil {
			return ds, err
		}
	}
	det.FlushObs()
	ds.stats = det.Stats()
	ds.arenaBytes = det.ArenaBytes()
	ds.reportBytes = cw.n
	return ds, rw.Err()
}

// scrapeMetrics reads the daemon's obs snapshot from its -http endpoint.
func scrapeMetrics(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// tracedMetrics runs the traced measurement of one workload and returns
// the per-layer metrics.
func tracedMetrics(bin, workdir string, w workload, seed int64, in *input, seconds float64) (metrics map[string]float64, attempted, failed int, reasons []string, err error) {
	m := map[string]float64{}
	tally := func(res *loadResult) {
		f, rs := res.verify(in)
		attempted += len(res.sessions)
		failed += f
		reasons = append(reasons, rs...)
	}

	// End-to-end reference for the budget: the untraced daemon.
	d, err := startDaemon(bin, workdir, w, false)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	res, err := runLoad(d, w, in, seconds/2, d.stop)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	tally(res)
	e2eNs := float64(res.wall.Nanoseconds()) / float64(max(res.events, 1))

	// Session and durable layers live in rd2d's package main: read the
	// counters a second daemon exports on -http.
	d, err = startDaemon(bin, workdir, w, true)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	var snap obs.Snapshot
	res, err = runLoad(d, w, in, seconds/2, func() error {
		var serr error
		snap, serr = scrapeMetrics(d.httpAddr)
		if err := d.stop(); err != nil {
			return err
		}
		return serr
	})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	tally(res)
	sessions := float64(max(len(res.sessions), 1))
	snaps := float64(snap.Counters["rd2d.ckpt.snapshots"])
	m["rd2d.wal_appends"] = float64(snap.Counters["rd2d.ckpt.wal_appends"]) / sessions
	m["rd2d.snapshots"] = snaps / sessions
	m["rd2d.snapshot_kb"] = ratio(float64(snap.Counters["rd2d.ckpt.bytes"])/1024, snaps)
	m["rd2d.snapshot_ms"] = ratio(float64(snap.Counters["rd2d.ckpt.ns"])/1e6, snaps)
	m["rd2d.backpressure_stalls"] = float64(snap.Counters["rd2d.backpressure_stalls"]) / sessions
	m["rd2d.queue_peak_events"] = float64(snap.Gauges["rd2d.queue_events"].Peak)
	m["fleet.quanta"] = float64(snap.Counters["fleet.quanta"]) / sessions
	m["fleet.throttle_wait_ms"] = float64(snap.Timers["fleet.throttle_wait_ns"].SumNs) / 1e6 / sessions

	// In-process replays of the same bytes, repeated for short inputs so
	// each measures at least replayEvents events; the untraced and traced
	// pipeline replays alternate so drift hits both alike.
	stream := in.fullStream()
	reps := max(1, replayEvents/in.events)
	var t tracer
	var plain, traced time.Duration
	var ds detectStats
	for i := 0; i < reps; i++ {
		p, err := replayPipeline(stream, nil)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		tr, err := replayPipeline(stream, &t)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if ds, err = replayDetector(stream, &t); err != nil {
			return nil, 0, 0, nil, err
		}
		plain += p
		traced += tr
	}
	if err := t.writeSpans(filepath.Join(workdir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, 0, 0, nil, err
	}
	ev := float64(in.events) * float64(reps)
	st := ds.stats
	detectSelf := float64(t.total[lDetect]-t.total[lReport]) / float64(reps)
	report := float64(t.total[lReport]) / float64(reps)
	m["wire.decode_ns_per_event"] = float64(t.total[lDecode]) / ev
	m["wire.bytes_per_event"] = float64(len(in.stream)) / float64(in.events)
	m["hb.stamp_ns_per_event"] = float64(t.total[lStamp]) / ev
	m["hb.sync_frac"] = float64(in.syncEvents) / float64(in.events)
	m["pipeline.dispatch_ns_per_event"] = float64(t.total[lDispatch]) / ev
	m["pipeline.close_wait_ms"] = float64(t.total[lClose]) / 1e6 / float64(reps)
	m["core.detect_ns_per_action"] = ratio(detectSelf, float64(st.Actions))
	m["core.checks_per_action"] = ratio(float64(st.Checks), float64(st.Actions))
	m["core.race_frac"] = ratio(float64(st.Races), float64(st.Checks))
	m["core.peak_active_points"] = float64(st.PeakActive)
	m["core.arena_mb"] = float64(ds.arenaBytes) / (1 << 20)
	m["core.report_ns_per_race"] = ratio(report, float64(st.Races))
	m["core.report_bytes_per_race"] = ratio(float64(ds.reportBytes), float64(st.Races))
	m["e2e_ns_per_event"] = e2eNs
	m["unattributed_ns_per_event"] = e2eNs - budgetSum(m, float64(in.events))
	m["trace_overhead_frac"] = 1 - float64(plain)/float64(traced)
	m["failed_frac"] = ratio(float64(failed), float64(attempted))
	return m, attempted, failed, reasons, nil
}

// budgetLayers are the spans on the replay's producer goroutine, which
// is rd2d's session worker path: their ns/event, pipeline close, and the
// unattributed remainder make up e2e_ns_per_event. Detection and race
// reporting run on the shard goroutines; on this path they show only as
// dispatch time spent waiting on full shard queues, and the serial
// replay's core.detect_ns_per_action and core.report_ns_per_race say how
// that shard time divides.
var budgetLayers = []string{"wire.decode_ns_per_event", "hb.stamp_ns_per_event", "pipeline.dispatch_ns_per_event"}

func budgetSum(m map[string]float64, events float64) float64 {
	sum := m["pipeline.close_wait_ms"] * 1e6 / events
	for _, k := range budgetLayers {
		sum += m[k]
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
