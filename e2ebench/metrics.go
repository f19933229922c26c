package main

// metricSpec names one metric, its unit, and the layer it measures. note
// defines an end-to-end metric, and says for a per-layer metric which
// end-to-end metric on which workload it should move. BENCHMARK.json
// carries the same names and units (a self-test holds the two together)
// plus the bounds; its schema has no room for layer or note, so the
// command prints them next to each value.
type metricSpec struct {
	name, unit, layer, note string
}

// The window metrics are interquartile means over a run's windows (see
// loadResult.windows): runs of consecutive sessions holding at least
// w.conns sessions and minWindowVerdicts race records.
var endToEnd = []metricSpec{
	{"events_per_s", "1/s", "e2e", "events covered by final summaries / wall time, per window; interquartile mean over windows"},
	{"verdict_ms_p50", "ms", "e2e", "race record arrival on the report FIFO minus the write start of the chunk carrying second.seq: median per window; interquartile mean over windows"},
	{"verdict_ms_p99", "ms", "e2e", "as verdict_ms_p50, 99th percentile per window"},
	{"session_ms_p50", "ms", "e2e", "per session, dial to summary: median over sessions"},
	{"session_ms_p75", "ms", "e2e", "as session_ms_p50, 75th percentile"},
	{"daemon_cpu_us_per_event", "us", "e2e", "rd2d user+sys CPU (process CPU clock) / events, per window; interquartile mean over windows"},
	{"daemon_rss_peak_mb", "MB", "e2e", "rd2d VmHWM"},
	{"setup_s", "s", "e2e", "median over start-ups of rd2d exec until it serves"},
}

var perLayer = []metricSpec{
	{"wire.decode_ns_per_event", "ns", "wire", "events_per_s, daemon_cpu_us_per_event on bulk"},
	{"wire.bytes_per_event", "B", "wire", "events_per_s, daemon_cpu_us_per_event on bulk"},
	{"hb.stamp_ns_per_event", "ns", "hb", "events_per_s on bulk; barely racy"},
	{"hb.sync_frac", "frac", "hb", "events_per_s on bulk; barely racy"},
	{"pipeline.dispatch_ns_per_event", "ns", "pipeline", "events_per_s, verdict_ms_p99 on bulk"},
	{"pipeline.close_wait_ms", "ms", "pipeline", "events_per_s, verdict_ms_p99 on bulk"},
	{"core.detect_ns_per_action", "ns", "core", "events_per_s on bulk and racy"},
	{"core.checks_per_action", "count", "core", "events_per_s on bulk and racy"},
	{"core.race_frac", "frac", "core", "events_per_s on bulk and racy"},
	{"core.peak_active_points", "count", "core", "daemon_rss_peak_mb on bulk"},
	{"core.arena_mb", "MB", "core", "daemon_rss_peak_mb on bulk"},
	{"core.report_ns_per_race", "ns", "core", "events_per_s, verdict_ms_p50 on racy; barely bulk"},
	{"core.report_bytes_per_race", "B", "core", "events_per_s, verdict_ms_p50 on racy; barely bulk"},
	{"rd2d.wal_appends", "count/session", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"rd2d.snapshots", "count/session", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"rd2d.snapshot_kb", "KB", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"rd2d.snapshot_ms", "ms", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"rd2d.backpressure_stalls", "count/session", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"rd2d.queue_peak_events", "count", "rd2d", "session_ms_p50/p75, events_per_s on durable"},
	{"fleet.quanta", "count/session", "fleet", "session_ms_p75 on durable"},
	{"fleet.throttle_wait_ms", "ms/session", "fleet", "session_ms_p75 on durable"},
	{"e2e_ns_per_event", "ns", "e2e", "1e9 / events_per_s of an untraced daemon pass"},
	{"unattributed_ns_per_event", "ns", "e2e", "e2e_ns_per_event minus decode, stamp, dispatch and close ns/event on the session worker path"},
	{"trace_overhead_frac", "frac", "bench", "1 - untraced/traced replay time"},
	{"failed_frac", "frac", "e2e", "failed / attempted sessions of the traced run's daemon passes"},
}
