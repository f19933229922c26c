// Command e2ebench is the repository's end-to-end benchmark: it starts
// rd2d as a separate process and streams generated RDB2 traffic to it over
// loopback, the path production uses (`rd2 -send` → rd2d session → JSONL
// verdicts), and checks every verdict against the offline detector.
//
//	bash e2ebench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --steady 10 --workload bulk,racy --seconds 10
//
// run.sh builds rd2d and this command from the checkout, then runs it. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it print every metric by
// name with its unit. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones from a traced run (see traced.go). --steady N runs
// each workload N times with consecutive seeds and prints each metric's
// median, quartiles and quartile spread next to its bound in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupProbes is how many extra daemons each run starts and stops only to
// time their start-up, half before the measured daemon and half after it
// has stopped, probeGap apart, so that one burst of host noise does not
// hit them all; setup_s is the median over them and the measured daemon.
const (
	setupProbes = 40
	probeGap    = 25 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	wname := fs.String("workload", "bulk", "workload: bulk, racy or durable (comma list with -steady)")
	seed := fs.Int64("seed", 1, "input seed (first seed with -steady)")
	seconds := fs.Float64("seconds", 15, "nominal measured time per run (each workload's work is sized to it)")
	traced := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	bin := fs.String("rd2d", ".bench_build/rd2d", "rd2d binary")
	workdir := fs.String("workdir", ".bench_build/e2ebench", "scratch directory for FIFOs, state and span logs")
	steadyRuns := fs.Int("steady", 0, "run each workload this many times and print per-metric spreads")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds (with -steady)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if *steadyRuns > 0 {
		return steady(*benchFile, strings.Split(*wname, ","), *seed, *steadyRuns, *seconds, *traced, *bin, *workdir)
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: rd2d binary:", err)
		return 1
	}

	in, err := buildInput(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: building input:", err)
		return 1
	}
	runtime.GC()
	debug.FreeOSMemory() // the generated trace is garbage; only the bytes stay
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%d: %d events (%.1f%% sync), %d chunks, %d reference races\n",
		w.name, *seed, *seconds, *traced, in.events, 100*float64(in.syncEvents)/float64(in.events), len(in.chunks), len(in.ref))

	var m map[string]float64
	var attempted, failed int
	var reasons []string
	list := endToEnd
	if *traced == 1 {
		list = perLayer
		m, attempted, failed, reasons, err = tracedMetrics(*bin, *workdir, w, *seed, in, *seconds)
	} else {
		m, attempted, failed, reasons, err = measure(*bin, *workdir, w, *seed, in, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, r := range reasons {
		fmt.Printf("# FAILED %s\n", r)
	}
	out := result{Correct: failed == 0 && len(reasons) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, s := range list {
		fmt.Printf("%-32s %16.4f %-13s # %s: %s\n", s.name, m[s.name], s.unit, s.layer, s.note)
		out.Metrics[s.name] = metricValue{Value: m[s.name], Unit: s.unit}
	}
	if *traced == 1 {
		printBudget(m, float64(in.events))
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs the untraced end-to-end measurement of one workload.
func measure(bin, workdir string, w workload, seed int64, in *input, seconds float64) (m map[string]float64, attempted, failed int, reasons []string, err error) {
	var setups []float64
	probe := func(n int) error {
		for i := 0; i < n; i++ {
			time.Sleep(probeGap)
			d, err := startDaemon(bin, workdir, w, false)
			if err != nil {
				return err
			}
			setups = append(setups, d.setup.Seconds())
			// rd2d installs its SIGTERM handler only after it logs that
			// it serves, so a probe is killed rather than drained.
			d.kill()
		}
		return nil
	}
	if err := probe(setupProbes / 2); err != nil {
		return nil, 0, 0, nil, err
	}
	d, err := startDaemon(bin, workdir, w, false)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	setups = append(setups, d.setup.Seconds())
	var rss float64
	res, err := runLoad(d, w, in, seconds, func() error {
		var rerr error
		rss, rerr = d.rssPeakMB()
		if err := d.stop(); err != nil {
			return err
		}
		return rerr
	})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if err := probe(setupProbes - setupProbes/2); err != nil {
		return nil, 0, 0, nil, err
	}
	failed, reasons = res.verify(in)
	sessMs := make([]float64, len(res.sessions))
	for i, s := range res.sessions {
		sessMs[i] = float64(s.dur.Nanoseconds()) / 1e6
	}
	wins := res.windows(w)
	var rate, cpu, v50, v99 []float64
	verdicts := 0
	for _, win := range wins {
		events := float64(max(win.events, 1))
		rate = append(rate, float64(win.events)/win.wall.Seconds())
		cpu = append(cpu, float64(win.cpu.Nanoseconds())/1e3/events)
		v50 = append(v50, percentile(win.verdictMs, 50))
		v99 = append(v99, percentile(win.verdictMs, 99))
		verdicts += len(win.verdictMs)
	}
	m = map[string]float64{
		"events_per_s":            interquartileMean(rate),
		"verdict_ms_p50":          interquartileMean(v50),
		"verdict_ms_p99":          interquartileMean(v99),
		"session_ms_p50":          percentile(sessMs, 50),
		"session_ms_p75":          percentile(sessMs, 75),
		"daemon_cpu_us_per_event": interquartileMean(cpu),
		"daemon_rss_peak_mb":      rss,
		"setup_s":                 percentile(setups, 50),
	}
	cut := ""
	if res.cut {
		cut = " (cut short at twice --seconds)"
	}
	fmt.Printf("# samples: %d sessions over %d connection(s) in %.2fs%s, %d events, %d verdicts, %d windows, %d start-ups\n",
		len(res.sessions), w.conns, res.wall.Seconds(), cut, res.events, verdicts, len(wins), len(setups))
	if err := writeSamples(filepath.Join(workdir, fmt.Sprintf("samples-%s-%d.json", w.name, seed)),
		samples{SessionMs: sessMs, EventsPerS: rate, CPUUsPerEvent: cpu, VerdictMsP50: v50, VerdictMsP99: v99, SetupS: setups}); err != nil {
		return nil, 0, 0, nil, err
	}
	return m, len(res.sessions), failed, reasons, nil
}

// samples are the per-session and per-window values an untraced run's
// metrics are medians or percentiles of, written to the work directory
// for a closer look at a run's spread.
type samples struct {
	SessionMs     []float64 `json:"session_ms"`
	EventsPerS    []float64 `json:"window_events_per_s"`
	CPUUsPerEvent []float64 `json:"window_cpu_us_per_event"`
	VerdictMsP50  []float64 `json:"window_verdict_ms_p50"`
	VerdictMsP99  []float64 `json:"window_verdict_ms_p99"`
	SetupS        []float64 `json:"setup_s"`
}

func writeSamples(path string, s samples) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printBudget prints the per-layer ns/event budget of a traced run.
func printBudget(m map[string]float64, events float64) {
	fmt.Printf("# budget (ns/event): e2e %.1f =", m["e2e_ns_per_event"])
	for _, k := range budgetLayers {
		fmt.Printf(" %s %.1f +", strings.TrimSuffix(k, "_ns_per_event"), m[k])
	}
	fmt.Printf(" pipeline.close %.1f + unattributed %.1f\n", m["pipeline.close_wait_ms"]*1e6/events, m["unattributed_ns_per_event"])
}

// interquartileMean is the mean of the middle half of xs: the quarter of
// values at each end is dropped (0 when empty). Windows hit by a short
// burst of host noise fall into a dropped quarter; when noise lasts
// longer, a mean of the middle half moves less between runs than the
// single middle value does.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	xs = xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the linearly interpolated p-th percentile of xs (0 when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
