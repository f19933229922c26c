// Command benchgate compares `go test -bench -benchmem` output on stdin
// against a checked-in baseline (BENCH_baseline.json) with benchstat-style
// relative thresholds, and exits nonzero when a benchmark regressed. It is
// the allocation gate for the zero-clone stamping fast path: `make
// benchcmp` runs the stamping and pipeline benchmarks through it, and ci.sh
// wires in a smoke-size run so allocs/op regressions on the stamped path
// fail loudly.
//
// Usage:
//
//	go test -run '^$' -bench B -benchmem ./... | benchgate -baseline BENCH_baseline.json
//	go test -run '^$' -bench B -benchmem ./... | benchgate -write BENCH_baseline.json
//
// Gating rules (per benchmark present in both the input and the baseline):
//
//   - allocs/op may exceed the baseline by at most -allocs-tol (relative)
//     plus -allocs-slack (absolute) — allocation counts are nearly
//     deterministic, so the default tolerance is tight.
//   - ns/op may exceed the baseline by at most -time-tol, unless
//     -allocs-only is set (CI machines are noisy; the smoke gate checks
//     allocations only).
//
// Benchmarks missing from the baseline are reported but never fail the
// gate, so adding a benchmark does not require regenerating the baseline in
// the same change.
//
// Ratio gates compare two benchmarks WITHIN the same input instead of
// against the baseline — host-speed drift hits both sides equally, so the
// ratio is stable even on machines where absolute ns/op is not:
//
//	... | benchgate -baseline '' \
//	      -ratio 'BenchmarkPipelineFrontend/shards=4/stamp=2,BenchmarkPipelineFrontend/shards=1,1.0'
//
// fails when median ns/op of the first benchmark exceeds max × the second's.
// The flag repeats; each side must be present in the input (missing = exit
// 2, the gate never silently passes). When the input holds several samples
// of a name (interleaved rounds, -count), the median is used, so one noisy
// sample cannot flip the gate. -baseline "" skips the baseline comparison
// for ratio-only invocations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. When the same benchmark appears
// several times in the input (interleaved rounds, -count), NsSamples keeps
// every ns/op observation for median-based ratio gates; the flat fields
// hold the last observation.
type Result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`

	NsSamples []float64 `json:"-"`
}

// Baseline is the checked-in reference file.
type Baseline struct {
	// Note is free-form provenance (host, date, command).
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// parseBench parses `go test -bench` output into name → Result. Names are
// normalized by stripping the trailing -GOMAXPROCS suffix so baselines
// transfer across hosts with different core counts.
func parseBench(r *bufio.Scanner) (map[string]Result, error) {
	out := map[string]Result{}
	for r.Scan() {
		line := r.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := normalizeName(fields[0])
		var res Result
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsOp = v
			case "B/op":
				res.BytesOp = v
			case "allocs/op":
				res.AllocsOp = v
			}
		}
		res.NsSamples = append(out[name].NsSamples, res.NsOp)
		out[name] = res
	}
	return out, r.Err()
}

// median of a non-empty sample set (lower middle for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ratioCheck is one -ratio gate: median ns/op of num must be at most
// max × median ns/op of den.
type ratioCheck struct {
	num, den string
	max      float64
}

// ratioFlags parses repeated -ratio 'Num,Den,max' flags.
type ratioFlags struct{ checks []ratioCheck }

func (r *ratioFlags) String() string { return fmt.Sprint(r.checks) }

func (r *ratioFlags) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return fmt.Errorf("want 'NumBench,DenBench,max', got %q", s)
	}
	max, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("bad ratio limit %q", parts[2])
	}
	r.checks = append(r.checks, ratioCheck{
		num: strings.TrimSpace(parts[0]),
		den: strings.TrimSpace(parts[1]),
		max: max,
	})
	return nil
}

// normalizeName strips the -N GOMAXPROCS suffix Go appends to benchmark
// names ("BenchmarkStampAll/action-8" → "BenchmarkStampAll/action").
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline file to gate against")
		writePath    = flag.String("write", "", "write parsed results to this baseline file instead of gating")
		note         = flag.String("note", "", "provenance note stored with -write")
		allocsTol    = flag.Float64("allocs-tol", 0.10, "relative allocs/op headroom over baseline")
		allocsSlack  = flag.Float64("allocs-slack", 16, "absolute allocs/op headroom over baseline")
		timeTol      = flag.Float64("time-tol", 1.0, "relative ns/op headroom over baseline (1.0 = 2x)")
		allocsOnly   = flag.Bool("allocs-only", false, "gate allocs/op only (skip the noisy ns/op check)")
		ratios       ratioFlags
	)
	flag.Var(&ratios, "ratio",
		"in-run ratio gate 'NumBench,DenBench,max': median ns/op of Num must be <= max * Den (repeatable)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	got, err := parseBench(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *writePath != "" {
		out, err := json.MarshalIndent(Baseline{Note: *note, Benchmarks: got}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*writePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(got), *writePath)
		return
	}

	var base Baseline
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: bad baseline %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		if *baselinePath == "" {
			break // ratio-only invocation: no baseline to diff against
		}
		cur := got[name]
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW   %-50s %10.0f allocs/op %12.0f ns/op (not in baseline)\n",
				name, cur.AllocsOp, cur.NsOp)
			continue
		}
		status := "ok   "
		if limit := ref.AllocsOp*(1+*allocsTol) + *allocsSlack; cur.AllocsOp > limit {
			status = "FAIL "
			failed = true
			fmt.Printf("%s %-50s allocs/op %0.0f > limit %0.0f (baseline %0.0f)\n",
				status, name, cur.AllocsOp, limit, ref.AllocsOp)
			continue
		}
		if !*allocsOnly {
			if limit := ref.NsOp * (1 + *timeTol); cur.NsOp > limit {
				status = "FAIL "
				failed = true
				fmt.Printf("%s %-50s ns/op %0.0f > limit %0.0f (baseline %0.0f)\n",
					status, name, cur.NsOp, limit, ref.NsOp)
				continue
			}
		}
		fmt.Printf("%s %-50s %10.0f allocs/op (baseline %0.0f) %12.0f ns/op (baseline %0.0f)\n",
			status, name, cur.AllocsOp, ref.AllocsOp, cur.NsOp, ref.NsOp)
	}
	for _, rc := range ratios.checks {
		num, okN := got[rc.num]
		den, okD := got[rc.den]
		if !okN || !okD {
			missing := rc.num
			if okN {
				missing = rc.den
			}
			fmt.Fprintf(os.Stderr, "benchgate: ratio gate: benchmark %q missing from input\n", missing)
			os.Exit(2)
		}
		nv, dv := median(num.NsSamples), median(den.NsSamples)
		ratio := nv / dv
		status := "ok   "
		if ratio > rc.max {
			status = "FAIL "
			failed = true
		}
		fmt.Printf("%s ratio %s / %s = %.3f (limit %.3f, medians %0.0f / %0.0f ns/op over %d+%d samples)\n",
			status, rc.num, rc.den, ratio, rc.max, nv, dv, len(num.NsSamples), len(den.NsSamples))
	}
	if failed {
		fmt.Println("benchgate: REGRESSION — see FAIL lines above")
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}
