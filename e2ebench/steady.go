package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchDef is the part of BENCHMARK.json steadiness mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) and statistics.median
// compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// steady runs each workload runs times with seeds seed, seed+1, ... as a
// child process of this command and prints, per metric, the median,
// quartiles and quartile spread (Q3-Q1 over the median) next to the
// metric's bound. A spread under a third of its bound is marked steady;
// setup_s is exempt from the spread rule but listed.
func steady(benchFile string, names []string, seed int64, runs int, seconds float64, traced int, bin, workdir string) int {
	def, err := readBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	status := 0
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced),
				"-rd2d", bin, "-workdir", workdir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: run failed (%v %v)\n%s", name, s, err, perr, out)
				status = 1
				continue
			}
			line := fmt.Sprintf("%s seed %d:", name, s)
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			for _, e := range def.EndToEnd {
				if v, ok := res.Metrics[e.Name]; ok {
					line += fmt.Sprintf(" %s=%.4g", e.Name, v.Value)
				}
			}
			fmt.Println(line)
		}
		fmt.Printf("%-8s %-32s %14s %14s %14s %8s %7s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		printRow := func(metric, unit string, bound float64) {
			vs := values[metric]
			if len(vs) == 0 {
				return
			}
			q1, med, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict, b := "", "-"
			if bound > 0 {
				b = fmt.Sprintf("%.3f", bound)
				switch {
				case metric == "setup_s":
					verdict = "exempt"
				case spread < bound/3:
					verdict = "steady"
				case spread <= bound:
					verdict = "within bound"
				default:
					verdict = "WIDE"
				}
			}
			fmt.Printf("%-8s %-32s %14.4f %14.4f %14.4f %8.4f %7s  %s %s\n", name, metric, q1, med, q3, spread, b, verdict, unit)
		}
		if traced == 1 {
			for _, p := range def.PerLayer {
				printRow(p.Name, p.Unit, 0)
			}
		} else {
			for _, e := range def.EndToEnd {
				printRow(e.Name, e.Unit, e.Bound)
			}
		}
	}
	return status
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var res result
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return res, fmt.Errorf("no output")
	}
	return res, json.Unmarshal(last, &res)
}
