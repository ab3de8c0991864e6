// Command dispatchbench is the repository benchmark. It runs one named
// workload against the dispatch stack built from the same checkout and
// prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"norm_cpu_s_per_day": {"value": 12.3, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, measured in a separate
// traced run that times calls into each layer's public functions from this
// package (no spans are added inside the program).
//
// Workloads:
//
//   - nyc-day-nstdp, nyc-day-stdp: batch closed loop, one caller stepping
//     sim.Simulator over the calibrated New York day (Algorithm 1 and
//     Algorithm 3 respectively).
//   - boston-serve-nstdp: open loop against a dispatchd process on
//     loopback, replaying the calibrated Boston trace at one trace minute
//     per auto-tick frame.
//
// The seed selects the generated inputs; the same seed gives the same
// inputs. meta.json in this directory records each workload's loop type,
// rate, rationale, the held-out validation seed, and which end-to-end
// metric each per-layer metric should move.
//
// The exit code is non-zero when a correctness check fails (the result
// line is still printed, with "correct": false) or when the run cannot
// complete (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the per-run settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// bin holds the dispatchd binary; traced runs also write spans there.
	bin string
}

// result is one run's outcome before rendering.
type result struct {
	attempted int
	failed    int
	// problems lists correctness-check failures; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload runs one named input set.
type workload func(opts options) (*result, error)

var workloads = map[string]workload{
	"nyc-day-nstdp":      runBatch(nstdpDay),
	"nyc-day-stdp":       runBatch(stdpDay),
	"boston-serve-nstdp": runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dispatchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measurement time per run in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := fs.String("bin", ".bench_build", "directory holding the dispatchd binary; traced runs write spans here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "dispatchbench:", err)
		return 1
	}
	w, ok := workloads[*name]
	if !ok || !spec.hasWorkload(*name) {
		fmt.Fprintf(stderr, "dispatchbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "dispatchbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		bin:     *bin,
	}
	res, err := w(opts)
	if err != nil {
		fmt.Fprintf(stderr, "dispatchbench: %s: %v\n", *name, err)
		return 1
	}
	metrics := spec.EndToEnd
	if opts.traced {
		metrics = spec.PerLayer
	}
	line, err := render(res, metrics)
	if err != nil {
		fmt.Fprintf(stderr, "dispatchbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "dispatchbench: correctness:", p)
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print, and the workload names.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line. Every listed metric must have been
// measured and be finite; anything measured but not listed is dropped
// (a batch run measures both sets, each run prints one).
func render(res *result, metrics []metricSpec) ([]byte, error) {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricOut, len(metrics)),
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	for _, m := range metrics {
		v, ok := res.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}
