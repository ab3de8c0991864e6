package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-city", "boston", "-algo", "nstd-p",
		"-taxis", "15", "-frames", "30", "-volume", "2000", "-seed", "3",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"NSTD-P", "dispatch delay", "taxi dissatisfaction", "served"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{
		"nstd-p", "nstd-t", "greedy", "mincost", "bottleneck",
		"std-p", "std-t", "raii", "sarp", "ilp",
	} {
		t.Run(algo, func(t *testing.T) {
			var sb strings.Builder
			err := run([]string{
				"-algo", algo, "-taxis", "8", "-frames", "15",
				"-volume", "1500", "-seed", "4",
			}, &sb)
			if err != nil {
				t.Fatalf("run(%s): %v", algo, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-city", "gotham"}, &sb); err == nil {
		t.Error("accepted unknown city")
	}
	if err := run([]string{"-algo", "magic"}, &sb); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if err := run([]string{"-trace", "/no/such/file.csv"}, &sb); err == nil {
		t.Error("accepted missing trace file")
	}
	if err := run([]string{"-not-a-flag"}, &sb); err == nil {
		t.Error("accepted bad flag")
	}
}

func TestRunWithCSVTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	csv := "id,frame,pickup_x,pickup_y,dropoff_x,dropoff_y,seats\n" +
		"0,0,10,10,12,10,1\n" +
		"1,1,9,10,6,10,1\n"
	if err := os.WriteFile(path, []byte(csv), 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-trace", path, "-taxis", "3", "-algo", "greedy"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "over 2 requests") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestRunComparisonMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p,greedy", "-taxis", "10", "-frames", "20",
		"-volume", "1500", "-seed", "5",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"comparison", "NSTD-P", "Greedy", "taxi diss",
		// Every algorithm prints its own stage table from its own ledger.
		"NSTD-P dispatch pipeline stage timings", "Greedy dispatch pipeline stage timings"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExtensionAlgorithms(t *testing.T) {
	for _, algo := range []string{"nstd-c", "nstd-m"} {
		var sb strings.Builder
		err := run([]string{
			"-algo", algo, "-taxis", "8", "-frames", "12",
			"-volume", "1500", "-seed", "6",
		}, &sb)
		if err != nil {
			t.Fatalf("run(%s): %v", algo, err)
		}
	}
}

func TestRunWritesEventLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	var sb strings.Builder
	err := run([]string{
		"-algo", "greedy", "-taxis", "6", "-frames", "10",
		"-volume", "1500", "-seed", "7", "-events", path,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !strings.Contains(string(data), `"kind":"assign"`) {
		t.Errorf("event log missing assign events:\n%.300s", data)
	}
}

func TestRunWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.json")
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p", "-taxis", "6", "-frames", "10",
		"-volume", "1500", "-seed", "7", "-trace-out", path,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		if ph, _ := e["ph"].(string); ph != "" {
			kinds[ph] = true
		}
	}
	// Metadata, decision instants, and lifecycle slices must all appear.
	for _, ph := range []string{"M", "i", "X"} {
		if !kinds[ph] {
			t.Errorf("trace has no %q events (phases seen: %v)", ph, kinds)
		}
	}
}

func TestTraceOutRejectsMultiAlgorithm(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p,greedy", "-taxis", "4", "-frames", "5",
		"-trace-out", filepath.Join(t.TempDir(), "x.json"),
	}, &sb)
	if err == nil || !strings.Contains(err.Error(), "single algorithm") {
		t.Errorf("err = %v, want single-algorithm rejection", err)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p", "-taxis", "15", "-frames", "40",
		"-volume", "2000", "-seed", "3", "-patience", "30",
		"-fault-seed", "7", "-breakdown-rate", "0.01",
		"-cancel-rate", "0.1", "-driver-cancel-rate", "0.05",
	}, &sb)
	if err != nil {
		t.Fatalf("run with faults: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "faults:") {
		t.Errorf("summary missing faults line:\n%s", out)
	}

	// The same seeded chaos run twice produces the same summary.
	var sb2 strings.Builder
	if err := run([]string{
		"-algo", "nstd-p", "-taxis", "15", "-frames", "40",
		"-volume", "2000", "-seed", "3", "-patience", "30",
		"-fault-seed", "7", "-breakdown-rate", "0.01",
		"-cancel-rate", "0.1", "-driver-cancel-rate", "0.05",
	}, &sb2); err != nil {
		t.Fatalf("second run: %v", err)
	}
	// The stage-timing table is wall-clock and differs run to run;
	// compare only up to it.
	cut := func(s string) string {
		if i := strings.Index(s, "dispatch pipeline stage timings"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if cut(sb.String()) != cut(sb2.String()) {
		t.Errorf("seeded fault runs diverged:\n%s\n----\n%s", cut(sb.String()), cut(sb2.String()))
	}
}

func TestRunWithFrameDeadline(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p", "-taxis", "8", "-frames", "15",
		"-volume", "1000", "-seed", "4", "-frame-deadline", "5s",
	}, &sb)
	if err != nil {
		t.Fatalf("run with frame deadline: %v", err)
	}
	if !strings.Contains(sb.String(), "NSTD-P+failsafe") {
		t.Errorf("summary missing failsafe algorithm name:\n%s", sb.String())
	}
}

func TestRunRejectsBadFaultConfig(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-breakdown-rate", "1.5"}, &sb); err == nil {
		t.Error("accepted breakdown rate > 1")
	}
	if err := run([]string{"-cancel-rate", "-0.1"}, &sb); err == nil {
		t.Error("accepted negative cancel rate")
	}
}

func TestRunWritesKPISeries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kpi.csv")
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p", "-taxis", "6", "-frames", "10",
		"-volume", "1500", "-seed", "7", "-kpi-out", path,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header plus at least the requested horizon of frames (the run may
	// extend past -frames to drain onboard passengers).
	if len(lines) < 11 {
		t.Fatalf("%d CSV lines, want header + >=10 frames", len(lines))
	}
	if !strings.HasPrefix(lines[0], "frame,delay_mean,") {
		t.Errorf("header %q", lines[0])
	}
	cols := strings.Count(lines[0], ",")
	for i, line := range lines[1:] {
		if strings.Count(line, ",") != cols {
			t.Errorf("row %d has %d columns, header has %d", i, strings.Count(line, ","), cols)
		}
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Errorf("first row %q, want frame 0", lines[1])
	}
}

// TestKPIOutMultiAlgorithm checks a comparison run writes one suffixed
// CSV per algorithm instead of erroring or overwriting.
func TestKPIOutMultiAlgorithm(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-algo", "nstd-p,greedy", "-taxis", "4", "-frames", "5",
		"-volume", "800", "-seed", "7",
		"-kpi-out", filepath.Join(dir, "kpi.csv"),
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "kpi.csv")); err == nil {
		t.Error("unsuffixed kpi.csv written on a multi-algorithm run")
	}
	for _, name := range []string{"kpi.nstd-p.csv", "kpi.greedy.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("per-algorithm CSV missing: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 6 {
			t.Errorf("%s has %d lines, want header + >=5 frames", name, len(lines))
		}
		if !strings.HasPrefix(lines[0], "frame,delay_mean,") {
			t.Errorf("%s header %q", name, lines[0])
		}
	}
}

func TestKPIOutPath(t *testing.T) {
	cases := []struct{ base, algo, want string }{
		{"kpi.csv", "nstd-p", "kpi.nstd-p.csv"},
		{"out/day.csv", "Greedy", "out/day.greedy.csv"},
		{"noext", "ilp", "noext.ilp"},
	}
	for _, c := range cases {
		if got := kpiOutPath(c.base, c.algo); got != c.want {
			t.Errorf("kpiOutPath(%q, %q) = %q, want %q", c.base, c.algo, got, c.want)
		}
	}
}

// TestRunProfBudgetCapturesOverrun runs with an impossible 1ns frame
// budget so every frame overruns, and checks the profiler prints its
// accounting line and ships exactly one rate-limited pprof capture into
// a flight-recorder bundle.
func TestRunProfBudgetCapturesOverrun(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-algo", "greedy", "-taxis", "8", "-frames", "30",
		"-volume", "1000", "-seed", "4",
		"-prof-budget", "1ns", "-prof-capture-frames", "2",
		"-prof-cooldown", "100000", "-bundle-dir", dir,
	}, &sb)
	if err != nil {
		t.Fatalf("run with prof budget: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "frame budget") || !strings.Contains(out, "1 pprof captures") {
		t.Errorf("summary missing profiler accounting:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var overruns []string
	for _, e := range entries {
		if strings.Contains(e.Name(), "frame_overrun") {
			overruns = append(overruns, e.Name())
		}
	}
	if len(overruns) != 1 {
		t.Fatalf("overrun bundles = %v, want exactly 1 (cooldown rate limit)", overruns)
	}
	bdir := filepath.Join(dir, overruns[0])
	raw, err := os.ReadFile(filepath.Join(bdir, "profile.json"))
	if err != nil {
		t.Fatalf("capture profile.json: %v", err)
	}
	var oc struct {
		Schema  string `json:"schema"`
		Trigger struct {
			WallNs int64 `json:"wallNs"`
		} `json:"trigger"`
	}
	if err := json.Unmarshal(raw, &oc); err != nil {
		t.Fatalf("parse profile.json: %v", err)
	}
	if oc.Schema != "prof-capture/v1" || oc.Trigger.WallNs <= 0 {
		t.Fatalf("profile.json = %+v", oc)
	}
	if _, err := os.Stat(filepath.Join(bdir, "heap.pprof")); err != nil {
		t.Fatalf("heap delta missing from bundle: %v", err)
	}
}
