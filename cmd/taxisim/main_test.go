package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"stabledispatch/internal/prof"
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
		"nstd-p", "nstd-t", "NSTD-P",
		"greedy", "mincost", "bottleneck",
		"std-p", "std-t", "sarp", "ilp",
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

// TestRunCityNames checks -city resolves through trace.CityByName: the
// New York aliases and any letter case.
func TestRunCityNames(t *testing.T) {
	for _, city := range []string{"nyc", "new-york", "NewYork", "BOSTON"} {
		var sb strings.Builder
		err := run([]string{"-city", city, "-taxis", "5", "-frames", "5", "-volume", "1000"}, &sb)
		if err != nil {
			t.Errorf("run -city %s: %v", city, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-city", "gotham"}, &sb); err == nil {
		t.Error("accepted unknown city")
	}
	// raii is gone: SARP dispatches identically (package carpool).
	for _, algo := range []string{"magic", "raii"} {
		if err := run([]string{"-algo", algo}, &sb); err == nil {
			t.Errorf("accepted unknown algorithm %q", algo)
		}
	}
	if err := run([]string{"-trace", "/no/such/file.csv"}, &sb); err == nil {
		t.Error("accepted missing trace file")
	}
	if err := run([]string{"-not-a-flag"}, &sb); err == nil {
		t.Error("accepted bad flag")
	}
	// Below one event is a usage error, not a silent switch to the
	// recorder's default capacity.
	for _, v := range []string{"0", "-3"} {
		if err := run([]string{"-trace-capacity", v}, &sb); err == nil || !strings.Contains(err.Error(), "-trace-capacity") {
			t.Errorf("-trace-capacity %s: err = %v, want a usage error naming the flag", v, err)
		}
	}
}

// TestRunRejectsProfCaptureFramesBelowOne checks -prof-capture-frames
// below one frame is a usage error rather than a silent switch to the
// flight recorder's 30-frame default, and that one frame is accepted.
func TestRunRejectsProfCaptureFramesBelowOne(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct{ flag, v string }{
		{"-prof-capture-frames", "0"},
		{"-prof-capture-frames", "-2"},
	} {
		err := run([]string{tc.flag, tc.v}, &sb)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s %s: err = %v, want a usage error naming the flag", tc.flag, tc.v, err)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("rejected runs wrote output:\n%s", sb.String())
	}
	if err := run([]string{"-frames", "5", "-volume", "200", "-taxis", "5",
		"-prof-capture-frames", "1"}, &sb); err != nil {
		t.Errorf("-prof-capture-frames 1: %v", err)
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
	args := []string{"-taxis", "6", "-frames", "10", "-volume", "1500", "-seed", "7", "-trace-out", path}
	var sb strings.Builder
	if err := run(append([]string{"-algo", "nstd-p"}, args...), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	solo, kinds := readChromeTrace(t, path)
	// Metadata, decision instants, and lifecycle slices must all appear.
	for _, ph := range []string{"M", "i", "X"} {
		if !kinds[ph] {
			t.Errorf("trace has no %q events (phases seen: %v)", ph, kinds)
		}
	}
	if !bytes.Contains(solo, []byte(`"name":"propose"`)) {
		t.Error("NSTD-P trace holds no Gale–Shapley proposals")
	}

	// A comparison run writes one trace per algorithm, each holding only
	// its own run: the NSTD-P file is byte-identical to the solo run's,
	// and Greedy, which records no matching decisions, has no proposals.
	// Its flight recorders (triggered by a 1ns frame budget's overruns,
	// one bundle per 300-frame cooldown) bundle into one subdirectory
	// per algorithm, each bundle with its own run's trace.
	bundles := filepath.Join(dir, "bundles")
	if err := run(append([]string{"-algo", "nstd-p,greedy", "-bundle-dir", bundles,
		"-prof-budget", "1ns", "-prof-capture-frames", "1"}, args...), &sb); err != nil {
		t.Fatalf("comparison run: %v", err)
	}
	for _, algo := range []string{"nstd-p", "greedy"} {
		traces, err := filepath.Glob(filepath.Join(bundles, algo, "bundle-*", "trace.json"))
		if err != nil || len(traces) != 1 {
			t.Fatalf("%s bundles hold traces %v (err %v), want exactly one", algo, traces, err)
		}
		data, _ := readChromeTrace(t, traces[0])
		if algo == "greedy" && bytes.Contains(data, []byte(`"name":"propose"`)) {
			t.Error("greedy bundle's trace holds Gale–Shapley proposals from another run")
		}
	}
	if got, _ := readChromeTrace(t, filepath.Join(dir, "decisions.nstd-p.json")); !bytes.Equal(got, solo) {
		t.Error("comparison run's NSTD-P trace differs from the solo run's")
	}
	greedy, kinds := readChromeTrace(t, filepath.Join(dir, "decisions.greedy.json"))
	if !kinds["X"] {
		t.Errorf("greedy trace has no lifecycle slices (phases seen: %v)", kinds)
	}
	if bytes.Contains(greedy, []byte(`"name":"propose"`)) {
		t.Error("greedy trace holds Gale–Shapley proposals from another run")
	}
}

// TestRunReportsTraceEviction pins the decision-trace summary line: a
// run whose trace outgrows -trace-capacity says, per algorithm, how many
// events it kept and how many the ring evicted, and one that fits
// reports none evicted.
func TestRunReportsTraceEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	args := []string{"-algo", "nstd-p,greedy", "-taxis", "6", "-frames", "10", "-volume", "1500", "-seed", "7", "-trace-out", path}
	line := regexp.MustCompile(`(?m)^(\S+) decision trace: (\d+) of (\d+) events kept, (\d+) evicted \(-trace-capacity (\d+)\)$`)
	for _, capacity := range []int{10, 1 << 20} {
		var sb strings.Builder
		if err := run(append(args, "-trace-capacity", strconv.Itoa(capacity)), &sb); err != nil {
			t.Fatalf("run: %v", err)
		}
		lines := line.FindAllStringSubmatch(sb.String(), -1)
		if len(lines) != 2 || lines[0][1] != "NSTD-P" || lines[1][1] != "Greedy" {
			t.Fatalf("capacity %d: trace lines %q, want one for NSTD-P and one for Greedy in\n%s", capacity, lines, sb.String())
		}
		for _, m := range lines {
			kept, _ := strconv.Atoi(m[2])
			total, _ := strconv.Atoi(m[3])
			evicted, _ := strconv.Atoi(m[4])
			if m[5] != strconv.Itoa(capacity) || kept+evicted != total || kept != min(total, capacity) || total <= 10 {
				t.Errorf("capacity %d: %q, want %d events kept of more than 10 and the rest evicted", capacity, m[0], min(total, capacity))
			}
		}
	}
}

// readChromeTrace reads one Chrome trace file and returns its bytes and
// the set of event phases it holds.
func readChromeTrace(t *testing.T, path string) ([]byte, map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s is not a JSON array: %v", path, err)
	}
	if len(events) == 0 {
		t.Fatalf("%s is empty", path)
	}
	kinds := map[string]bool{}
	for _, e := range events {
		if ph, _ := e["ph"].(string); ph != "" {
			kinds[ph] = true
		}
	}
	return data, kinds
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

// TestStageColumnsCoverFrame pins the per-frame record's coverage: at
// quick scale (-frames 240 -volume 4000) the -kpi-out stage columns of
// an NSTD-P, an STD-P and an ILP run sum to at least 90% of their
// frame_ns, summed over the runs. The remainder is span overhead and dispatcher
// glue between stages.
func TestStageColumnsCoverFrame(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{
		"-algo", "nstd-p,std-p,ilp", "-frames", "240", "-volume", "4000",
		"-kpi-out", filepath.Join(dir, "kpi.csv"),
	}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	var frameNs, stageNs float64
	for _, name := range []string{"kpi.nstd-p.csv", "kpi.std-p.csv", "kpi.ilp.csv"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var stageCols []int
		frameCol := -1
		for i, col := range rows[0] {
			switch {
			case col == "frame_ns":
				frameCol = i
			case strings.HasPrefix(col, "stage_") && strings.HasSuffix(col, "_ns"):
				stageCols = append(stageCols, i)
			}
		}
		if frameCol < 0 || len(stageCols) != prof.NumStages {
			t.Fatalf("%s header %v: want frame_ns and %d stage columns", name, rows[0], prof.NumStages)
		}
		for _, row := range rows[1:] {
			v, _ := strconv.ParseFloat(row[frameCol], 64)
			frameNs += v
			for _, c := range stageCols {
				v, _ := strconv.ParseFloat(row[c], 64)
				stageNs += v
			}
		}
	}
	if frameNs == 0 || stageNs < 0.9*frameNs {
		t.Errorf("stage columns sum to %.0f of %.0f frame ns (%.1f%%), want >= 90%%",
			stageNs, frameNs, 100*stageNs/frameNs)
	}
	t.Logf("stage columns cover %.1f%% of frame time", 100*stageNs/frameNs)
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
// budget so every frame overruns, and checks the budget line reports
// the ledger's overruns and the recorder's counts, and that the first
// overrun's capture ships as exactly one flight-recorder bundle: the
// recorder's cooldown turns every later overrun away. A capture still
// running when a run ends is written as a short bundle, and each run
// releases the CPU profiler for the next.
func TestRunProfBudgetCapturesOverrun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		algos   []string
		capture int  // -prof-capture-frames
		short   bool // the run ends before the capture does
	}{
		{"full", []string{"-algo", "greedy", "-frames", "30"}, nil, 2, false},
		{"cut-short", []string{"-algo", "greedy,nstd-p", "-frames", "5"}, []string{"greedy", "nstd-p"}, 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var sb strings.Builder
			err := run(append([]string{"-taxis", "8", "-volume", "1000", "-seed", "4",
				"-prof-budget", "1ns", "-prof-capture-frames", strconv.Itoa(tc.capture),
				"-bundle-dir", dir}, tc.args...), &sb)
			if err != nil {
				t.Fatalf("run with prof budget: %v", err)
			}
			out := sb.String()
			// The budget prints as a Go duration: "%.2fms" would read 0.00ms.
			if !strings.Contains(out, "frame budget 1ns:") || !strings.Contains(out, "; flight recorder: 1 bundles, ") ||
				!strings.Contains(out, " suppressed, 0 failed") {
				t.Errorf("summary missing profiler accounting:\n%s", out)
			}
			if tc.algos == nil {
				checkOverrunBundle(t, dir, tc.capture, tc.short)
				return
			}
			for _, algo := range tc.algos {
				checkOverrunBundle(t, filepath.Join(dir, algo), tc.capture, tc.short)
			}
		})
	}
}

// TestRunFailsOnUnwritableBundleDir breaches the abandonment SLO with
// -bundle-dir under a regular file, so every bundle write fails: the
// summary counts the failures and the run returns an error after it.
func TestRunFailsOnUnwritableBundleDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-algo", "nstd-p", "-taxis", "12", "-frames", "120", "-volume", "4000",
		"-seed", "11", "-patience", "10", "-fault-seed", "7", "-breakdown-rate", "0.02",
		"-cancel-rate", "0.05", "-slo", "../../ci/watchdog.slo", "-bundle-dir", filepath.Join(file, "b")}, &sb)
	if err == nil || !strings.Contains(err.Error(), "flight recorder: 1 bundle writes or deletions failed") {
		t.Errorf("run error = %v, want one failed bundle write", err)
	}
	out := sb.String()
	if !strings.Contains(out, "abandonment BREACH") || !strings.Contains(out, "flight recorder: 0 bundles, 0 suppressed, 1 failed") {
		t.Errorf("summary missing the breach or the failed bundle:\n%s", out)
	}
}

// checkOverrunBundle checks dir holds exactly one frame_overrun bundle
// with a non-empty cpu.pprof, the heap pair, profile.json (captureFrames
// equal to capture, or below it for a short capture), and the run's KPI
// samples with their stage columns.
func checkOverrunBundle(t *testing.T, dir string, capture int, short bool) {
	t.Helper()
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
		Frames  int    `json:"captureFrames"`
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
	if short && (oc.Frames < 0 || oc.Frames >= capture) || !short && oc.Frames != capture {
		t.Errorf("profile.json captureFrames = %d, want %d (short capture: %v)", oc.Frames, capture, short)
	}
	for _, name := range []string{"cpu.pprof", "heap_pre.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(bdir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty in %s (err %v)", name, bdir, err)
		}
	}
	// taxisim always records KPI samples, so the bundle's kpi.csv
	// carries the stage columns and its manifest the stage table.
	kpi, err := os.ReadFile(filepath.Join(bdir, "kpi.csv"))
	if err != nil {
		t.Fatalf("bundle kpi.csv: %v", err)
	}
	if header, _, _ := strings.Cut(string(kpi), "\n"); !strings.Contains(header, ",stage_idle_scan_ns,") {
		t.Errorf("kpi.csv header %q lacks the stage columns", header)
	}
	raw, err = os.ReadFile(filepath.Join(bdir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Sections struct {
			Stages []struct {
				Stage string `json:"stage"`
				Count uint64 `json:"count"`
			} `json:"stages"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse manifest.json: %v", err)
	}
	if len(m.Sections.Stages) == 0 || m.Sections.Stages[0].Count == 0 {
		t.Errorf("manifest stages section = %+v, want the run's stage table", m.Sections.Stages)
	}
}
