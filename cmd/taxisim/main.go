// Command taxisim runs dispatch algorithms over a synthetic or CSV trace
// and prints metrics summaries:
//
//	taxisim -city boston -algo nstd-p -taxis 200 -frames 1440
//	taxisim -trace day.csv -city newyork -algo raii
//	taxisim -algo nstd-p,greedy,mincost    # side-by-side comparison
//	taxisim -algo all                      # every algorithm
//	taxisim -algo nstd-p -trace-out decisions.json   # Chrome trace of dispatch decisions
//	taxisim -algo nstd-p -kpi-out kpi.csv            # per-frame KPI time series
//	taxisim -algo nstd-p,greedy -kpi-out kpi.csv     # one CSV per algorithm (kpi.nstd-p.csv, …)
//	taxisim -algo nstd-p -slo ci/watchdog.slo -bundle-dir bundles   # SLO watchdog + flight recorder
//
// Algorithms: nstd-p, nstd-t, nstd-c, nstd-m, greedy, mincost, bottleneck
// (non-sharing); std-p, std-t, raii, sarp, ilp (sharing).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "taxisim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("taxisim", flag.ContinueOnError)
	var (
		cityName  = fs.String("city", "boston", "city model: boston or newyork")
		traceFile = fs.String("trace", "", "optional CSV trace to replay instead of generating")
		algo      = fs.String("algo", "nstd-p", "dispatch algorithm")
		taxis     = fs.Int("taxis", 0, "fleet size (0 = paper default for the city)")
		frames    = fs.Int("frames", 1440, "horizon in minutes")
		volume    = fs.Int("volume", 0, "requests per day (0 = paper default)")
		seed      = fs.Int64("seed", 42, "random seed")
		theta     = fs.Float64("theta", 5, "sharing detour bound in km")
		speed     = fs.Float64("speed", 20, "taxi speed in km/h")
		patience  = fs.Int("patience", 0, "minutes a passenger waits before abandoning (0 = forever)")
		workers   = fs.Int("workers", 0, "cost-plane worker pool size; 0 = GOMAXPROCS (results are identical for any value)")
		eventPath = fs.String("events", "", "write a JSONL lifecycle event log to this file")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON of dispatch decisions to this file (single algorithm only)")
		kpiOut    = fs.String("kpi-out", "", "write the per-frame KPI time series as CSV to this file (multi-algorithm runs write one suffixed file per algorithm)")
		traceCap  = fs.Int("trace-capacity", dtrace.DefaultCapacity, "max request traces retained when -trace-out is set")
		sloPath   = fs.String("slo", "", "SLO definitions file; objectives are evaluated every frame and a report line is printed per run")
		bundleDir = fs.String("bundle-dir", "", "flight-recorder bundle directory; enables diagnostic bundles on SLO breach, degrade, or certificate violation")

		faultSeed     = fs.Int64("fault-seed", 0, "seed for the fault-injection schedule (0 = derive from -seed)")
		breakdownRate = fs.Float64("breakdown-rate", 0, "per-frame probability a busy taxi breaks down mid-route")
		cancelRate    = fs.Float64("cancel-rate", 0, "probability a passenger cancels before pickup")
		driverCancel  = fs.Float64("driver-cancel-rate", 0, "probability a driver abandons an accepted fare before pickup")
		frameDDL      = fs.Duration("frame-deadline", 0, "per-frame dispatch compute deadline; overruns and panics degrade to greedy (0 = unbounded)")
		profBudget    = fs.Duration("prof-budget", 0, "frame deadline budget for the frame-budget profiler; overruns print in the run summary and, with -bundle-dir, capture pprof CPU/heap deltas into a flight-recorder bundle (0 = off)")
		profCapt      = fs.Int("prof-capture-frames", prof.DefaultCaptureFrames, "frames the CPU profile spans after an overrun trigger")
		profCool      = fs.Int64("prof-cooldown", prof.DefaultCooldownFrames, "minimum frames between two overrun captures; overruns inside it are counted, not captured")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var faults sim.FaultInjector
	// != 0, not > 0: a negative rate must reach fault.Config.Validate
	// and be rejected, not silently disable injection.
	if *breakdownRate != 0 || *cancelRate != 0 || *driverCancel != 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		sched, err := fault.New(fault.Config{
			Seed:                fseed,
			BreakdownRate:       *breakdownRate,
			PassengerCancelRate: *cancelRate,
			DriverCancelRate:    *driverCancel,
		})
		if err != nil {
			return err
		}
		faults = sched
	}

	city, defTaxis, defVolume, err := cityByName(*cityName)
	if err != nil {
		return err
	}
	if *taxis == 0 {
		*taxis = defTaxis
	}
	if *volume == 0 {
		*volume = defVolume
	}

	var reqs []fleet.Request
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		reqs, err = trace.ReadCSV(f)
		if err != nil {
			return err
		}
	} else {
		reqs, err = trace.Generate(trace.Config{
			City:           city,
			Frames:         *frames,
			RequestsPerDay: *volume,
			Seats:          3,
			Seed:           *seed,
		})
		if err != nil {
			return err
		}
	}
	fleetTaxis, err := trace.Taxis(city, *taxis, *seed+1)
	if err != nil {
		return err
	}

	var events sim.EventSink
	if *eventPath != "" {
		f, err := os.Create(*eventPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := sim.NewJSONLSink(f)
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "taxisim: event log:", err)
			}
		}()
		events = sink
	}

	names := strings.Split(*algo, ",")
	if strings.EqualFold(*algo, "all") {
		names = allAlgorithms()
	}
	if *traceOut != "" {
		// The decision-trace ring is process-wide; a second run would
		// interleave its decisions with the first.
		if len(names) > 1 {
			return fmt.Errorf("-trace-out requires a single algorithm, got %d", len(names))
		}
		dtrace.SetEnabled(true)
		dtrace.Default().SetCapacity(*traceCap)
		defer dtrace.SetEnabled(false)
	}
	var sloDefs []slo.Def
	if *sloPath != "" {
		sloDefs, err = slo.ParseFile(*sloPath)
		if err != nil {
			return err
		}
	}
	var recorder *flightrec.Recorder
	if *bundleDir != "" {
		if recorder, err = flightrec.New(flightrec.Config{Dir: *bundleDir, ChromeTrace: *traceOut != ""}); err != nil {
			return err
		}
	}
	var reports []*sim.Report
	var ledgers []*prof.Ledger
	var sloLines []string
	for _, name := range names {
		d, err := dispatcherByName(strings.TrimSpace(name), *theta)
		if err != nil {
			return err
		}
		if *frameDDL > 0 {
			d = dispatch.NewResilient(d, nil, *frameDDL)
		}
		// Each algorithm gets its own recorder so a comparison run keeps
		// per-run trajectories separate. Downsampling keeps the whole-run
		// trajectory bounded: a paper-scale day (1440 frames) fits
		// losslessly, and longer replays compact to every 2nd/4th/...
		// frame instead of dropping the start of the day. The SLO engine
		// needs the sample stream too, so -slo implies a recorder.
		var kpi *tseries.Recorder
		if *kpiOut != "" || len(sloDefs) > 0 {
			kpi = tseries.New(tseries.Config{Capacity: 4096, Downsample: true})
		}
		var sloEng *slo.Engine
		if len(sloDefs) > 0 {
			if sloEng, err = slo.New(sloDefs); err != nil {
				return err
			}
		}
		// Each run gets its own frame-budget ledger, so every algorithm's
		// stage table and overrun accounting are its own. Overrun
		// captures arm only with a budget and a recorder to bundle into.
		ledger := prof.New(prof.Config{
			BudgetNs:       profBudget.Nanoseconds(),
			CaptureFrames:  *profCapt,
			CooldownFrames: *profCool,
			Capture:        *profBudget > 0 && recorder != nil,
		})
		s, err := sim.New(sim.Config{
			SpeedKmH:       *speed,
			Params:         pref.DefaultParams(),
			Dispatcher:     d,
			PatienceFrames: *patience,
			Events:         events,
			Faults:         faults,
			KPI:            kpi,
			SLO:            sloEng,
			Workers:        *workers,
			Ledger:         ledger,
			Recorder:       recorder,
		}, fleetTaxis, reqs)
		if err != nil {
			return err
		}
		rep, err := s.Run()
		ledger.Close()
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		ledgers = append(ledgers, ledger)
		if *kpiOut != "" {
			path := *kpiOut
			if len(names) > 1 {
				path = kpiOutPath(*kpiOut, strings.TrimSpace(name))
			}
			if err := writeKPISeries(path, kpi); err != nil {
				return err
			}
		}
		if sloEng != nil {
			sloLines = append(sloLines, fmt.Sprintf("%s: %s", rep.Algorithm, sloEng.Report()))
		}
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut); err != nil {
			return err
		}
	}
	if len(reports) == 1 {
		err = printSummary(out, reports[0], len(reqs), *taxis)
	} else {
		err = printComparison(out, reports, len(reqs), *taxis)
	}
	if err != nil {
		return err
	}
	for i, rep := range reports {
		if err := printStageTimings(out, rep.Algorithm, ledgers[i]); err != nil {
			return err
		}
	}
	for _, line := range sloLines {
		if _, err := fmt.Fprintln(out, line); err != nil {
			return err
		}
	}
	return nil
}

// kpiOutPath derives the per-algorithm CSV path for a multi-algorithm
// run by inserting the algorithm name before the extension:
// "out/kpi.csv" + "nstd-p" → "out/kpi.nstd-p.csv".
func kpiOutPath(base, algo string) string {
	dir, file := filepath.Split(base)
	ext := filepath.Ext(file)
	return dir + strings.TrimSuffix(file, ext) + "." + strings.ToLower(algo) + ext
}

// writeKPISeries dumps the run's per-frame KPI trajectory as CSV, every
// known series as one column.
func writeKPISeries(path string, rec *tseries.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tseries.WriteCSV(f, rec.Snapshot(), tseries.SeriesNames); err != nil {
		f.Close()
		return fmt.Errorf("write kpi series %s: %w", path, err)
	}
	return f.Close()
}

// writeChromeTrace dumps the run's decision traces in the Chrome
// trace-event format (load in chrome://tracing or Perfetto).
func writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dtrace.Default().WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// allAlgorithms lists every dispatcher name for -algo all, the paper's
// algorithms first.
func allAlgorithms() []string {
	return []string{
		"nstd-p", "nstd-t", "nstd-c", "nstd-m",
		"greedy", "mincost", "bottleneck",
		"std-p", "std-t", "raii", "sarp", "ilp",
	}
}

// printComparison renders one row per algorithm with the paper's three
// metrics.
func printComparison(w io.Writer, reports []*sim.Report, total, taxis int) error {
	tb := stats.Table{
		Title: fmt.Sprintf("comparison over %d requests, %d taxis", total, taxis),
		Columns: []string{
			"algorithm", "served", "delay mean", "delay p95",
			"pass diss", "taxi diss", "shared",
		},
	}
	for _, rep := range reports {
		delays := rep.DispatchDelays()
		tb.AddRow(
			rep.Algorithm,
			fmt.Sprintf("%d/%d", rep.ServedCount(), total),
			stats.F(stats.Mean(delays)),
			stats.F(stats.Percentile(delays, 95)),
			stats.F(stats.Mean(rep.PassengerDissatisfactions())),
			stats.F(stats.Mean(rep.TaxiDissatisfactions())),
			fmt.Sprintf("%d", rep.SharedRideCount()),
		)
	}
	return tb.Render(w)
}

func cityByName(name string) (trace.City, int, int, error) {
	switch strings.ToLower(name) {
	case "boston":
		return trace.Boston(), 200, 13500, nil
	case "newyork", "nyc", "new-york":
		return trace.NewYork(), 700, 46600, nil
	default:
		return trace.City{}, 0, 0, fmt.Errorf("unknown city %q (want boston or newyork)", name)
	}
}

func dispatcherByName(name string, theta float64) (sim.Dispatcher, error) {
	packCfg := share.PackConfig{Theta: theta, MaxGroupSize: 3, PairRadius: 2 * theta}
	carpoolCfg := carpool.Config{Theta: theta, MaxAdded: 2 * theta, SearchRadius: 2 * theta}
	switch strings.ToLower(name) {
	case "nstd-p":
		return dispatch.NewNSTDP(), nil
	case "nstd-t":
		return dispatch.NewNSTDT(), nil
	case "nstd-c":
		return dispatch.NewNSTDC(), nil
	case "nstd-m":
		return dispatch.NewNSTDM(), nil
	case "greedy":
		return dispatch.NewGreedy(), nil
	case "mincost":
		return dispatch.NewMinCost(), nil
	case "bottleneck":
		return dispatch.NewBottleneck(), nil
	case "std-p":
		return dispatch.NewSTDP(packCfg), nil
	case "std-t":
		return dispatch.NewSTDT(packCfg), nil
	case "raii":
		return carpool.NewRAII(carpoolCfg), nil
	case "sarp":
		return carpool.NewSARP(carpoolCfg), nil
	case "ilp":
		return carpool.NewILP(packCfg), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func printSummary(w io.Writer, rep *sim.Report, total, taxis int) error {
	delays := rep.DispatchDelays()
	pass := rep.PassengerDissatisfactions()
	taxi := rep.TaxiDissatisfactions()

	tb := stats.Table{
		Title:   fmt.Sprintf("%s over %d requests, %d taxis, %d frames", rep.Algorithm, total, taxis, rep.Frames),
		Columns: []string{"metric", "mean", "p50", "p95", "max"},
	}
	row := func(name string, xs []float64) {
		tb.AddRow(name, stats.F(stats.Mean(xs)), stats.F(stats.Percentile(xs, 50)),
			stats.F(stats.Percentile(xs, 95)), stats.F(stats.Max(xs)))
	}
	row("dispatch delay (min)", delays)
	row("passenger dissatisfaction (km)", pass)
	row("taxi dissatisfaction (km)", taxi)
	if err := tb.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  served %d/%d (%d unserved, %d abandoned), %d episodes, %d shared rides\n",
		rep.ServedCount(), total, rep.UnservedCount(), rep.AbandonedCount(), len(rep.Episodes), rep.SharedRideCount()); err != nil {
		return err
	}
	if n := rep.CancelledCount() + rep.RescuedCount() + rep.RequeueCount(); n > 0 {
		if _, err := fmt.Fprintf(w, "  faults: %d cancelled, %d rescued riders, %d re-dispatch attempts\n",
			rep.CancelledCount(), rep.RescuedCount(), rep.RequeueCount()); err != nil {
			return err
		}
	}
	return nil
}

// printStageTimings renders one run's dispatch-pipeline stage timings
// from that run's ledger (StageBreakdown, the same rollup behind
// dispatchd's /v1/report and /v1/profile).
func printStageTimings(w io.Writer, algo string, ld *prof.Ledger) error {
	frame, stages := ld.StageBreakdown()
	if frame == nil && len(stages) == 0 {
		return nil
	}
	tb := stats.Table{
		Title:   algo + " dispatch pipeline stage timings (per frame)",
		Columns: []string{"stage", "frames", "total ms", "p50 ms", "p95 ms", "p99 ms"},
	}
	ms := func(sec float64) string { return stats.F(sec * 1e3) }
	add := func(name string, st prof.StageSummary) {
		tb.AddRow(name, fmt.Sprintf("%d", st.Count),
			ms(st.TotalSeconds), ms(st.P50Seconds), ms(st.P95Seconds), ms(st.P99Seconds))
	}
	if frame != nil {
		add("frame (total)", *frame)
	}
	for _, st := range stages {
		add(st.Stage, st)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	// With a budget set, the ledger's overrun accounting belongs in the
	// summary: it is the line an operator greps after a slow run.
	if sum := ld.Summary(); sum.BudgetNs > 0 {
		_, err := fmt.Fprintf(w, "  frame budget %.2fms: %d overruns, %d pprof captures, %d suppressed\n",
			float64(sum.BudgetNs)/1e6, sum.Overruns, sum.Captures, sum.Suppressed)
		return err
	}
	return nil
}
