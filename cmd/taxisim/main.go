// Command taxisim runs dispatch algorithms over a synthetic or CSV trace
// and prints metrics summaries:
//
//	taxisim -city boston -algo nstd-p -taxis 200 -frames 1440
//	taxisim -trace day.csv -city newyork -algo sarp
//	taxisim -algo nstd-p,greedy,mincost    # side-by-side comparison
//	taxisim -algo all                      # every algorithm
//	taxisim -algo nstd-p -trace-out decisions.json   # Chrome trace of dispatch decisions
//	taxisim -algo nstd-p,std-p -trace-out d.json     # one trace per algorithm (d.nstd-p.json, …)
//	taxisim -algo nstd-p -kpi-out kpi.csv            # per-frame KPI time series
//	taxisim -algo nstd-p,greedy -kpi-out kpi.csv     # one CSV per algorithm (kpi.nstd-p.csv, …)
//	taxisim -algo nstd-p -slo ci/watchdog.slo -bundle-dir bundles   # SLO watchdog + flight recorder
//
// Algorithms: nstd-p, nstd-t, greedy, mincost, bottleneck (non-sharing);
// std-p, std-t, sarp, ilp (sharing).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
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
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON of dispatch decisions to this file (multi-algorithm runs write one suffixed file per algorithm)")
		kpiOut    = fs.String("kpi-out", "", "write the per-frame KPI time series as CSV to this file (multi-algorithm runs write one suffixed file per algorithm)")
		traceCap  = fs.Int("trace-capacity", dtrace.DefaultCapacity, "decision-trace events retained (across all requests) when -trace-out is set, at least 1")
		sloPath   = fs.String("slo", "", "SLO definitions file; objectives are evaluated every frame and a report line is printed per run")
		bundleDir = fs.String("bundle-dir", "", "flight-recorder bundle directory; enables diagnostic bundles on SLO breach, degrade, certificate violation, or frame-budget overrun (multi-algorithm runs use one subdirectory per algorithm)")

		faultSeed     = fs.Int64("fault-seed", 0, "seed for the fault-injection schedule (0 = derive from -seed)")
		breakdownRate = fs.Float64("breakdown-rate", 0, "per-frame probability a busy taxi breaks down mid-route")
		cancelRate    = fs.Float64("cancel-rate", 0, "probability a passenger cancels before pickup")
		driverCancel  = fs.Float64("driver-cancel-rate", 0, "probability a driver abandons an accepted fare before pickup")
		frameDDL      = fs.Duration("frame-deadline", 0, "per-frame dispatch compute deadline; overruns and panics degrade to greedy (0 = unbounded)")
		profBudget    = fs.Duration("prof-budget", 0, "frame deadline budget for the frame-budget profiler; overruns print in the run summary and, with -bundle-dir, capture pprof CPU/heap deltas into a flight-recorder bundle (0 = off)")
		profCapt      = fs.Int("prof-capture-frames", flightrec.DefaultCaptureFrames, "frames the CPU profile spans after an overrun trigger, at least 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reported like flag parse errors: flightrec.New and dtrace.New
	// would read a value below one as their default, not as the one
	// asked for.
	for _, name := range []string{"prof-capture-frames", "trace-capacity"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			err := fmt.Errorf("invalid value %d for flag -%s: want at least 1", v, name)
			fmt.Fprintln(fs.Output(), err)
			fs.Usage()
			return err
		}
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

	city, err := trace.CityByName(*cityName)
	if err != nil {
		return err
	}
	if *taxis == 0 {
		*taxis = city.Fleet
	}
	if *volume == 0 {
		*volume = city.RequestsPerDay
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
		names = exp.Algorithms()
	}
	var sloDefs []slo.Def
	if *sloPath != "" {
		sloDefs, err = slo.ParseFile(*sloPath)
		if err != nil {
			return err
		}
	}
	var reports []*sim.Report
	var ledgers []*prof.Ledger
	var recorders []*flightrec.Recorder
	var kpis []*tseries.Recorder
	var sloLines, traceLines []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		kpiPath, tracePath, bundles := *kpiOut, *traceOut, *bundleDir
		if len(names) > 1 {
			kpiPath, tracePath = kpiOutPath(kpiPath, name), kpiOutPath(tracePath, name)
			bundles = filepath.Join(bundles, strings.ToLower(name))
		}
		d, err := exp.Dispatcher(name, *theta)
		if err != nil {
			return err
		}
		if *frameDDL > 0 {
			d = dispatch.NewResilient(d, nil, *frameDDL)
		}
		// Each algorithm gets its own recorder so a comparison run keeps
		// per-run trajectories separate; the stage table, -kpi-out and
		// the SLO engine all read it. Downsampling keeps the whole-run
		// trajectory bounded: a paper-scale day (1440 frames) fits
		// losslessly, and longer replays compact to every 2nd/4th/...
		// frame instead of dropping the start of the day.
		kpi := tseries.New(tseries.Config{Capacity: 4096, Downsample: true})
		var sloEng *slo.Engine
		if len(sloDefs) > 0 {
			if sloEng, err = slo.New(sloDefs); err != nil {
				return err
			}
		}
		// Each run gets its own decision-trace recorder and flight
		// recorder, so a comparison run's traces, certificates and
		// bundles stay per algorithm.
		var tracer *dtrace.Recorder
		if *traceOut != "" {
			tracer = dtrace.New(*traceCap)
		}
		var recorder *flightrec.Recorder
		if *bundleDir != "" {
			if recorder, err = flightrec.New(flightrec.Config{Dir: bundles, CaptureFrames: *profCapt}); err != nil {
				return err
			}
		}
		// Each run gets its own frame-budget ledger, so every algorithm's
		// stage table and overrun count are its own. With a recorder, an
		// overrun frame is one of its triggers.
		ledger := prof.New(prof.Config{BudgetNs: profBudget.Nanoseconds()})
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
			Tracer:         tracer,
		}, fleetTaxis, reqs)
		if err != nil {
			return err
		}
		rep, err := s.Run()
		if recorder != nil {
			// A capture still running when the run ends is written as
			// a short bundle, and the CPU profiler is released for the
			// next algorithm's run.
			err = errors.Join(err, recorder.Close())
		}
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		ledgers = append(ledgers, ledger)
		recorders = append(recorders, recorder)
		kpis = append(kpis, kpi)
		if *kpiOut != "" {
			csv := func(w io.Writer) error { return tseries.WriteCSV(w, kpi.Snapshot(), tseries.SeriesNames) }
			if err := writeFile(kpiPath, "kpi series", csv); err != nil {
				return err
			}
		}
		if tracer != nil {
			if err := writeFile(tracePath, "trace", tracer.WriteChromeTrace); err != nil {
				return err
			}
			// The ring keeps the newest events only: say how much of
			// the run the written trace covers.
			st := tracer.Stats()
			traceLines = append(traceLines, fmt.Sprintf("%s decision trace: %d of %d events kept, %d evicted (-trace-capacity %d)",
				rep.Algorithm, st.Events-st.Evicted, st.Events, st.Evicted, *traceCap))
		}
		if sloEng != nil {
			sloLines = append(sloLines, fmt.Sprintf("%s: %s", rep.Algorithm, sloEng.Report()))
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
		if err := printStageTimings(out, rep.Algorithm, kpis[i].Snapshot(), ledgers[i], recorders[i]); err != nil {
			return err
		}
	}
	for _, line := range append(sloLines, traceLines...) {
		if _, err := fmt.Fprintln(out, line); err != nil {
			return err
		}
	}
	// A bundle that failed to write is lost evidence: like a failed
	// -kpi-out write, it fails the run, after the summary that counts it.
	var failed []error
	for i, rec := range recorders {
		if rec != nil && rec.Errors() > 0 {
			failed = append(failed, fmt.Errorf("%s: flight recorder: %d bundle writes or deletions failed", reports[i].Algorithm, rec.Errors()))
		}
	}
	return errors.Join(failed...)
}

// kpiOutPath derives the per-algorithm KPI CSV or Chrome trace path for
// a multi-algorithm run by inserting the algorithm name before the
// extension: "out/kpi.csv" + "nstd-p" → "out/kpi.nstd-p.csv".
func kpiOutPath(base, algo string) string {
	dir, file := filepath.Split(base)
	ext := filepath.Ext(file)
	return dir + strings.TrimSuffix(file, ext) + "." + strings.ToLower(algo) + ext
}

// writeFile creates path and fills it: the per-frame KPI CSV, every
// known series as one column, or the Chrome decision trace (load in
// chrome://tracing or Perfetto).
func writeFile(path, what string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s %s: %w", what, path, err)
	}
	return f.Close()
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

// printStageTimings renders one run's stage timings from that run's KPI
// samples (tseries.StageBreakdown, the same rollup behind dispatchd's
// /v1/report and /v1/profile), its ledger's overrun count and, with a
// flight recorder, the recorder's bundle, suppression and failure
// counts.
func printStageTimings(w io.Writer, algo string, samples []tseries.Sample, ld *prof.Ledger, rec *flightrec.Recorder) error {
	frame, stages := tseries.StageBreakdown(samples)
	if frame == nil && len(stages) == 0 {
		return nil
	}
	tb := stats.Table{
		Title:   algo + " dispatch pipeline stage timings (per frame)",
		Columns: []string{"stage", "frames", "total ms", "p50 ms", "p95 ms", "p99 ms"},
	}
	ms := func(sec float64) string { return stats.F(sec * 1e3) }
	add := func(name string, st tseries.StageSummary) {
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
	// The overrun and recorder accounting belong in the summary: it is
	// the line an operator greps after a slow or breached run.
	var parts []string
	if sum := ld.Summary(); sum.BudgetNs > 0 {
		parts = append(parts, fmt.Sprintf("frame budget %v: %d overruns", time.Duration(sum.BudgetNs), sum.Overruns))
	}
	if rec != nil {
		parts = append(parts, fmt.Sprintf("flight recorder: %d bundles, %d suppressed, %d failed", rec.Bundles(), rec.Suppressed(), rec.Errors()))
	}
	if len(parts) == 0 {
		return nil
	}
	_, err := fmt.Fprintln(w, "  "+strings.Join(parts, "; "))
	return err
}
