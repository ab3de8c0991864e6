// Command dispatchd is an O2O dispatch daemon: it keeps a live fleet
// simulation behind a JSON HTTP API, dispatching with the paper's stable
// matching (or any baseline). Passengers POST ride requests; each POST
// /v1/tick advances one one-minute dispatch frame.
//
//	dispatchd -addr :8080 -city boston -taxis 200 -algo nstd-p
//
// Ingestion is overload-safe: POST /v1/requests passes admission control
// (a bounded intake queue, -intake-queue, plus an in-flight cap,
// -max-inflight) and sheds 429 with Retry-After when either bound is
// hit. Admitted requests are injected at the next frame boundary in
// admission order. SIGTERM/SIGINT drains gracefully: new requests shed
// 503 while the admitted tail is flushed through a final frame.
//
// API:
//
//	POST   /v1/requests       {"pickup":{"x":1,"y":2},"dropoff":{"x":3,"y":4},"seats":1}
//	DELETE /v1/requests/{id}  passenger cancellation (before pickup)
//	POST   /v1/tick           {"frames":1}
//	POST   /v1/chaos          {"kind":"outage"|"breakdown","taxiId":3,"frames":30}
//	GET    /v1/taxis
//	GET    /v1/requests/{id}
//	GET    /v1/report
//	GET    /v1/events                  ?since=FRAME&limit=N
//	GET    /v1/traces/{id}             full decision trace of one request
//	GET    /v1/explain/{id}            why this taxi: ranks + rejected alternatives
//	GET    /v1/frames/{n}/stability    blocking-pair certificate of frame n
//	GET    /v1/timeseries              per-frame KPI series (?series=&from=&to=&step=&limit=&format=csv)
//	GET    /v1/slo                     per-objective SLO alert table (-slo-file)
//	GET    /v1/profile                 frame-budget profiler: stage breakdown, slow-frame attribution
//	POST   /v1/debug/bundle            force a flight-recorder diagnostic bundle (-bundle-dir)
//	GET    /v1/metrics        Prometheus text format
//	GET    /healthz           uptime, frame, occupancy counts, and SLO alert state
//
// Decision tracing is on by default (disable with -dtrace=false); the
// trace ring keeps the most recent -trace-capacity requests.
//
// With -debug-addr a second listener serves net/http/pprof under
// /debug/pprof/, kept off the public API address on purpose.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"stabledispatch/internal/admission"
	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dispatchd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dispatchd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cityName   = fs.String("city", "boston", "city model: boston or newyork")
		taxis      = fs.Int("taxis", 200, "fleet size")
		algo       = fs.String("algo", "nstd-p", "dispatch algorithm")
		seed       = fs.Int64("seed", 42, "random seed for taxi placement")
		theta      = fs.Float64("theta", 5, "sharing detour bound in km")
		auto       = fs.Duration("auto", 0, "advance one frame automatically at this interval (0 = manual /v1/tick only)")
		debug      = fs.String("debug-addr", "", "optional extra listener for net/http/pprof (e.g. localhost:6060; empty = disabled)")
		quiet      = fs.Bool("quiet", false, "suppress per-request access logging")
		frameDDL   = fs.Duration("frame-deadline", 0, "per-frame dispatch compute deadline; overruns and panics degrade to greedy (0 = unbounded)")
		dtraceOn   = fs.Bool("dtrace", true, "record per-request decision traces and frame stability certificates")
		traceCap   = fs.Int("trace-capacity", dtrace.DefaultCapacity, "max request traces retained in the decision-trace ring")
		kpiCap     = fs.Int("kpi-capacity", tseries.DefaultCapacity, "per-frame KPI samples retained for /v1/timeseries (0 disables recording)")
		workers    = fs.Int("workers", 0, "cost-plane worker pool size; 0 = GOMAXPROCS (results are identical for any value)")
		sloFile    = fs.String("slo-file", "", "SLO definitions file; objectives are evaluated every frame and served at /v1/slo (requires KPI recording)")
		bundleDir  = fs.String("bundle-dir", "", "flight-recorder bundle directory; enables diagnostic bundles on SLO breach, degrade, panic, certificate violation, or POST /v1/debug/bundle")
		intakeCap  = fs.Int("intake-queue", admission.DefaultQueueCap, "admission queue capacity: requests accepted but not yet injected into a frame; beyond it POST /v1/requests sheds 429")
		maxInfl    = fs.Int("max-inflight", 100000, "max admitted requests that have not reached a terminal state; beyond it POST /v1/requests sheds 429 (0 = unlimited)")
		streamBuf  = fs.Int("stream-buffer", stream.DefaultRingSize, "per-connection /v1/stream ring capacity; a consumer slower than the feed drops its own oldest entries beyond it")
		streamHB   = fs.Duration("stream-heartbeat", defaultStreamHeartbeat, "keepalive comment interval on idle /v1/stream connections")
		profBudget = fs.Duration("prof-budget", 0, "frame deadline budget for the frame-budget profiler; frames over it are overruns and, with -bundle-dir, capture pprof CPU/heap deltas into a flight-recorder bundle (0 = attribution only, no overrun detection)")
		profTopN   = fs.Int("prof-topn", prof.DefaultTopN, "slowest frames retained with per-stage attribution at /v1/profile")
		profCapt   = fs.Int("prof-capture-frames", prof.DefaultCaptureFrames, "frames the CPU profile spans after an overrun trigger")
		profCool   = fs.Int64("prof-cooldown", prof.DefaultCooldownFrames, "minimum frames between two overrun captures; overruns inside it are counted, not captured")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dtrace.SetEnabled(*dtraceOn)
	if *dtraceOn {
		dtrace.Default().SetCapacity(*traceCap)
	}

	var city trace.City
	switch *cityName {
	case "boston":
		city = trace.Boston()
	case "newyork":
		city = trace.NewYork()
	default:
		return fmt.Errorf("unknown city %q", *cityName)
	}
	fleetTaxis, err := trace.Taxis(city, *taxis, *seed)
	if err != nil {
		return err
	}
	d, err := daemonDispatcher(*algo, *theta)
	if err != nil {
		return err
	}
	if *frameDDL > 0 {
		d = dispatch.NewResilient(d, nil, *frameDDL)
	}
	events := newEventBuffer(10000)
	// The daemon's ring is a sliding window (no downsampling): operators
	// polling /v1/timeseries care about the recent trajectory, and the
	// memory bound is kpi-capacity fixed-width samples.
	var kpi *tseries.Recorder
	if *kpiCap > 0 {
		kpi = tseries.New(tseries.Config{Capacity: *kpiCap})
	}
	var recorder *flightrec.Recorder
	if *bundleDir != "" {
		if recorder, err = flightrec.New(flightrec.Config{Dir: *bundleDir, ChromeTrace: *dtraceOn}); err != nil {
			return err
		}
	}
	// The frame-budget profiler is always on in the daemon: /v1/report,
	// /v1/profile, /v1/metrics' stage histograms and the prof stream
	// topic all read the ledger, and its disabled-overrun cost is a few
	// span reads per frame. Overrun captures only arm when a budget and
	// a flight recorder to bundle them into are both configured.
	ledger := prof.New(prof.Config{
		BudgetNs:       profBudget.Nanoseconds(),
		TopN:           *profTopN,
		CaptureFrames:  *profCapt,
		CooldownFrames: *profCool,
		Capture:        *profBudget > 0 && recorder != nil,
	})
	defer ledger.Close()
	var sloEng *slo.Engine
	if *sloFile != "" {
		if kpi == nil {
			return fmt.Errorf("-slo-file requires KPI recording (-kpi-capacity > 0)")
		}
		sloEng, err = slo.Load(*sloFile)
		if err != nil {
			return err
		}
	}
	// The live-telemetry hub: the simulator and the admission controller
	// publish into it, /v1/stream subscribes. While no connection is up
	// every publish gate is one atomic load.
	hub := stream.NewHub()
	// The admission controller fronts POST /v1/requests; its Retry-After
	// hint is the auto-tick interval when one is set (the queue drains
	// once per frame), else the 1s default.
	adm := admission.New(admission.Config{
		QueueCap:    *intakeCap,
		MaxInflight: *maxInfl,
		RetryAfter:  *auto,
		Hub:         hub,
	})
	s, err := sim.New(sim.Config{
		Params:     pref.DefaultParams(),
		Dispatcher: d,
		Events:     sim.MultiSink(events, admissionSink(adm)),
		KPI:        kpi,
		SLO:        sloEng,
		Workers:    *workers,
		Ledger:     ledger,
		Recorder:   recorder,
		Hub:        hub,
		Admission:  adm,
	}, fleetTaxis, nil)
	if err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	accessLogger := logger
	if *quiet {
		accessLogger = nil
	}

	// Middleware order: metrics/logging outermost (a recovered panic is
	// still logged with its 500), then panic recovery, then the body cap.
	server := newServer(s).withEvents(events).withSLO(sloEng).withAdmission(adm).
		withStream(hub, *streamBuf, *streamHB)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           withObs(accessLogger, withRecovery(logger, recorder, withBodyLimit(server.handler()))),
		ReadHeaderTimeout: 5 * time.Second,
		// Bound slow-loris reads and wedged writes; WriteTimeout leaves
		// room for a large manual /v1/tick batch on the paper-scale
		// fleet.
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 120 * time.Second,
	}

	// Profiling stays on its own listener so it is never reachable
	// through the public API address.
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{
			Addr:              *debug,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("pprof listener up", "addr", *debug)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener failed", "err", err)
			}
		}()
		defer dbg.Close()
	}

	// Optional wall-clock frame advancement, with a managed lifetime:
	// stopAuto stops the ticker goroutine and waits for it, and is safe
	// to call more than once (the drain path stops it early, the defer
	// covers error exits).
	var (
		stopTicker = make(chan struct{})
		tickerDone = make(chan struct{})
		tickerOnce sync.Once
	)
	stopAuto := func() {
		tickerOnce.Do(func() { close(stopTicker) })
		<-tickerDone
	}
	if *auto > 0 {
		go func() {
			defer close(tickerDone)
			ticker := time.NewTicker(*auto)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := server.step(); err != nil {
						logger.Warn("auto tick failed", "err", err)
					}
				case <-stopTicker:
					return
				}
			}
		}()
	} else {
		close(tickerDone)
	}
	defer stopAuto()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("dispatchd up",
			"algo", d.Name(), "addr", *addr, "taxis", *taxis, "city", city.Name)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		// Graceful drain: shed new work first (503 + Retry-After), let
		// in-flight handlers finish, stop the ticker, then flush any
		// already-admitted requests through one final dispatch frame so
		// every 201 the daemon issued reaches the dispatcher.
		logger.Info("shutdown signal: draining", "intakeQueue", adm.QueueDepth(), "inflight", adm.Inflight())
		adm.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(shutdownCtx)
		stopAuto()
		if err := server.drainFinal(); err != nil {
			logger.Warn("final drain frame failed", "err", err)
		}
		logger.Info("drained", "intakeQueue", adm.QueueDepth(), "accepted", adm.Accepted())
		return shutdownErr
	}
}

func daemonDispatcher(name string, theta float64) (sim.Dispatcher, error) {
	packCfg := share.PackConfig{Theta: theta, MaxGroupSize: 3, PairRadius: 2 * theta}
	carpoolCfg := carpool.Config{Theta: theta, MaxAdded: 2 * theta, SearchRadius: 2 * theta}
	switch name {
	case "nstd-p":
		return dispatch.NewNSTDP(), nil
	case "nstd-t":
		return dispatch.NewNSTDT(), nil
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
