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
//	GET    /v1/requests/{id}
//	DELETE /v1/requests/{id}  passenger cancellation (before pickup)
//	POST   /v1/tick           {"frames":1}
//	GET    /v1/report
//	GET    /v1/stream                  live SSE feed: kpi, slo, admission, events, notice
//	GET    /v1/explain/{id}            why this taxi: ranks + rejected alternatives
//	GET    /v1/frames/{n}/stability    blocking-pair certificate of frame n
//	GET    /v1/profile                 frame-budget profiler: stage breakdown, slow-frame attribution
//	GET    /v1/metrics        Prometheus text format
//	GET    /healthz           uptime, frame, occupancy counts, and SLO alert state
//
// Every daemon runs the same instrumentation: its simulator owns a
// decision-trace recorder (the most recent 4096 requests), a KPI ring
// (the last 1440 frames, with each frame's stage times), a
// frame-budget ledger and a live-telemetry hub. Only the SLO engine
// (-slo-file) and the flight recorder (-bundle-dir) are optional.
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
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/trace"
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
		workers    = fs.Int("workers", 0, "cost-plane worker pool size; 0 = GOMAXPROCS (results are identical for any value)")
		sloFile    = fs.String("slo-file", "", "SLO definitions file; objectives are evaluated every frame, their worst state served in /healthz's slo block and each objective in /v1/metrics' slo_* gauges and the stream's slo topic")
		bundleDir  = fs.String("bundle-dir", "", "flight-recorder bundle directory; enables diagnostic bundles on SLO breach, degrade, panic, certificate violation, or frame-budget overrun")
		intakeCap  = fs.Int("intake-queue", admission.DefaultQueueCap, "admission queue capacity, at least 1: requests accepted but not yet injected into a frame; beyond it POST /v1/requests sheds 429")
		maxInfl    = fs.Int("max-inflight", 100000, "max admitted requests that have not reached a terminal state; beyond it POST /v1/requests sheds 429 (at least 0; 0 = unlimited)")
		profBudget = fs.Duration("prof-budget", 0, "frame deadline budget for the frame-budget profiler; frames over it are overruns and, with -bundle-dir, capture pprof CPU/heap deltas into a flight-recorder bundle (0 = attribution only, no overrun detection)")
		profCapt   = fs.Int("prof-capture-frames", flightrec.DefaultCaptureFrames, "frames the CPU profile spans after an overrun trigger, at least 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reported like flag parse errors: below its minimum each value
	// would silently become a default (no cap, for -max-inflight).
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"intake-queue", int64(*intakeCap), 1},
		{"max-inflight", int64(*maxInfl), 0},
		{"prof-capture-frames", int64(*profCapt), 1},
	} {
		if f.v < f.min {
			err := fmt.Errorf("invalid value %d for flag -%s: want at least %d", f.v, f.name, f.min)
			fmt.Fprintln(fs.Output(), err)
			fs.Usage()
			return err
		}
	}

	city, err := trace.CityByName(*cityName)
	if err != nil {
		return err
	}
	fleetTaxis, err := trace.Taxis(city, *taxis, *seed)
	if err != nil {
		return err
	}
	d, err := exp.Dispatcher(*algo, *theta)
	if err != nil {
		return err
	}
	if *frameDDL > 0 {
		d = dispatch.NewResilient(d, nil, *frameDDL)
	}
	var recorder *flightrec.Recorder
	if *bundleDir != "" {
		if recorder, err = flightrec.New(flightrec.Config{Dir: *bundleDir, CaptureFrames: *profCapt}); err != nil {
			return err
		}
	}
	var sloEng *slo.Engine
	if *sloFile != "" {
		if sloEng, err = slo.Load(*sloFile); err != nil {
			return err
		}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// The admission queue drains once per frame, so the Retry-After hint
	// is the auto-tick interval when one is set (else the 1s default).
	server, err := newServer(config{
		Taxis:       fleetTaxis,
		Params:      pref.DefaultParams(),
		Dispatcher:  d,
		Workers:     *workers,
		SLO:         sloEng,
		Recorder:    recorder,
		QueueCap:    *intakeCap,
		MaxInflight: *maxInfl,
		RetryAfter:  *auto,
		ProfBudget:  *profBudget,
		Log:         logger,
		Quiet:       *quiet,
	})
	if err != nil {
		return err
	}
	if recorder != nil {
		// Deferred before the ticker's stop, so it runs once no frame
		// can step any more: a capture still running is written as a
		// short bundle and the CPU profiler released.
		defer func() {
			if err := recorder.Close(); err != nil {
				logger.Warn("final overrun bundle failed", "err", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.handler,
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
	tickCtx, stopTicker := context.WithCancel(context.Background())
	var ticking sync.WaitGroup
	stopAuto := func() { stopTicker(); ticking.Wait() }
	if *auto > 0 {
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			ticker := time.NewTicker(*auto)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := server.step(); err != nil {
						logger.Warn("auto tick failed", "err", err)
					}
				case <-tickCtx.Done():
					return
				}
			}
		}()
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
		logger.Info("shutdown signal: draining", "intakeQueue", server.adm.QueueDepth(), "inflight", server.adm.Inflight())
		server.adm.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(shutdownCtx)
		stopAuto()
		if err := server.drainFinal(); err != nil {
			logger.Warn("final drain frame failed", "err", err)
		}
		logger.Info("drained", "intakeQueue", server.adm.QueueDepth(), "accepted", server.adm.Accepted())
		return shutdownErr
	}
}
