package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabledispatch/internal/admission"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/obs"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// server wraps a live simulator behind a JSON HTTP API: the O2O platform
// view of the dispatcher. Passengers POST requests, an operator (or a
// timer) POSTs ticks to advance dispatch frames, and anyone can read the
// running metrics.
//
// Ingestion is decoupled from the frame loop: POST /v1/requests runs
// admission control and enqueues under the controller's own mutex, never
// touching s.mu, so accepting a ride stays fast while a paper-scale
// frame is solving. Admitted requests are batch-injected at the next
// frame boundary (stepLocked), in admission order.
// The simulator owns every instrumentation handle and the server reads
// them through its accessors; the server owns only the front door.
type server struct {
	mu  sync.Mutex
	sim *sim.Simulator
	adm *admission.Controller
	// handler is the API behind its middleware chain: request metrics
	// and access log → panic recovery → body limit → routes.
	handler http.Handler
	// streamHeartbeat is the keepalive interval on idle /v1/stream
	// connections.
	streamHeartbeat time.Duration
	// frameNow mirrors the simulator's frame counter so handlers that
	// only need an advisory frame number (the 201 response, healthz's
	// draining view) can read it without s.mu.
	frameNow atomic.Int64
	start    time.Time
	// http holds this server's request metrics; withObs and
	// withRecovery record into it.
	http *httpMetrics
}

// config is every input a dispatchd command line varies. main fills it
// from flags, tests fill the same fields, and newServer wires the rest
// identically for both. Zero SpeedKmH and Workers take the simulator's
// defaults; SLO and Recorder are optional (-slo-file, -bundle-dir).
type config struct {
	Taxis      []fleet.Taxi
	Params     pref.Params
	Dispatcher sim.Dispatcher
	SpeedKmH   float64
	Workers    int
	SLO        *slo.Engine
	Recorder   *flightrec.Recorder
	// QueueCap, MaxInflight and RetryAfter configure the front door
	// (-intake-queue, -max-inflight, and the -auto interval).
	QueueCap, MaxInflight int
	RetryAfter            time.Duration
	// ProfBudget is the frame-budget ledger's deadline; with a
	// Recorder, an overrun frame is one of its triggers.
	ProfBudget time.Duration
	// Log receives handler panics and, unless Quiet, one access-log
	// line per request; nil logs nothing.
	Log   *slog.Logger
	Quiet bool
}

// newServer builds one daemon: the stream hub, the admission controller
// (publishing on the hub, settled from the simulator's counts),
// the KPI ring, the frame-budget ledger, the decision-trace recorder,
// the simulator that owns them, and the handler chain that serves it.
func newServer(cfg config) (*server, error) {
	hub := stream.NewHub()
	adm := admission.New(admission.Config{
		QueueCap:    cfg.QueueCap,
		MaxInflight: cfg.MaxInflight,
		RetryAfter:  cfg.RetryAfter,
		Hub:         hub,
	})
	s, err := sim.New(sim.Config{
		Params:     cfg.Params,
		Dispatcher: cfg.Dispatcher,
		SpeedKmH:   cfg.SpeedKmH,
		Workers:    cfg.Workers,
		// A sliding window (no downsampling): /v1/profile, /v1/metrics
		// and the stream's connect snapshot describe the recent
		// frames, not a thinned whole run.
		KPI:       tseries.New(tseries.Config{Capacity: tseries.DefaultCapacity}),
		SLO:       cfg.SLO,
		Ledger:    prof.New(prof.Config{BudgetNs: cfg.ProfBudget.Nanoseconds()}),
		Recorder:  cfg.Recorder,
		Tracer:    dtrace.New(0),
		Hub:       hub,
		Admission: adm,
	}, cfg.Taxis, nil)
	if err != nil {
		return nil, err
	}
	srv := &server{
		sim:             s,
		adm:             adm,
		streamHeartbeat: defaultStreamHeartbeat,
		start:           time.Now(),
		http:            newHTTPMetrics(),
	}
	access := cfg.Log
	if cfg.Quiet {
		access = nil
	}
	// Metrics and logging outermost (a recovered panic is still logged
	// with its 500), then panic recovery, then the body cap.
	srv.handler = withObs(access, srv.http,
		withRecovery(cfg.Log, cfg.Recorder, srv.frameNow.Load, srv.http,
			withBodyLimit(srv.routes())))
	return srv, nil
}

// locked runs f under s.mu. Every holder of s.mu goes through it or
// unlocks by defer, so a panic in f — a dispatcher bug inside Step,
// recovered into a 500 by withRecovery — still releases the lock and
// later requests and the auto-ticker are not blocked forever.
func (s *server) locked(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// step advances one frame under the server lock; the auto-ticker uses it.
func (s *server) step() error {
	_, err := s.stepN(1)
	return err
}

// stepN advances n frames under one hold of s.mu and returns the frame
// reached.
func (s *server) stepN(n int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := s.stepLocked(); err != nil {
			return 0, err
		}
	}
	return s.sim.Frame(), nil
}

// stepLocked injects every request admitted since the last boundary —
// in admission order, stamped with the current frame — then advances
// one frame and settles the in-flight count, even when a dispatcher
// panic unwinds Step. Callers hold s.mu. Injecting the whole batch
// before Step makes the batch indistinguishable from synchronous
// injection: the requests join this frame's pending queue in exactly
// the order they were admitted, so dispatch output per frame is
// unchanged.
func (s *server) stepLocked() error {
	defer s.settleLocked()
	for _, r := range s.adm.TakeBatch() {
		s.injectLocked(r)
	}
	if err := s.sim.Step(); err != nil {
		return err
	}
	s.frameNow.Store(int64(s.sim.Frame()))
	return nil
}

// injectLocked hands one admitted request to the simulator, stamped
// with the current frame; the next Step releases it. Callers hold s.mu.
func (s *server) injectLocked(r fleet.Request) {
	r.Frame = s.sim.Frame()
	if err := s.sim.Inject(r); err != nil {
		// Unreachable while the controller is the sole ID source; the
		// next settle releases the slot.
		s.adm.NoteInjectFailure()
	}
}

// settleLocked hands the admission controller the simulator's count of
// unfinished requests. Callers hold s.mu.
func (s *server) settleLocked() {
	c := s.sim.Counts()
	s.adm.Settle(c.Pending + c.Active)
}

// drainFinal flushes any still-queued admitted requests through one
// final dispatch frame, so a graceful shutdown never drops a request it
// already answered 201 for.
func (s *server) drainFinal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adm.QueueDepth() == 0 {
		return nil
	}
	return s.stepLocked()
}

// streamPath is the live event stream's route.
const streamPath = "/v1/stream"

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", s.postRequest)
	mux.HandleFunc("POST /v1/tick", s.postTick)
	mux.HandleFunc("GET /v1/report", s.getReport)
	mux.HandleFunc("GET /v1/requests/{id}", s.getRequest)
	mux.HandleFunc("DELETE /v1/requests/{id}", s.deleteRequest)
	mux.HandleFunc("GET "+streamPath, s.getStream)
	mux.HandleFunc("GET /v1/metrics", s.getMetrics)
	mux.HandleFunc("GET /v1/explain/{id}", s.getExplain)
	mux.HandleFunc("GET /v1/frames/{n}/stability", s.getStability)
	mux.HandleFunc("GET /v1/profile", s.getProfile)
	mux.HandleFunc("GET /healthz", s.getHealth)
	return withJSONRouteErrors(mux)
}

// healthOut is the liveness payload: still "status":"ok", now with
// enough occupancy context to read fleet health at a glance.
type healthOut struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Frame         int     `json:"frame"`
	Pending       int     `json:"pendingRequests"`
	Active        int     `json:"activeRequests"`
	Taxis         int     `json:"taxis"`
	TaxisIdle     int     `json:"taxisIdle"`
	TaxisOffline  int     `json:"taxisOffline"`
	// IntakeQueue is the admission queue depth: requests accepted but
	// not yet injected into a frame.
	IntakeQueue int `json:"intakeQueue"`
	// Inflight counts admitted requests that had not reached a terminal
	// lifecycle state at the last frame boundary (queued + pending +
	// assigned + riding).
	Inflight int `json:"inflightRequests"`
	// Draining reports a shutdown in progress: new requests shed 503
	// while the admitted tail flushes.
	Draining bool `json:"draining,omitempty"`
	// SLO is the condensed alert state (absent when no SLO file is
	// loaded). Status stays "ok" for liveness — an SLO breach is an
	// alert, not a dead process.
	SLO *sloHealth `json:"slo,omitempty"`
}

func (s *server) getHealth(w http.ResponseWriter, _ *http.Request) {
	var c sim.Counts
	s.locked(func() { c = s.sim.Counts() })
	status := "ok"
	if s.adm.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthOut{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Frame:         c.Frame,
		Pending:       c.Pending,
		Active:        c.Active,
		Taxis:         c.Taxis,
		TaxisIdle:     c.TaxisIdle,
		TaxisOffline:  c.TaxisOffline,
		IntakeQueue:   s.adm.QueueDepth(),
		Inflight:      s.adm.Inflight(),
		Draining:      s.adm.Draining(),
		SLO:           s.sloHealthOut(),
	})
}

// pointJSON is the wire form of a coordinate.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type requestIn struct {
	Pickup  pointJSON `json:"pickup"`
	Dropoff pointJSON `json:"dropoff"`
	Seats   int       `json:"seats"`
}

type requestOut struct {
	ID int `json:"id"`
	// Frame is the earliest dispatch frame the request can join: it is
	// queued now and injected at the next frame boundary.
	Frame int `json:"frame"`
}

// decodeBody decodes a JSON request body, mapping an over-limit body
// (the MaxBytesReader installed by withBodyLimit) to 413 and any other
// decode failure to 400. A zero status means success.
func decodeBody(r *http.Request, v any) (int, error) {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode: %w", err)
	}
	return 0, nil
}

func (s *server) postRequest(w http.ResponseWriter, r *http.Request) {
	var in requestIn
	if code, err := decodeBody(r, &in); code != 0 {
		writeError(w, code, fmt.Errorf("decode request: %w", err))
		return
	}
	if in.Seats < 0 || in.Seats > 6 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("seats %d out of range", in.Seats))
		return
	}
	// Admission control instead of the simulator lock: the controller
	// allocates the ID and queues the request for the next frame
	// boundary, or sheds. The handler never waits on a solving frame.
	id, err := s.adm.Admit(fleet.Request{
		Pickup:  geo.Point{X: in.Pickup.X, Y: in.Pickup.Y},
		Dropoff: geo.Point{X: in.Dropoff.X, Y: in.Dropoff.Y},
		Seats:   in.Seats,
	})
	if err != nil {
		var shed *admission.ShedError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After", retrySeconds(shed.RetryAfter))
			code := http.StatusTooManyRequests
			if shed.Reason == admission.ReasonDraining {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, requestOut{ID: id, Frame: int(s.frameNow.Load())})
}

// retrySeconds renders a Retry-After hint in the header's non-negative
// integer-seconds form, rounding up so a sub-second hint never becomes
// "0" (which clients read as "immediately").
func retrySeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

type tickIn struct {
	Frames int `json:"frames"`
}

// tickChunkFrames bounds how long one /v1/tick batch holds the server
// lock: a 10000-frame batch used to pin s.mu for the whole run, starving
// /healthz and every read endpoint. Stepping in chunks and releasing the
// lock between them keeps the API responsive during long batches.
const tickChunkFrames = 64

func (s *server) postTick(w http.ResponseWriter, r *http.Request) {
	var in tickIn
	if r.ContentLength != 0 {
		if code, err := decodeBody(r, &in); code != 0 {
			writeError(w, code, fmt.Errorf("decode tick: %w", err))
			return
		}
	}
	if in.Frames <= 0 {
		in.Frames = 1
	}
	if in.Frames > 10000 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("refusing to advance %d frames at once", in.Frames))
		return
	}
	frame, err := s.tick(in.Frames)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"frame": frame})
}

// tick advances the simulation by n frames in bounded chunks, releasing
// s.mu between chunks so concurrent handlers are never starved for the
// duration of a large batch.
func (s *server) tick(n int) (frame int, err error) {
	for n > 0 {
		chunk := min(n, tickChunkFrames)
		n -= chunk
		if frame, err = s.stepN(chunk); err != nil {
			return 0, err
		}
	}
	return frame, nil
}

// reportOut is the GET /v1/report payload: the paper's §VI metrics so
// far. Stage timings are served by /v1/profile.
type reportOut struct {
	Algorithm         string  `json:"algorithm"`
	Frame             int     `json:"frame"`
	Requests          int     `json:"requests"`
	Served            int     `json:"served"`
	Episodes          int     `json:"episodes"`
	SharedRides       int     `json:"sharedRides"`
	MeanDelayMinutes  float64 `json:"meanDelayMinutes"`
	MeanPassengerDiss float64 `json:"meanPassengerDissKm"`
	MeanTaxiDiss      float64 `json:"meanTaxiDissKm"`
}

func (s *server) getReport(w http.ResponseWriter, _ *http.Request) {
	var rep *sim.Report
	var frame int
	s.locked(func() { rep, frame = s.sim.Snapshot(), s.sim.Frame() })
	writeJSON(w, http.StatusOK, reportOut{
		Algorithm:         rep.Algorithm,
		Frame:             frame,
		Requests:          len(rep.Requests),
		Served:            rep.ServedCount(),
		Episodes:          len(rep.Episodes),
		SharedRides:       rep.SharedRideCount(),
		MeanDelayMinutes:  nanToZero(stats.Mean(rep.DispatchDelays())),
		MeanPassengerDiss: nanToZero(stats.Mean(rep.PassengerDissatisfactions())),
		MeanTaxiDiss:      nanToZero(stats.Mean(rep.TaxiDissatisfactions())),
	})
}

// getMetrics renders the Prometheus text format at scrape time, each
// series read from the one instance that counts it: the simulator
// (sim_*, dispatch_degraded_frames_total, roadnet_cache_*), its
// decision-trace recorder (dtrace_*), its hub (stream_*), its KPI ring,
// whose retained samples fill the frame and stage histograms
// (sim_dispatch_frame_seconds, dispatch_stage_seconds), the admission
// controller (admission_*), this server's HTTP metrics (http_*), and
// the optional flight recorder (flightrec_*) and SLO engine (slo_*),
// which export nothing when not configured.
func (s *server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	var p obs.Writer
	var st sim.Stats
	s.locked(func() { st = s.sim.Stats() })
	p.Counter("sim_frames_total", uint64(st.Frames))
	p.Gauge("sim_pending_requests", float64(st.Pending))
	kinds := make([]string, 0, len(st.Events))
	for kind := range st.Events {
		kinds = append(kinds, string(kind))
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		p.Counter(`sim_events_total{kind="`+kind+`"}`, uint64(st.Events[sim.EventKind(kind)]))
	}
	p.Counter(`sim_faults_total{kind="breakdown"}`, uint64(st.Breakdowns))
	p.Counter(`sim_faults_total{kind="driver_cancel"}`, uint64(st.DriverCancels))
	p.Counter(`sim_faults_total{kind="passenger_cancel"}`, uint64(st.PassengerCancels))
	p.Counter("sim_redispatch_total", uint64(st.Redispatched))
	p.Counter("sim_requests_expired_total", uint64(st.Expired))
	p.Counter("sim_event_sink_errors_total", uint64(st.SinkErrors))
	for _, reason := range dispatch.DegradeReasons {
		p.Counter(`dispatch_degraded_frames_total{reason="`+reason+`"}`, uint64(st.Degraded[reason]))
	}
	p.Counter("roadnet_cache_hits_total", st.Cache.Hits)
	p.Counter("roadnet_cache_misses_total", st.Cache.Misses)
	p.Counter("roadnet_cache_evictions_total", st.Cache.Evictions)
	p.Gauge("roadnet_cache_size", float64(st.Cache.Size))
	ts := s.sim.Tracer().Stats()
	p.Counter("dtrace_events_evicted_total", ts.Evicted)
	p.Gauge("dtrace_certificates", float64(ts.Certificates))
	hub := s.sim.Hub()
	for _, t := range stream.Topics {
		p.Counter(`stream_published_total{topic="`+string(t)+`"}`, hub.Published(t))
	}
	p.Counter("stream_dropped_total", hub.Dropped())
	p.Gauge("stream_subscribers", float64(hub.Subscribers()))
	observeFrames(&p, s.sim.KPISeries())
	if rec := s.sim.Recorder(); rec != nil {
		p.Counter("flightrec_bundles_total", uint64(rec.Bundles()))
		p.Counter("flightrec_suppressed_total", rec.Suppressed())
		p.Counter("flightrec_bundle_errors_total", uint64(rec.Errors()))
	}
	if eng := s.sim.SLO(); eng != nil {
		status := eng.Status()
		var breaches int64
		for _, o := range status {
			p.Gauge(fmt.Sprintf(`slo_state{slo=%q}`, o.Name), o.State.Rank())
			breaches += o.Breaches
		}
		for _, o := range status {
			p.Gauge(fmt.Sprintf(`slo_value_fast{slo=%q}`, o.Name), o.Fast)
		}
		for _, o := range status {
			p.Gauge(fmt.Sprintf(`slo_value_slow{slo=%q}`, o.Name), o.Slow)
		}
		p.Counter("slo_breaches_total", uint64(breaches))
	}
	s.adm.WritePrometheus(&p)
	s.http.WritePrometheus(&p)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Once the header is out, a write error leaves the client a
	// truncated body; there is nothing else to report it to.
	_, _ = p.WriteTo(w)
}

// observeFrames writes the KPI samples' frame wall-clock and stage
// columns as the sim_dispatch_frame_seconds and
// dispatch_stage_seconds{stage} histograms. Like StageBreakdown, a
// frame counts toward a column only when its value is positive.
func observeFrames(p *obs.Writer, samples []tseries.Sample) {
	frame := obs.NewHistogram()
	var stages [prof.NumStages]*obs.Histogram
	for i := range stages {
		stages[i] = obs.NewHistogram()
	}
	for _, smp := range samples {
		if smp.FrameNs > 0 {
			frame.Observe(float64(smp.FrameNs) / 1e9)
		}
		for i, ns := range smp.StageNs {
			if ns > 0 {
				stages[i].Observe(float64(ns) / 1e9)
			}
		}
	}
	p.Histogram("sim_dispatch_frame_seconds", frame)
	for i, name := range prof.StageNames {
		p.Histogram(`dispatch_stage_seconds{stage="`+name+`"}`, stages[i])
	}
}

type requestStatusOut struct {
	ID           int    `json:"id"`
	Status       string `json:"status"`
	TaxiID       int    `json:"taxiId"`
	ArrivalFrame int    `json:"arrivalFrame"`
	AssignFrame  int    `json:"assignFrame"`
	PickupFrame  int    `json:"pickupFrame"`
	DropoffFrame int    `json:"dropoffFrame"`
	Rescued      bool   `json:"rescued,omitempty"`
	Requeues     int    `json:"requeues,omitempty"`
}

// requestStatus collapses a lifecycle record into one API status word.
func requestStatus(o sim.RequestOutcome) string {
	switch {
	case o.Cancelled:
		return "cancelled"
	case o.Abandoned:
		return "abandoned"
	case o.DropoffFrame >= 0:
		return "completed"
	case o.PickupFrame >= 0:
		return "riding"
	case o.Served:
		return "assigned"
	default:
		return "pending"
	}
}

// pathID parses the {id} path segment strictly: fmt.Sscanf("%d") would
// accept trailing junk ("/v1/requests/12abc" → 12), strconv.Atoi does
// not.
func pathID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("bad request id %q", r.PathValue("id"))
	}
	return id, nil
}

func (s *server) getRequest(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var o sim.RequestOutcome
	var ok bool
	s.locked(func() {
		o, ok = s.sim.RequestOutcome(id)
		if !ok && s.adm.Queued(id) {
			// Admitted, waiting for its frame boundary: pending,
			// joining the current frame.
			o, ok = sim.RequestOutcome{ID: id, ArrivalFrame: s.sim.Frame(),
				AssignFrame: -1, PickupFrame: -1, DropoffFrame: -1, TaxiID: -1}, true
		}
	})
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("request %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, requestStatusOut{
		ID:           o.ID,
		Status:       requestStatus(o),
		TaxiID:       o.TaxiID,
		ArrivalFrame: o.ArrivalFrame,
		AssignFrame:  o.AssignFrame,
		PickupFrame:  o.PickupFrame,
		DropoffFrame: o.DropoffFrame,
		Rescued:      o.Rescued,
		Requeues:     o.Requeues,
	})
}

// deleteRequest is the passenger-cancellation endpoint: it withdraws a
// queued, pending or assigned request, unwinding the assignment if one
// exists.
func (s *server) deleteRequest(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.locked(func() {
		if queued, ok := s.adm.Withdraw(id); ok {
			// Not yet injected: hand it to the simulator now and
			// cancel it before its release, so it never reaches a
			// dispatch frame.
			s.injectLocked(queued)
		}
		err = s.sim.CancelRequest(id)
		s.settleLocked()
	})
	switch {
	case errors.Is(err, sim.ErrUnknownRequest):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, sim.ErrNotCancellable):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "cancelled"})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status line is already out; an encode error has nowhere to go.
	_ = json.NewEncoder(w).Encode(v)
}

func nanToZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
