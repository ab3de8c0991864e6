package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabledispatch/internal/admission"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/obs"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stats"
	"stabledispatch/internal/stream"
)

// server wraps a live simulator behind a JSON HTTP API: the O2O platform
// view of the dispatcher. Passengers POST requests, an operator (or a
// timer) POSTs ticks to advance dispatch frames, and anyone can read the
// fleet and the running metrics.
//
// Ingestion is decoupled from the frame loop: POST /v1/requests runs
// admission control and enqueues under the controller's own mutex, never
// touching s.mu, so accepting a ride stays fast while a paper-scale
// frame is solving. Admitted requests are batch-injected at the next
// frame boundary (stepLocked), in admission order.
type server struct {
	mu     sync.Mutex
	sim    *sim.Simulator
	events *eventBuffer
	slo    *slo.Engine
	adm    *admission.Controller
	// hub is the live-telemetry broadcast hub behind GET /v1/stream
	// (nil = streaming disabled); streamRing and streamHeartbeat are the
	// per-connection ring capacity and keepalive interval.
	hub             *stream.Hub
	streamRing      int
	streamHeartbeat time.Duration
	// frameNow mirrors the simulator's frame counter so handlers that
	// only need an advisory frame number (the 201 response, healthz's
	// draining view) can read it without s.mu.
	frameNow atomic.Int64
	start    time.Time
}

func newServer(s *sim.Simulator) *server {
	return &server{sim: s, adm: admission.New(admission.Config{}), start: time.Now()}
}

// withEvents attaches the event buffer served at /v1/events.
func (s *server) withEvents(b *eventBuffer) *server {
	s.events = b
	return s
}

// withAdmission replaces the default admission controller. The caller
// is responsible for wiring admissionSink into the simulator's event
// stream so the in-flight ledger settles.
func (s *server) withAdmission(c *admission.Controller) *server {
	s.adm = c
	return s
}

// admissionSink forwards lifecycle transitions into the admission
// controller's in-flight ledger and enqueue→assignment histogram.
// Breakdown events carry RequestID -1 and fall through untouched.
func admissionSink(c *admission.Controller) sim.EventSink {
	return sim.EventSinkFunc(func(e sim.Event) {
		switch e.Kind {
		case sim.EventAssign:
			c.NoteAssigned(e.RequestID)
		case sim.EventDropoff, sim.EventAbandon, sim.EventCancel:
			c.NoteTerminal(e.RequestID)
		case sim.EventRequeue, sim.EventRescue:
			c.NoteRequeued(e.RequestID)
		}
	})
}

// step advances one frame under the server lock; the auto-ticker uses it.
func (s *server) step() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked()
}

// stepLocked injects every request admitted since the last boundary —
// in admission order, stamped with the current frame — then advances
// one frame. Callers hold s.mu. Injecting the whole batch before Step
// makes the batch indistinguishable from synchronous injection: the
// requests join this frame's pending queue in exactly the order they
// were admitted, so dispatch output per frame is unchanged.
func (s *server) stepLocked() error {
	for _, r := range s.adm.TakeBatch() {
		r.Frame = s.sim.Frame()
		if err := s.sim.Inject(r); err != nil {
			// Unreachable while the controller is the sole ID source;
			// release the slot so a bug cannot leak in-flight capacity.
			s.adm.NoteInjectFailure(r.ID)
		}
	}
	if err := s.sim.Step(); err != nil {
		return err
	}
	s.frameNow.Store(int64(s.sim.Frame()))
	return nil
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

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", s.postRequest)
	mux.HandleFunc("POST /v1/tick", s.postTick)
	mux.HandleFunc("GET /v1/taxis", s.getTaxis)
	mux.HandleFunc("GET /v1/report", s.getReport)
	mux.HandleFunc("GET /v1/requests/{id}", s.getRequest)
	mux.HandleFunc("DELETE /v1/requests/{id}", s.deleteRequest)
	mux.HandleFunc("POST /v1/chaos", s.postChaos)
	mux.HandleFunc("GET /v1/events", s.getEvents)
	mux.HandleFunc("GET /v1/stream", s.getStream)
	mux.HandleFunc("GET /v1/metrics", s.getMetrics)
	mux.HandleFunc("GET /v1/timeseries", s.getTimeseries)
	mux.HandleFunc("GET /v1/traces/{id}", s.getTrace)
	mux.HandleFunc("GET /v1/explain/{id}", s.getExplain)
	mux.HandleFunc("GET /v1/frames/{n}/stability", s.getStability)
	mux.HandleFunc("GET /v1/slo", s.getSLO)
	mux.HandleFunc("GET /v1/profile", s.getProfile)
	mux.HandleFunc("POST /v1/debug/bundle", s.postBundle)
	mux.HandleFunc("GET /healthz", s.getHealth)
	return mux
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
	// Inflight counts admitted requests that have not reached a
	// terminal lifecycle state (queued + pending + assigned + riding).
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
	s.mu.Lock()
	c := s.sim.Counts()
	s.mu.Unlock()
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
	// Hand-rolled encoder: this is the hot ingest path (see encode.go).
	writeCreatedRequest(w, id, int(s.frameNow.Load()))
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
		chunk := n
		if chunk > tickChunkFrames {
			chunk = tickChunkFrames
		}
		n -= chunk
		s.mu.Lock()
		for i := 0; i < chunk; i++ {
			if err := s.stepLocked(); err != nil {
				s.mu.Unlock()
				return 0, err
			}
		}
		frame = s.sim.Frame()
		s.mu.Unlock()
	}
	return frame, nil
}

type taxiOut struct {
	ID       int       `json:"id"`
	Pos      pointJSON `json:"pos"`
	Idle     bool      `json:"idle"`
	Load     int       `json:"load"`
	Onboard  []int     `json:"onboard,omitempty"`
	Assigned []int     `json:"assigned,omitempty"`
}

func (s *server) getTaxis(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := s.sim.TaxiViews()
	s.mu.Unlock()
	out := make([]taxiOut, len(views))
	for i, v := range views {
		out[i] = taxiOut{
			ID:       v.ID,
			Pos:      pointJSON{X: v.Pos.X, Y: v.Pos.Y},
			Idle:     v.Idle,
			Load:     v.Load,
			Onboard:  v.Onboard,
			Assigned: v.Assigned,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

type reportOut struct {
	Algorithm         string              `json:"algorithm"`
	Frame             int                 `json:"frame"`
	Requests          int                 `json:"requests"`
	Served            int                 `json:"served"`
	Episodes          int                 `json:"episodes"`
	SharedRides       int                 `json:"sharedRides"`
	MeanDelayMinutes  float64             `json:"meanDelayMinutes"`
	MeanPassengerDiss float64             `json:"meanPassengerDissKm"`
	MeanTaxiDiss      float64             `json:"meanTaxiDissKm"`
	FrameLatency      *prof.StageSummary  `json:"frameLatency,omitempty"`
	Stages            []prof.StageSummary `json:"stages,omitempty"`
}

func (s *server) getReport(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rep := s.sim.Snapshot()
	frame := s.sim.Frame()
	s.mu.Unlock()
	// One read path for stage aggregation across the whole stack: the
	// ledger's StageBreakdown also feeds /v1/profile and taxisim's
	// summary.
	var frameLatency *prof.StageSummary
	var stages []prof.StageSummary
	if ld := s.sim.Ledger(); ld != nil {
		frameLatency, stages = ld.StageBreakdown()
	}
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
		FrameLatency:      frameLatency,
		Stages:            stages,
	})
}

// getMetrics exposes the process-wide obs registry and the simulator
// ledger's stage histograms in the Prometheus text format.
func (s *server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w); err != nil {
		// The header is already out; the client sees a truncated body.
		return
	}
	if ld := s.sim.Ledger(); ld != nil {
		ld.WritePrometheus(w) //nolint:errcheck // same truncation as above
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
	s.mu.Lock()
	o, ok := s.sim.RequestOutcome(id)
	s.mu.Unlock()
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
// pending or assigned request, unwinding the assignment if one exists.
func (s *server) deleteRequest(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	err = s.sim.CancelRequest(id)
	s.mu.Unlock()
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

type chaosIn struct {
	// Kind is "outage" (taxi refuses new work for a window, finishing
	// its current fare) or "breakdown" (taxi dies on the spot: route
	// unwound, riders rescued).
	Kind   string `json:"kind"`
	TaxiID int    `json:"taxiId"`
	// From is the outage start frame (outages only; defaults to the
	// current frame).
	From int `json:"from"`
	// Frames is the fault duration (defaults to 30).
	Frames int `json:"frames"`
}

// postChaos injects an outage or breakdown into the live simulation, so
// operators can rehearse fleet failures against the running dispatcher.
func (s *server) postChaos(w http.ResponseWriter, r *http.Request) {
	var in chaosIn
	if code, err := decodeBody(r, &in); code != 0 {
		writeError(w, code, fmt.Errorf("decode chaos: %w", err))
		return
	}
	if in.Frames <= 0 {
		in.Frames = sim.DefaultRepairFrames
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	frame := s.sim.Frame()
	switch in.Kind {
	case "outage":
		from := in.From
		if from < frame {
			from = frame
		}
		if err := s.sim.InjectOutage(in.TaxiID, from, from+in.Frames); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"kind": "outage", "taxiId": in.TaxiID, "from": from, "to": from + in.Frames,
		})
	case "breakdown":
		if err := s.sim.InjectBreakdown(in.TaxiID, in.Frames); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"kind": "breakdown", "taxiId": in.TaxiID, "from": frame, "to": frame + in.Frames,
		})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown chaos kind %q (want outage or breakdown)", in.Kind))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already out; nothing more to do.
		return
	}
}

func nanToZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// eventBuffer retains the most recent simulator events for the
// /v1/events endpoint.
type eventBuffer struct {
	mu     sync.Mutex
	events []sim.Event
	max    int
}

var _ sim.EventSink = (*eventBuffer)(nil)

func newEventBuffer(max int) *eventBuffer {
	if max <= 0 {
		max = 10000
	}
	return &eventBuffer{max: max}
}

// Record implements sim.EventSink.
func (b *eventBuffer) Record(e sim.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
	if len(b.events) > b.max {
		b.events = b.events[len(b.events)-b.max:]
	}
}

// Since returns retained events at or after the given frame.
func (b *eventBuffer) Since(frame int) []sim.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []sim.Event
	for _, e := range b.events {
		if e.Frame >= frame {
			out = append(out, e)
		}
	}
	return out
}

func (s *server) getEvents(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		writeJSON(w, http.StatusOK, []sim.Event{})
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", q))
			return
		}
		since = n
	}
	limit := -1
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	out := s.events.Since(since)
	if limit >= 0 && len(out) > limit {
		// Keep the newest events: a poller asking for a bounded page
		// wants the tail of the stream.
		out = out[len(out)-limit:]
	}
	if out == nil {
		out = []sim.Event{}
	}
	writeJSON(w, http.StatusOK, out)
}
