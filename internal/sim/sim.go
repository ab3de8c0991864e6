// Package sim is the discrete-time fleet simulator the paper's
// evaluation runs on: time is cut into one-minute frames, idle taxis are
// dispatched to the pending passenger requests of the current frame by a
// pluggable Dispatcher, and taxis drive their routes at a fixed speed
// (20 km/h in the paper, following [24]).
//
// The engine records the paper's three evaluation metrics as it runs:
// dispatch delay (frames from request arrival to assignment), passenger
// dissatisfaction, and taxi dissatisfaction, using the §IV-A/§V-A
// formulas uniformly for every dispatcher.
package sim

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/tseries"
)

// Dispatcher produces assignments for one frame. Implementations live in
// internal/dispatch (the paper's algorithms and non-sharing baselines)
// and internal/carpool (sharing baselines).
type Dispatcher interface {
	// Name identifies the algorithm in reports ("NSTD-P", "Greedy", …).
	Name() string
	// Dispatch inspects the frame and returns the assignments to apply.
	// Returning a request or taxi not present in the frame is an error.
	Dispatch(f *Frame) ([]fleet.Assignment, error)
}

// Frame is the dispatcher's read-only view of one time step.
type Frame struct {
	// Number is the current frame index (minutes since simulation
	// start).
	Number int
	// Requests are the pending, unassigned requests in arrival order.
	Requests []fleet.Request
	// Taxis holds the runtime state of every taxi in the fleet.
	Taxis []TaxiView
	// Metric measures travel distances.
	Metric geo.Metric
	// Params are the interest-model coefficients in force.
	Params pref.Params
	// Workers bounds the cost-plane construction pool; ≤ 0 means
	// runtime.GOMAXPROCS(0). Assignments are bit-identical for every
	// value.
	Workers int
	// Ledger is the frame-budget ledger of the simulator that built the
	// frame; dispatchers time their stages with Ledger.Begin. Nil (no
	// profiling) yields spans that end for free.
	Ledger *prof.Ledger

	// planes memoises cost planes by content key, so a frame visited by
	// several consumers (a resilient primary and its fallback, or the
	// preference build and a baseline's cost matrix) computes each
	// distance at most once. A frame sees at most a couple of distinct
	// configurations, so a tiny linear list beats a map here. Guarded by
	// planeMu: dispatch.Resilient may run its fallback while a timed-out
	// primary still holds the frame.
	planeMu sync.Mutex
	planes  []framePlane

	// sim is the simulator that built the frame (nil for a frame built
	// by hand); NoteDegraded reports to it.
	sim *Simulator
}

// NoteDegraded reports that the frame was handed to a fallback
// dispatcher. The simulator counts it in the degraded_frames KPI, fires
// its flight recorder, and publishes a degrade notice on its hub. A
// frame built by hand ignores the note.
func (f *Frame) NoteDegraded(detail string) {
	s := f.sim
	if s == nil {
		return
	}
	s.degraded.Add(1)
	frame := int64(f.Number)
	if r := s.cfg.Recorder; r != nil {
		r.Trigger(frame, flightrec.ReasonDegraded, detail, false) //nolint:errcheck // counted by the recorder
	}
	if s.cfg.Hub.Wants(stream.TopicNotices) {
		s.cfg.Hub.Publish(stream.TopicNotices, frame, stream.Notice{Kind: "degrade", Frame: frame, Detail: detail})
	}
}

// framePlane is one memoised (configuration, plane) pair of a frame.
type framePlane struct {
	key costplane.Key
	pl  *costplane.Plane
}

// CostPlane returns the frame's distance plane for the given
// configuration, building it on first use and memoising it by
// cfg.Key(). taxis must be the frame's idle fleet (every dispatcher
// derives the same slice from the frame, so concurrent callers agree).
// A memoised hit counts the plane's cells as reused.
func (f *Frame) CostPlane(taxis []fleet.Taxi, cfg costplane.Config) *costplane.Plane {
	if cfg.Workers == 0 {
		cfg.Workers = f.Workers
	}
	key := cfg.Key()
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	for _, e := range f.planes {
		if e.key == key {
			e.pl.MarkReuse()
			return e.pl
		}
	}
	pl := costplane.Build(f.Requests, taxis, f.Metric, cfg)
	f.planes = append(f.planes, framePlane{key: key, pl: pl})
	return pl
}

// IdleTaxis returns the idle subset of the fleet, preserving order.
func (f *Frame) IdleTaxis() []TaxiView {
	var idle []TaxiView
	for _, t := range f.Taxis {
		if t.Idle {
			idle = append(idle, t)
		}
	}
	return idle
}

// TaxiView is the dispatcher-visible state of one taxi.
type TaxiView struct {
	ID    int
	Pos   geo.Point
	Seats int
	Idle  bool
	// Load is the number of seats currently occupied.
	Load int
	// Offline reports an injected outage: the taxi accepts no new
	// assignments this frame. Offline taxis are never Idle.
	Offline bool
	// Route is a copy of the taxi's remaining stop sequence.
	Route []fleet.Stop
	// Onboard lists request IDs currently riding.
	Onboard []int
	// Assigned lists request IDs assigned but not yet picked up.
	Assigned []int
	// SeatsByRequest maps every request on the route (onboard or
	// assigned) to its seat count, so dispatchers can compute load
	// profiles for insertions.
	SeatsByRequest map[int]int
}

// Capacity returns the taxi's seat capacity (default 4).
func (v TaxiView) Capacity() int {
	if v.Seats < 1 {
		return 4
	}
	return v.Seats
}

// Config parameterises a simulation run.
type Config struct {
	// Metric measures all distances. Defaults to geo.EuclidMetric.
	Metric geo.Metric
	// SpeedKmH is the taxi cruising speed; the paper uses 20 km/h.
	SpeedKmH float64
	// FrameMinutes is the batching interval; the paper uses 1 minute.
	FrameMinutes float64
	// Params are the interest-model coefficients used for metric
	// reporting (and by dispatchers that read them off the frame).
	Params pref.Params
	// Dispatcher decides the assignments.
	Dispatcher Dispatcher
	// DrainFrames bounds how long the engine keeps running after the
	// last request arrives, waiting for pending requests and routes to
	// finish. Defaults to 240 frames.
	DrainFrames int
	// PatienceFrames, when positive, is how long a passenger waits for
	// a dispatch before abandoning the request. Zero means passengers
	// wait forever (the paper's setting); the experiment harness uses a
	// finite patience both as a realistic churn model and to bound the
	// pending queue when stable dispatchers refuse unservable requests.
	PatienceFrames int
	// Outages injects taxi failures: during an outage window the taxi
	// accepts no new work (a busy taxi still finishes its current
	// route — the driver completes the fare, then goes dark).
	Outages []Outage
	// Events, when non-nil, receives every lifecycle event (request,
	// assign, pickup, dropoff, abandon, cancel, breakdown, requeue,
	// rescue) as it happens.
	Events EventSink
	// Faults, when non-nil, injects unscheduled churn — passenger
	// cancellations, driver cancellations, mid-route breakdowns — into
	// the run. internal/fault provides a seeded deterministic
	// implementation.
	Faults FaultInjector
	// KPI, when non-nil, receives one fixed-width sample per frame with
	// the paper's §VI quantities and the frame's runtime cost; see
	// internal/tseries. Nil disables per-frame recording entirely (the
	// frame loop then pays nothing for it).
	KPI *tseries.Recorder
	// SLO, when non-nil, evaluates each frame's KPI sample against the
	// engine's objectives (breach transitions fire the flight
	// recorder). Requires KPI: without a recorder there is no sample to
	// evaluate, so a nil KPI leaves the engine untouched.
	SLO *slo.Engine
	// Workers bounds the per-frame cost-plane worker pool; ≤ 0 means
	// runtime.GOMAXPROCS(0). Purely a throughput knob: simulation
	// output is bit-identical for every value.
	Workers int

	// The observability handles below belong to this simulator alone;
	// nil means off and costs one pointer check per site. The simulator
	// is the one place that forwards output into them.

	// Ledger, when non-nil, is the frame-budget profiler: every Step is
	// bracketed as one ledger frame, dispatchers open stage spans
	// through Frame.Ledger, and each sealed frame is published on the
	// Hub's prof topic. Overrun captures are bundled into Recorder.
	Ledger *prof.Ledger
	// Recorder, when non-nil, is the flight recorder: it receives every
	// lifecycle event and, with KPI, every frame's context, and the
	// simulator triggers it on SLO breaches, degraded frames, stability
	// violations, and overrun captures.
	Recorder *flightrec.Recorder
	// Hub, when non-nil, receives the live telemetry: KPI samples, SLO
	// transitions, lifecycle events, notices, and ledger frames.
	Hub *stream.Hub
	// Admission, when non-nil, is the front door feeding this simulator;
	// its counts fill the KPI samples' accepted, shed and
	// admission_queue columns (zero otherwise).
	Admission AdmissionSource
}

// AdmissionSource is the front-door view the KPI sample reads:
// internal/admission's Controller implements it.
type AdmissionSource interface {
	// Accepted counts requests admitted so far.
	Accepted() int
	// Shed counts requests refused so far.
	Shed() int
	// QueueDepth counts admitted requests awaiting injection.
	QueueDepth() int
}

// Outage takes one taxi out of service for the frame interval
// [From, To).
type Outage struct {
	TaxiID int
	From   int
	To     int
}

func (c *Config) applyDefaults() {
	if c.Metric == nil {
		c.Metric = geo.EuclidMetric
	}
	if c.SpeedKmH <= 0 {
		c.SpeedKmH = 20
	}
	if c.FrameMinutes <= 0 {
		c.FrameMinutes = 1
	}
	if c.DrainFrames <= 0 {
		c.DrainFrames = 240
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Dispatcher == nil {
		return fmt.Errorf("sim: config requires a dispatcher")
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, o := range c.Outages {
		if o.From >= o.To {
			return fmt.Errorf("sim: outage for taxi %d has empty window [%d,%d)", o.TaxiID, o.From, o.To)
		}
	}
	return nil
}

// taxiState is the engine-internal mutable state of one taxi.
type taxiState struct {
	taxi    fleet.Taxi
	pos     geo.Point
	route   []fleet.Stop
	onboard map[int]bool
	pending map[int]bool // assigned, not yet picked up

	// Episode bookkeeping: an episode spans idle→busy→idle and carries
	// the taxi-dissatisfaction metric.
	episodeActive  bool
	episodeStart   int
	episodeDriven  float64 // distance driven since the episode began
	episodeTripSum float64 // Σ solo trip distances of episode requests
	episodeReqs    []int
}

func (t *taxiState) idle() bool { return len(t.route) == 0 }

func (t *taxiState) load(reqs map[int]*requestState) int {
	load := 0
	for id := range t.onboard {
		load += reqs[id].req.SeatCount()
	}
	return load
}

// requestState tracks one request through its lifecycle.
type requestState struct {
	req           fleet.Request
	assignFrame   int
	pickupFrame   int
	dropoffFrame  int
	taxiID        int
	passengerDiss float64
	assigned      bool
	pickedUp      bool
	done          bool
	abandoned     bool
	released      bool // entered the pending queue
	cancelled     bool // withdrawn by passenger or failed terminally
	rescued       bool // orphaned by a breakdown and re-injected
	requeues      int  // times the request re-entered the queue
	// waitSince is the frame the patience clock last (re)started:
	// arrival, or the latest requeue/rescue.
	waitSince int
}

func newRequestState(r fleet.Request) *requestState {
	return &requestState{
		req:          r,
		assignFrame:  -1,
		pickupFrame:  -1,
		dropoffFrame: -1,
		taxiID:       -1,
		waitSince:    r.Frame,
	}
}

// Simulator runs a trace of requests against a fleet.
type Simulator struct {
	cfg     Config
	frame   int
	arrival []fleet.Request // all requests sorted by arrival frame
	nextArr int             // index of the next unreleased arrival
	pending []int           // request IDs awaiting assignment
	reqs    map[int]*requestState
	taxis   []*taxiState
	byID    map[int]*taxiState

	assignments []AssignmentOutcome
	episodes    []EpisodeOutcome

	// kpi holds the running per-frame KPI aggregates; only updated when
	// cfg.KPI is configured.
	kpi kpiState
	// degraded counts frames a dispatcher reported through
	// Frame.NoteDegraded. Atomic: a nested Resilient may note from its
	// primary's goroutine.
	degraded atomic.Int64

	// Fault machinery: scheduled cancellations keyed by due frame, and
	// the outage book (configured + dynamically injected) maintained as
	// an O(1) active set per frame.
	cancelDue    map[int][]int             // frame → passenger cancels due
	driverDue    map[int][]driverCancelDue // frame → driver cancels due
	outageStart  map[int][]Outage          // frame → outages opening then
	activeOutage map[int]int               // taxiID → outage end (exclusive)
}

// New builds a simulator over the given fleet and request trace. Request
// IDs must be unique; taxi IDs must be unique.
func New(cfg Config, taxis []fleet.Taxi, requests []fleet.Request) (*Simulator, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:          cfg,
		reqs:         make(map[int]*requestState, len(requests)),
		byID:         make(map[int]*taxiState, len(taxis)),
		cancelDue:    make(map[int][]int),
		driverDue:    make(map[int][]driverCancelDue),
		outageStart:  make(map[int][]Outage),
		activeOutage: make(map[int]int),
	}
	s.arrival = append(s.arrival, requests...)
	sort.SliceStable(s.arrival, func(a, b int) bool {
		return s.arrival[a].Frame < s.arrival[b].Frame
	})
	for _, r := range s.arrival {
		if _, dup := s.reqs[r.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate request ID %d", r.ID)
		}
		s.reqs[r.ID] = newRequestState(r)
	}
	for _, t := range taxis {
		if _, dup := s.byID[t.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate taxi ID %d", t.ID)
		}
		st := &taxiState{
			taxi:    t,
			pos:     t.Pos,
			onboard: make(map[int]bool),
			pending: make(map[int]bool),
		}
		s.taxis = append(s.taxis, st)
		s.byID[t.ID] = st
	}
	for _, o := range cfg.Outages {
		if _, ok := s.byID[o.TaxiID]; !ok {
			return nil, fmt.Errorf("sim: outage names unknown taxi %d", o.TaxiID)
		}
		start := max(o.From, 0)
		if o.To <= start {
			continue
		}
		s.outageStart[start] = append(s.outageStart[start], o)
	}
	s.refreshOutages()
	if r := cfg.Recorder; r != nil {
		if cfg.SLO != nil {
			r.AddManifestSection("slo", func() any { return cfg.SLO.Status() })
		}
		if ld := cfg.Ledger; ld != nil {
			r.AddManifestSection("stages", func() any {
				_, stages := ld.StageBreakdown()
				return stages
			})
		}
	}
	return s, nil
}

// Frame returns the current frame number.
func (s *Simulator) Frame() int { return s.frame }

// Inject adds a request to a running simulation; the dispatch daemon
// uses this to feed live requests in. Requests dated before the current
// frame are released immediately. The ID must be new.
func (s *Simulator) Inject(r fleet.Request) error {
	if _, dup := s.reqs[r.ID]; dup {
		return fmt.Errorf("sim: duplicate request ID %d", r.ID)
	}
	if r.Frame < s.frame {
		r.Frame = s.frame
	}
	s.reqs[r.ID] = newRequestState(r)
	// Keep the unreleased tail of the arrival stream sorted.
	pos := s.nextArr
	for pos < len(s.arrival) && s.arrival[pos].Frame <= r.Frame {
		pos++
	}
	s.arrival = append(s.arrival, fleet.Request{})
	copy(s.arrival[pos+1:], s.arrival[pos:])
	s.arrival[pos] = r
	return nil
}

// Snapshot builds a report of everything observed so far without ending
// the run. Episodes still in progress are not included.
func (s *Simulator) Snapshot() *Report { return s.buildReport() }

// TaxiViews returns the current dispatcher-visible state of the fleet.
func (s *Simulator) TaxiViews() []TaxiView { return s.view().Taxis }

// Done reports whether the simulation has nothing left to do: all
// arrivals released, no pending requests, and all taxis idle.
func (s *Simulator) Done() bool {
	if s.nextArr < len(s.arrival) || len(s.pending) > 0 {
		return false
	}
	for _, t := range s.taxis {
		if !t.idle() {
			return false
		}
	}
	return true
}

// Step advances the simulation one frame: refresh the outage set,
// release arrivals, apply injected faults, expire impatient requests,
// dispatch, then move taxis. Faults run before dispatch so the
// dispatcher always sees the post-fault world and never assigns a
// just-broken taxi. With a KPI recorder configured, the frame's
// wall-clock cost and allocation count bracket the whole step and the
// finished frame is appended to the ring.
func (s *Simulator) Step() error {
	rec, ld := s.cfg.KPI, s.cfg.Ledger
	if rec == nil && ld == nil {
		return s.step()
	}
	frame := s.frame
	allocs0 := s.kpi.readAllocs()
	if ld != nil {
		ld.BeginFrame(int64(frame))
	}
	start := time.Now()
	if err := s.step(); err != nil {
		return err
	}
	wall := time.Since(start)
	allocs := s.kpi.readAllocs() - allocs0
	if rec != nil {
		sample := s.recordKPI(rec, frame, wall, allocs)
		s.watchFrame(sample)
	}
	if ld != nil {
		// Sealed after the KPI sample is recorded and watched, so an
		// overrun capture's flight-recorder bundle already holds the
		// overrun frame itself. The wall/allocs handed to the ledger are
		// the exact values recorded as the sample's FrameNs/Allocs.
		p, capture := ld.EndFrame(int64(frame), wall.Nanoseconds(), int64(allocs))
		if s.cfg.Hub.Wants(stream.TopicProf) {
			s.cfg.Hub.Publish(stream.TopicProf, p.Frame, p.Report())
		}
		if capture != nil && s.cfg.Recorder != nil {
			s.cfg.Recorder.TriggerOverrun(*capture) //nolint:errcheck // counted by the recorder
		}
	}
	return nil
}

// step is the uninstrumented frame advance.
func (s *Simulator) step() error {
	if rec := dtrace.Active(); rec != nil {
		rec.SetFrame(s.frame)
	}
	s.refreshOutages()
	s.releaseArrivals()
	s.applyFaults()
	s.expireImpatient()
	if err := s.dispatch(); err != nil {
		return err
	}
	obsPendingDepth.Set(float64(len(s.pending)))
	s.moveTaxis()
	s.frame++
	obsFrames.Inc()
	return nil
}

// offline reports whether the taxi has an active injected outage (from
// the configuration, a chaos injection, or a breakdown repair window).
func (s *Simulator) offline(taxiID int) bool {
	to, ok := s.activeOutage[taxiID]
	return ok && s.frame < to
}

// expireImpatient drops pending requests older than the patience bound.
func (s *Simulator) expireImpatient() {
	if s.cfg.PatienceFrames <= 0 {
		return
	}
	kept := s.pending[:0]
	for _, id := range s.pending {
		rs := s.reqs[id]
		if s.frame-rs.waitSince >= s.cfg.PatienceFrames {
			rs.abandoned = true
			obsExpired.Inc()
			if s.cfg.KPI != nil {
				s.kpi.expired++
			}
			s.emit(Event{Frame: s.frame, Kind: EventAbandon, RequestID: id, TaxiID: -1, Pos: rs.req.Pickup})
			continue
		}
		kept = append(kept, id)
	}
	s.pending = kept
	obsPendingDepth.Set(float64(len(s.pending)))
}

// Run steps the simulation until done (plus the drain bound) and returns
// the report. Requests still pending when the drain budget runs out are
// reported as unserved.
func (s *Simulator) Run() (*Report, error) {
	lastArrival := 0
	if n := len(s.arrival); n > 0 {
		lastArrival = s.arrival[n-1].Frame
	}
	deadline := lastArrival + s.cfg.DrainFrames
	for !s.Done() && s.frame <= deadline {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	for _, id := range s.pending {
		s.reqs[id].abandoned = true
	}
	// Close any still-open episodes at the deadline.
	for _, t := range s.taxis {
		if t.episodeActive {
			s.closeEpisode(t)
		}
	}
	rep := s.buildReport()
	// A sticky event-sink failure must not pass silently: the replay
	// stream is incomplete even though the run itself succeeded.
	if rep.EventSinkErr != nil {
		slog.Warn("sim: event sink failed, replay stream incomplete",
			"dispatcher", s.cfg.Dispatcher.Name(), "err", rep.EventSinkErr)
	}
	return rep, nil
}

func (s *Simulator) releaseArrivals() {
	for s.nextArr < len(s.arrival) && s.arrival[s.nextArr].Frame <= s.frame {
		r := s.arrival[s.nextArr]
		s.nextArr++
		rs := s.reqs[r.ID]
		rs.released = true
		// A request cancelled before release (CancelRequest on a
		// future-dated injection) never enters the queue.
		if rs.cancelled {
			continue
		}
		s.pending = append(s.pending, r.ID)
		s.emit(Event{Frame: s.frame, Kind: EventRequest, RequestID: r.ID, TaxiID: -1, Pos: r.Pickup})
		s.scheduleFaultsOnArrival(r.ID)
	}
}

func (s *Simulator) view() *Frame {
	f := &Frame{
		Number:  s.frame,
		Metric:  s.cfg.Metric,
		Params:  s.cfg.Params,
		Workers: s.cfg.Workers,
		Ledger:  s.cfg.Ledger,
		sim:     s,
	}
	for _, id := range s.pending {
		f.Requests = append(f.Requests, s.reqs[id].req)
	}
	for _, t := range s.taxis {
		offline := s.offline(t.taxi.ID)
		v := TaxiView{
			ID:      t.taxi.ID,
			Pos:     t.pos,
			Seats:   t.taxi.Seats,
			Idle:    t.idle() && !offline,
			Offline: offline,
			Load:    t.load(s.reqs),
			Route:   append([]fleet.Stop(nil), t.route...),
		}
		v.SeatsByRequest = make(map[int]int, len(t.onboard)+len(t.pending))
		for id := range t.onboard {
			v.Onboard = append(v.Onboard, id)
			v.SeatsByRequest[id] = s.reqs[id].req.SeatCount()
		}
		for id := range t.pending {
			v.Assigned = append(v.Assigned, id)
			v.SeatsByRequest[id] = s.reqs[id].req.SeatCount()
		}
		sort.Ints(v.Onboard)
		sort.Ints(v.Assigned)
		f.Taxis = append(f.Taxis, v)
	}
	return f
}

func (s *Simulator) dispatch() error {
	if len(s.pending) == 0 {
		if rec := dtrace.Active(); rec != nil {
			rec.PutCertificate(dtrace.Trivial(s.frame, 0, len(s.taxis), "no pending requests: nothing to match, vacuously stable"))
		}
		return nil
	}
	frame := s.view()
	assignments, err := s.cfg.Dispatcher.Dispatch(frame)
	if err != nil {
		return fmt.Errorf("sim: dispatcher %s frame %d: %w", s.cfg.Dispatcher.Name(), s.frame, err)
	}
	// Frame commit: install the assignments, then audit the realized
	// matching for stability while the pre-dispatch view is still in
	// hand. The commit stage closes the pipeline in the stage ledger.
	sp := s.cfg.Ledger.Begin(prof.StageCommit)
	defer sp.End()
	seenTaxi := make(map[int]bool, len(assignments))
	for _, a := range assignments {
		if err := s.apply(a, seenTaxi); err != nil {
			return fmt.Errorf("sim: dispatcher %s frame %d: %w", s.cfg.Dispatcher.Name(), s.frame, err)
		}
	}
	if rec := dtrace.Active(); rec != nil {
		s.certifyFrame(rec, frame, assignments)
	}
	return nil
}

// apply validates and installs one assignment.
func (s *Simulator) apply(a fleet.Assignment, seenTaxi map[int]bool) error {
	t, ok := s.byID[a.TaxiID]
	if !ok {
		return fmt.Errorf("assignment names unknown taxi %d", a.TaxiID)
	}
	if s.offline(a.TaxiID) {
		return fmt.Errorf("taxi %d is offline (injected outage)", a.TaxiID)
	}
	if seenTaxi[a.TaxiID] {
		return fmt.Errorf("taxi %d assigned twice in one frame", a.TaxiID)
	}
	seenTaxi[a.TaxiID] = true
	if len(a.Requests) == 0 {
		return fmt.Errorf("taxi %d assignment has no requests", a.TaxiID)
	}

	// Every named request must be pending.
	newReqs := make([]*requestState, 0, len(a.Requests))
	for _, id := range a.Requests {
		rs, ok := s.reqs[id]
		if !ok {
			return fmt.Errorf("assignment names unknown request %d", id)
		}
		if rs.assigned || rs.done || rs.abandoned || rs.cancelled {
			return fmt.Errorf("request %d is not pending", id)
		}
		newReqs = append(newReqs, rs)
	}
	if err := s.checkRoute(t, a); err != nil {
		return err
	}

	// Taxi dissatisfaction, recorded per dispatch decision: the added
	// driving minus (α+1) times the added paid trips. For a dispatch
	// from idle this is exactly the paper's formulas — D(t, r^s) −
	// α·D(r^s, r^d) for a solo ride, D_ck(t) − (α+1)·Σ D(r^s, r^d) for
	// a shared group; for an insertion into a busy taxi it is the
	// marginal equivalent.
	oldLen := fleet.RouteLength(t.pos, t.route, s.cfg.Metric)
	newLen := fleet.RouteLength(t.pos, a.Route, s.cfg.Metric)
	newTrips := 0.0
	for _, rs := range newReqs {
		newTrips += rs.req.TripDistance(s.cfg.Metric)
	}
	outcome := AssignmentOutcome{
		TaxiID:          a.TaxiID,
		Frame:           s.frame,
		Requests:        len(newReqs),
		Shared:          len(newReqs) > 1 || len(t.onboard)+len(t.pending) > 0,
		Dissatisfaction: newLen - oldLen - (s.cfg.Params.Alpha+1)*newTrips,
	}
	s.assignments = append(s.assignments, outcome)
	if s.cfg.KPI != nil {
		s.kpi.assignDecision(outcome)
	}

	// Install the new route.
	wasIdle := t.idle()
	t.route = append([]fleet.Stop(nil), a.Route...)
	for _, rs := range newReqs {
		rs.assigned = true
		rs.assignFrame = s.frame
		rs.taxiID = a.TaxiID
		rs.passengerDiss = s.passengerDiss(t, a, rs)
		if s.cfg.KPI != nil {
			s.kpi.assignRequest(s.frame-rs.req.Frame, rs.passengerDiss)
		}
		t.pending[rs.req.ID] = true
		s.removePending(rs.req.ID)
		s.emit(Event{Frame: s.frame, Kind: EventAssign, RequestID: rs.req.ID, TaxiID: a.TaxiID, Pos: rs.req.Pickup})
		s.scheduleFaultsOnAssign(a.TaxiID, rs.req.ID)
	}

	// Episode bookkeeping.
	if wasIdle {
		t.episodeActive = true
		t.episodeStart = s.frame
		t.episodeDriven = 0
		t.episodeTripSum = 0
		t.episodeReqs = nil
	}
	for _, rs := range newReqs {
		t.episodeTripSum += rs.req.TripDistance(s.cfg.Metric)
		t.episodeReqs = append(t.episodeReqs, rs.req.ID)
	}
	return nil
}

// checkRoute verifies the proposed route serves exactly the taxi's
// onboard requests (drop-offs only), its already-assigned pickups, and
// the newly assigned requests, with pickups preceding drop-offs and the
// load never exceeding capacity.
func (s *Simulator) checkRoute(t *taxiState, a fleet.Assignment) error {
	expectPickup := make(map[int]bool)
	expectDrop := make(map[int]bool)
	for id := range t.onboard {
		expectDrop[id] = true
	}
	for id := range t.pending {
		expectPickup[id] = true
		expectDrop[id] = true
	}
	for _, id := range a.Requests {
		expectPickup[id] = true
		expectDrop[id] = true
	}

	load := t.load(s.reqs)
	maxLoad := load
	seenPickup := make(map[int]bool)
	seenDrop := make(map[int]bool)
	for _, stop := range a.Route {
		rs, ok := s.reqs[stop.RequestID]
		if !ok {
			return fmt.Errorf("route visits unknown request %d", stop.RequestID)
		}
		switch stop.Kind {
		case fleet.StopPickup:
			if !expectPickup[stop.RequestID] || seenPickup[stop.RequestID] {
				return fmt.Errorf("route has unexpected pickup for request %d", stop.RequestID)
			}
			seenPickup[stop.RequestID] = true
			load += rs.req.SeatCount()
			if load > maxLoad {
				maxLoad = load
			}
		case fleet.StopDropoff:
			if !expectDrop[stop.RequestID] || seenDrop[stop.RequestID] {
				return fmt.Errorf("route has unexpected drop-off for request %d", stop.RequestID)
			}
			if expectPickup[stop.RequestID] && !seenPickup[stop.RequestID] {
				return fmt.Errorf("route drops request %d before pickup", stop.RequestID)
			}
			seenDrop[stop.RequestID] = true
			load -= rs.req.SeatCount()
		default:
			return fmt.Errorf("route stop has invalid kind %v", stop.Kind)
		}
	}
	for id := range expectPickup {
		if !seenPickup[id] {
			return fmt.Errorf("route misses pickup of request %d", id)
		}
	}
	for id := range expectDrop {
		if !seenDrop[id] {
			return fmt.Errorf("route misses drop-off of request %d", id)
		}
	}
	if maxLoad > t.taxi.Capacity() {
		return fmt.Errorf("route load %d exceeds taxi %d capacity %d", maxLoad, t.taxi.ID, t.taxi.Capacity())
	}
	return nil
}

// passengerDiss computes the paper's passenger-dissatisfaction metric for
// a newly assigned request from the taxi's current position along the new
// route: D_ck(t, r^s) + β·[D_ck(r^s, r^d) − D(r^s, r^d)]. For a solo ride
// this is exactly D(t, r^s).
func (s *Simulator) passengerDiss(t *taxiState, a fleet.Assignment, rs *requestState) float64 {
	dist := 0.0
	cur := t.pos
	var toPickup, onBoard float64
	picked := false
	for _, stop := range a.Route {
		dist += s.cfg.Metric.Distance(cur, stop.Pos)
		cur = stop.Pos
		if stop.RequestID != rs.req.ID {
			continue
		}
		if stop.Kind == fleet.StopPickup {
			toPickup = dist
			picked = true
		} else if picked {
			onBoard = dist - toPickup
		}
	}
	solo := rs.req.TripDistance(s.cfg.Metric)
	return toPickup + s.cfg.Params.Beta*(onBoard-solo)
}

func (s *Simulator) removePending(id int) {
	for i, p := range s.pending {
		if p == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// moveTaxis advances every busy taxi along its route by one frame's
// driving budget, executing pickups and drop-offs it reaches.
func (s *Simulator) moveTaxis() {
	budget := s.cfg.SpeedKmH * s.cfg.FrameMinutes / 60
	for _, t := range s.taxis {
		if t.idle() {
			continue
		}
		remaining := budget
		for remaining > 0 && len(t.route) > 0 {
			target := t.route[0]
			before := t.pos
			next, leftover := geo.Toward(t.pos, target.Pos, remaining)
			t.pos = next
			t.episodeDriven += geo.Euclid(before, next)
			remaining = leftover
			if next != target.Pos {
				break
			}
			// Arrived at the stop.
			t.route = t.route[1:]
			rs := s.reqs[target.RequestID]
			if target.Kind == fleet.StopPickup {
				delete(t.pending, target.RequestID)
				t.onboard[target.RequestID] = true
				rs.pickedUp = true
				rs.pickupFrame = s.frame
				s.emit(Event{Frame: s.frame, Kind: EventPickup, RequestID: target.RequestID, TaxiID: t.taxi.ID, Pos: target.Pos})
			} else {
				delete(t.onboard, target.RequestID)
				rs.done = true
				rs.dropoffFrame = s.frame
				s.emit(Event{Frame: s.frame, Kind: EventDropoff, RequestID: target.RequestID, TaxiID: t.taxi.ID, Pos: target.Pos})
			}
		}
		if t.idle() && t.episodeActive {
			s.closeEpisode(t)
		}
	}
}

// closeEpisode finalises the taxi-dissatisfaction metric for a completed
// busy period: D_ck(t) − (α+1)·Σ D(r^s, r^d) in the sharing model, which
// reduces to D(t, r^s) − α·D(r^s, r^d) for a solo ride.
func (s *Simulator) closeEpisode(t *taxiState) {
	driven := t.episodeDriven
	// Distance still to drive if the episode was cut off by the drain
	// deadline.
	driven += fleet.RouteLength(t.pos, t.route, s.cfg.Metric)
	s.episodes = append(s.episodes, EpisodeOutcome{
		TaxiID:          t.taxi.ID,
		StartFrame:      t.episodeStart,
		EndFrame:        s.frame,
		Requests:        len(t.episodeReqs),
		Dissatisfaction: driven - (s.cfg.Params.Alpha+1)*t.episodeTripSum,
	})
	t.episodeActive = false
}

func (s *Simulator) buildReport() *Report {
	rep := &Report{
		Algorithm:   s.cfg.Dispatcher.Name(),
		Frames:      s.frame,
		Episodes:    s.episodes,
		Assignments: s.assignments,
	}
	// Surface a sticky sink failure (JSONLSink and friends) so broken
	// event streams are visible instead of silently truncated.
	if es, ok := s.cfg.Events.(interface{ Err() error }); ok {
		rep.EventSinkErr = es.Err()
	}
	for _, r := range s.arrival {
		rep.Requests = append(rep.Requests, s.outcome(s.reqs[r.ID]))
	}
	return rep
}

// outcome snapshots one request's lifecycle record.
func (s *Simulator) outcome(rs *requestState) RequestOutcome {
	return RequestOutcome{
		ID:            rs.req.ID,
		ArrivalFrame:  rs.req.Frame,
		AssignFrame:   rs.assignFrame,
		PickupFrame:   rs.pickupFrame,
		DropoffFrame:  rs.dropoffFrame,
		TaxiID:        rs.taxiID,
		PassengerDiss: rs.passengerDiss,
		Served:        rs.assigned,
		Abandoned:     rs.abandoned,
		Cancelled:     rs.cancelled,
		Rescued:       rs.rescued,
		Requeues:      rs.requeues,
	}
}

// RequestOutcome returns the current lifecycle record of one request
// without building a full report, or false if the ID is unknown. The
// dispatch daemon's per-request status endpoint uses this.
func (s *Simulator) RequestOutcome(id int) (RequestOutcome, bool) {
	rs, ok := s.reqs[id]
	if !ok {
		return RequestOutcome{}, false
	}
	return s.outcome(rs), true
}
