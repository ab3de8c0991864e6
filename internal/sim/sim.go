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
	"slices"
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

// Frame is the dispatcher's read-only view of one time step. A frame
// the simulator built is valid until the simulator builds the next one,
// in the next Step that dispatches: that frame is built into this one's
// storage (its Requests, Taxis, idle fleet, §IV-A plane and market), so
// nothing read from a frame may be kept past the next Step, except the
// taxis' Routes and whatever the reader copied. A frame whose
// dispatcher was abandoned on its deadline (NoteDegraded "deadline") is
// never reused: a straggler still running it reads storage nothing else
// writes.
type Frame struct {
	// Number is the current frame index (minutes since simulation
	// start).
	Number int
	// Requests are the pending, unassigned requests in arrival order.
	Requests []fleet.Request
	// Taxis holds the runtime state of every taxi in the fleet. Each
	// view's Route is shared with the simulator and read-only; unlike
	// the frame, it stays valid after later Steps.
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
	// Tracer is the decision-trace recorder of the simulator that built
	// the frame; dispatchers record their decisions into it. Nil means
	// tracing is off.
	Tracer *dtrace.Recorder

	// The values more than one consumer reads, memoised so each is
	// computed once per frame: the idle fleet (every dispatcher and the
	// stability certificate), the §IV-A plane and the market on it (NSTD
	// and the certificate) and the baselines' unpruned plane (a
	// resilient primary and its Greedy fallback). planeMu guards them:
	// dispatch.Resilient may run its fallback while a timed-out primary
	// still holds the frame.
	planeMu   sync.Mutex
	idle      []fleet.Taxi
	prefPlane *costplane.Plane
	inst      *pref.Instance
	fullPlane *costplane.Plane

	// spent is the storage of the frame this one reuses; the idle
	// fleet, the §IV-A plane and its instance build into it.
	spent frameStorage
	// abandoned marks a frame whose dispatcher was abandoned on its
	// deadline, which the simulator never reuses.
	abandoned atomic.Bool

	// sim is the simulator that built the frame (nil for a frame built
	// by hand); NoteDegraded reports to it.
	sim *Simulator
}

// frameStorage is the memory a frame is built in, which each frame
// hands to the next (Simulator.view).
type frameStorage struct {
	requests []fleet.Request
	taxis    []TaxiView
	idle     []fleet.Taxi
	plane    *costplane.Plane
	inst     *pref.Instance
}

// storage returns f's memory for the next frame: its slices and each
// memoised value, or, for one f never built, the storage it had for it.
func (f *Frame) storage() frameStorage {
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	st := f.spent
	st.requests, st.taxis = f.Requests, f.Taxis
	if f.idle != nil {
		st.idle = f.idle
	}
	if f.prefPlane != nil {
		st.plane = f.prefPlane
	}
	if f.inst != nil {
		st.inst = f.inst
	}
	return st
}

// NoteDegraded reports that the frame was handed to a fallback
// dispatcher for reason ("deadline", "panic", "error"). A traced frame
// notes "degraded dispatch: "+detail on its certificate. The simulator
// counts it by reason (Stats.Degraded) and in the degraded_frames KPI,
// queues a flight-recorder trigger for the end of the frame, and
// publishes a degrade notice on its hub. A frame built by hand ignores
// the rest. On "deadline" the abandoned dispatcher may still be reading
// the frame, so the simulator never builds another frame into it.
func (f *Frame) NoteDegraded(reason, detail string) {
	if reason == "deadline" {
		f.abandoned.Store(true)
	}
	if f.Tracer != nil {
		f.Tracer.AddFrameNote(f.Number, "degraded dispatch: "+detail)
	}
	s := f.sim
	if s == nil {
		return
	}
	s.degradedMu.Lock()
	s.degraded[reason]++
	s.degradedMu.Unlock()
	frame := int64(f.Number)
	s.queueTrigger(frame, flightrec.ReasonDegraded, detail)
	if s.cfg.Hub.Wants(stream.TopicNotices) {
		s.cfg.Hub.Publish(stream.TopicNotices, frame, stream.Notice{Kind: "degrade", Frame: frame, Detail: detail})
	}
}

// PrefPlane returns the frame's §IV-A plane, pref.Plane under
// f.Params, building it on first use. taxis must be the frame's idle
// fleet, IdleFleet.
func (f *Frame) PrefPlane(taxis []fleet.Taxi) *costplane.Plane {
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	if f.prefPlane == nil {
		f.prefPlane = pref.Plane(f.spent.plane, f.Requests, taxis, f.Metric, f.Params, f.Workers)
	}
	return f.prefPlane
}

// Instance returns the frame's non-sharing §IV-A instance, pref.FromPlane
// over PrefPlane, built on first use, so Algorithm 1 and the stability
// certificate build and sort its market once per frame. taxis must be
// the frame's idle fleet, as for PrefPlane.
func (f *Frame) Instance(taxis []fleet.Taxi) (*pref.Instance, error) {
	pl := f.PrefPlane(taxis)
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	if f.inst == nil {
		inst, err := pref.Refill(f.spent.inst, pl, f.Params)
		if err != nil {
			return nil, err
		}
		f.inst = inst
	}
	return f.inst, nil
}

// FullPlane returns the frame's unpruned plane, building it on first
// use: the baselines have no acceptability thresholds. taxis must be
// the frame's idle fleet, as for PrefPlane.
func (f *Frame) FullPlane(taxis []fleet.Taxi) *costplane.Plane {
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	if f.fullPlane == nil {
		f.fullPlane = costplane.Build(f.Requests, taxis, f.Metric, costplane.Config{Workers: f.Workers})
	}
	return f.fullPlane
}

// IdleTaxis returns the idle subset of the fleet, preserving order.
func (f *Frame) IdleTaxis() []TaxiView {
	idle := make([]TaxiView, 0, f.idleCount())
	for _, t := range f.Taxis {
		if t.Idle {
			idle = append(idle, t)
		}
	}
	return idle
}

// IdleFleet returns the idle taxis as fleet values, in fleet order: the
// taxi set every dispatcher's cost plane and the stability certificate
// are built over. It is built once per frame and shared by every
// caller, who must not modify it; like the frame, it is valid until the
// simulator builds the next frame.
func (f *Frame) IdleFleet() []fleet.Taxi {
	f.planeMu.Lock()
	defer f.planeMu.Unlock()
	if f.idle == nil {
		taxis := slices.Grow(f.spent.idle[:0], f.idleCount())
		for i := range f.Taxis {
			if v := &f.Taxis[i]; v.Idle {
				taxis = append(taxis, fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle})
			}
		}
		f.idle = taxis
	}
	return f.idle
}

func (f *Frame) idleCount() int {
	n := 0
	for i := range f.Taxis {
		if f.Taxis[i].Idle {
			n++
		}
	}
	return n
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
	// Route is the taxi's remaining stop sequence. It is the simulator's
	// own slice, shared and read-only: the simulator never writes into
	// it, so the route stays valid after later Steps even though the
	// frame holding the view does not. A drop-off without
	// its pickup on the route is a rider on board (see riders), and the
	// stops' Seats give the load profile.
	Route []fleet.Stop
}

// riders splits a route's requests into those on board (a drop-off
// without a pickup ahead of it) and those awaiting pickup, each in
// ascending ID order.
func riders(route []fleet.Stop) (onboard, assigned []int) {
	for _, stop := range route {
		if stop.Kind == fleet.StopPickup {
			assigned = append(assigned, stop.RequestID)
		} else if !slices.Contains(assigned, stop.RequestID) {
			onboard = append(onboard, stop.RequestID)
		}
	}
	slices.Sort(onboard)
	slices.Sort(assigned)
	return onboard, assigned
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
	// bracketed as one ledger frame, the simulator's phases and the
	// dispatchers (through Frame.Ledger) open stage spans, each sealed
	// frame's stage times fill its KPI sample's StageNs (published on
	// the Hub's kpi topic), and each sealed frame goes to Recorder.
	Ledger *prof.Ledger
	// Recorder, when non-nil, is the flight recorder. Its bundles freeze
	// this simulator's own stores (the KPI ring, the event tail, the
	// Tracer, the SLO status and the fault state), and the simulator
	// triggers it at the end of Step on SLO breaches, degraded frames
	// and stability violations, then hands it the Ledger's sealed
	// frame (Observe), where a frame-budget overrun starts a capture.
	// The owner calls Recorder.Close when the run ends.
	Recorder *flightrec.Recorder
	// Tracer, when non-nil, is the decision-trace recorder: it receives
	// every lifecycle event, every dispatch decision (through
	// Frame.Tracer), and a stability certificate per frame.
	Tracer *dtrace.Recorder
	// Hub, when non-nil, receives the live telemetry: KPI samples (with
	// their stage times), SLO transitions, lifecycle events, and notices.
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
	taxi fleet.Taxi
	pos  geo.Point
	// route is the one record of what the taxi carries: a drop-off
	// without its pickup is a rider on board, a pickup a rider awaiting
	// pickup. Frame views share this slice, so the simulator never
	// writes into it: it only installs a fresh slice or reslices.
	route []fleet.Stop
	// load is the seats occupied now: the riders on board.
	load int

	// Episode bookkeeping: an episode spans idle→busy→idle and carries
	// the taxi-dissatisfaction metric.
	episodeActive  bool
	episodeStart   int
	episodeDriven  float64 // distance driven since the episode began
	episodeTripSum float64 // Σ solo trip distances of episode requests
	episodeReqs    int     // requests the episode serves
}

func (t *taxiState) idle() bool { return len(t.route) == 0 }

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
	pending []*requestState // requests awaiting assignment, in arrival order
	reqs    map[int]*requestState
	taxis   []*taxiState
	byID    map[int]*taxiState

	assignments []AssignmentOutcome
	episodes    []EpisodeOutcome

	// last is the latest frame view builds, whose storage the next
	// frame reuses.
	last *Frame

	// kpi holds the running per-frame KPI aggregates; only updated when
	// cfg.KPI is configured.
	kpi kpiState
	// events counts emitted lifecycle events by kind, and driverCancels
	// the driver cancellations among the cancel events; Stats derives
	// every sim_* count from them.
	events        map[EventKind]int
	driverCancels int
	// tail retains the most recent lifecycle events.
	tail eventTail
	// degraded counts frames a dispatcher reported through
	// Frame.NoteDegraded, by reason, and triggers queues the flight-
	// recorder triggers raised during the frame. Locked: a nested
	// Resilient may note from its primary's goroutine.
	degradedMu sync.Mutex
	degraded   map[string]int
	triggers   []trigger
	// outagesNow is the active-outage count at the last frame boundary,
	// published for bundles triggered off the frame loop.
	outagesNow atomic.Int64

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
		events:       make(map[EventKind]int, len(eventKinds)),
		degraded:     make(map[string]int),
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
		st := &taxiState{taxi: t, pos: t.Pos}
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
		r.SetContents(s.bundleContents)
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
func (s *Simulator) TaxiViews() []TaxiView {
	return s.fillViews(make([]TaxiView, len(s.taxis)))
}

// fillViews writes the fleet's views into views, one per taxi.
func (s *Simulator) fillViews(views []TaxiView) []TaxiView {
	for i, t := range s.taxis {
		offline := s.offline(t.taxi.ID)
		views[i] = TaxiView{
			ID:      t.taxi.ID,
			Pos:     t.pos,
			Seats:   t.taxi.Seats,
			Idle:    t.idle() && !offline,
			Offline: offline,
			Load:    t.load,
			Route:   t.route,
		}
	}
	return views
}

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
// just-broken taxi. With a KPI recorder or a ledger configured, the
// frame's wall-clock cost and allocation count bracket the whole step;
// the ledger seals the frame's stage times and the finished frame,
// stage columns included, is appended to the ring. Flight-recorder
// triggers raised during the frame fire last.
func (s *Simulator) Step() error {
	rec, ld := s.cfg.KPI, s.cfg.Ledger
	if rec == nil && ld == nil {
		if err := s.step(); err != nil {
			return err
		}
		s.fireTriggers()
		return nil
	}
	frame := s.frame
	allocs0 := s.kpi.readAllocs()
	if ld != nil {
		ld.BeginFrame(int64(frame), s.cfg.Metric)
	}
	start := time.Now()
	if err := s.step(); err != nil {
		return err
	}
	wall := time.Since(start)
	allocs := s.kpi.readAllocs() - allocs0
	// The ledger frame and the KPI sample share one bracket: the sealed
	// frame's wall/allocs are the sample's FrameNs/Allocs, and its stage
	// times become the sample's StageNs.
	var p prof.FrameProfile
	if ld != nil {
		p = ld.EndFrame(int64(frame), wall.Nanoseconds(), int64(allocs))
	}
	if rec != nil {
		sample := s.recordKPI(rec, frame, wall, allocs, p.StageNs)
		s.watchFrame(sample)
	}
	// Every trigger fires after the KPI sample is recorded, so each
	// bundle already holds the frame that tripped it; the sealed frame
	// goes to the recorder last, where an overrun is one more trigger.
	s.fireTriggers()
	if r := s.cfg.Recorder; r != nil && ld != nil {
		r.Observe(p, ld.BudgetNs()) //nolint:errcheck // counted by the recorder
	}
	return nil
}

// step is the frame advance, each phase a ledger stage.
func (s *Simulator) step() error {
	if rec := s.cfg.Tracer; rec != nil {
		rec.SetFrame(s.frame)
	}
	ld := s.cfg.Ledger
	sp := ld.Begin(prof.StageArrivals)
	s.refreshOutages()
	s.releaseArrivals()
	sp.End()
	sp = ld.Begin(prof.StageFaults)
	s.applyFaults()
	sp.End()
	sp = ld.Begin(prof.StageExpiry)
	s.expireImpatient()
	sp.End()
	if err := s.dispatch(); err != nil {
		return err
	}
	sp = ld.Begin(prof.StageMovement)
	s.moveTaxis()
	sp.End()
	s.frame++
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
	for _, rs := range s.pending {
		if s.frame-rs.waitSince >= s.cfg.PatienceFrames {
			rs.abandoned = true
			s.emit(Event{Frame: s.frame, Kind: EventAbandon, RequestID: rs.req.ID, TaxiID: -1, Pos: rs.req.Pickup})
			continue
		}
		kept = append(kept, rs)
	}
	s.pending = kept
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
	for _, rs := range s.pending {
		rs.abandoned = true
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
		s.pending = append(s.pending, rs)
		s.emit(Event{Frame: s.frame, Kind: EventRequest, RequestID: r.ID, TaxiID: -1, Pos: r.Pickup})
		s.scheduleFaultsOnArrival(r.ID)
	}
}

// view builds the dispatcher's frame into the storage of the last frame
// it built, unless that frame's dispatcher was abandoned on its
// deadline: a fixed number of allocations whatever the fleet size, since
// taxi views share the installed routes, and none once the storage has
// grown to the day's largest frame.
func (s *Simulator) view() *Frame {
	f := &Frame{
		Number:  s.frame,
		Metric:  s.cfg.Metric,
		Params:  s.cfg.Params,
		Workers: s.cfg.Workers,
		Ledger:  s.cfg.Ledger,
		Tracer:  s.cfg.Tracer,
		sim:     s,
	}
	if last := s.last; last != nil && !last.abandoned.Load() {
		f.spent = last.storage()
	}
	f.Requests = slices.Grow(f.spent.requests[:0], len(s.pending))
	for _, rs := range s.pending {
		f.Requests = append(f.Requests, rs.req)
	}
	f.Taxis = s.fillViews(slices.Grow(f.spent.taxis[:0], len(s.taxis))[:len(s.taxis)])
	s.last = f
	return f
}

func (s *Simulator) dispatch() error {
	if len(s.pending) == 0 {
		if rec := s.cfg.Tracer; rec != nil {
			rec.PutCertificate(dtrace.Trivial(s.frame, 0, len(s.taxis), "no pending requests: nothing to match, vacuously stable"))
		}
		return nil
	}
	sp := s.cfg.Ledger.Begin(prof.StageView)
	frame := s.view()
	sp.End()
	assignments, err := s.cfg.Dispatcher.Dispatch(frame)
	if err != nil {
		return fmt.Errorf("sim: dispatcher %s frame %d: %w", s.cfg.Dispatcher.Name(), s.frame, err)
	}
	// Frame commit: install the assignments, then audit the realized
	// matching for stability while the pre-dispatch view is still in
	// hand. The commit stage closes the pipeline in the stage ledger.
	sp = s.cfg.Ledger.Begin(prof.StageCommit)
	defer sp.End()
	seenTaxi := make(map[int]bool, len(assignments))
	for _, a := range assignments {
		if err = s.apply(a, seenTaxi); err != nil {
			break
		}
	}
	s.dropAssigned()
	if err != nil {
		return fmt.Errorf("sim: dispatcher %s frame %d: %w", s.cfg.Dispatcher.Name(), s.frame, err)
	}
	if rec := s.cfg.Tracer; rec != nil {
		s.certifyFrame(rec, frame, assignments)
	}
	return nil
}

// apply validates and installs one assignment. The requests it assigns
// stay in the queue until the frame's commit ends (dropAssigned).
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

	// Every named request must be pending, and named once.
	newReqs := make([]*requestState, 0, len(a.Requests))
	for i, id := range a.Requests {
		rs, ok := s.reqs[id]
		if !ok {
			return fmt.Errorf("assignment names unknown request %d", id)
		}
		if rs.assigned || rs.done || rs.abandoned || rs.cancelled {
			return fmt.Errorf("request %d is not pending", id)
		}
		if slices.Contains(a.Requests[:i], id) {
			return fmt.Errorf("assignment names request %d twice", id)
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
		Shared:          len(newReqs) > 1 || !t.idle(),
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
		s.emit(Event{Frame: s.frame, Kind: EventAssign, RequestID: rs.req.ID, TaxiID: a.TaxiID, Pos: rs.req.Pickup})
		s.scheduleFaultsOnAssign(a.TaxiID, rs.req.ID)
	}

	// Episode bookkeeping.
	if wasIdle {
		t.episodeActive = true
		t.episodeStart = s.frame
		t.episodeDriven = 0
		t.episodeTripSum = 0
		t.episodeReqs = 0
	}
	for _, rs := range newReqs {
		t.episodeTripSum += rs.req.TripDistance(s.cfg.Metric)
		t.episodeReqs++
	}
	return nil
}

// checkRoute verifies the proposed route serves exactly the stops of the
// taxi's current route (onboard riders' drop-offs, assigned riders'
// pickups and drop-offs) and the newly assigned requests, with pickups
// preceding drop-offs, every stop carrying its request's seat count, and
// the load never exceeding capacity.
func (s *Simulator) checkRoute(t *taxiState, a fleet.Assignment) error {
	expectPickup := make(map[int]bool)
	expectDrop := make(map[int]bool)
	for _, stop := range t.route {
		if stop.Kind == fleet.StopPickup {
			expectPickup[stop.RequestID] = true
		}
		expectDrop[stop.RequestID] = true
	}
	for _, id := range a.Requests {
		expectPickup[id] = true
		expectDrop[id] = true
	}

	load := t.load
	maxLoad := load
	seenPickup := make(map[int]bool)
	seenDrop := make(map[int]bool)
	for _, stop := range a.Route {
		rs, ok := s.reqs[stop.RequestID]
		if !ok {
			return fmt.Errorf("route visits unknown request %d", stop.RequestID)
		}
		if stop.Seats != rs.req.SeatCount() {
			return fmt.Errorf("route stop for request %d carries %d seats, want %d", stop.RequestID, stop.Seats, rs.req.SeatCount())
		}
		switch stop.Kind {
		case fleet.StopPickup:
			if !expectPickup[stop.RequestID] || seenPickup[stop.RequestID] {
				return fmt.Errorf("route has unexpected pickup for request %d", stop.RequestID)
			}
			seenPickup[stop.RequestID] = true
			load += stop.Seats
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
			load -= stop.Seats
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

// dropAssigned removes the requests this frame's commit assigned from
// the queue in one pass, keeping arrival order.
func (s *Simulator) dropAssigned() {
	kept := s.pending[:0]
	for _, rs := range s.pending {
		if !rs.assigned {
			kept = append(kept, rs)
		}
	}
	s.pending = kept
}

func (s *Simulator) removePending(rs *requestState) {
	for i, p := range s.pending {
		if p == rs {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// moveTaxis advances every busy taxi along its route by one frame's
// driving budget, executing pickups and drop-offs it reaches.
func (s *Simulator) moveTaxis() {
	budget := s.cfg.SpeedKmH / 60 // one frame is one minute
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
				t.load += target.Seats
				rs.pickedUp = true
				rs.pickupFrame = s.frame
				s.emit(Event{Frame: s.frame, Kind: EventPickup, RequestID: target.RequestID, TaxiID: t.taxi.ID, Pos: target.Pos})
			} else {
				t.load -= target.Seats
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
		Requests:        t.episodeReqs,
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
