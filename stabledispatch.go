// Package stabledispatch is an O2O (online-to-offline) taxi dispatching
// library built around passenger-driver matching stability, reproducing
// Zheng & Wu, "Online to Offline Business: Urban Taxi Dispatching with
// Passenger-Driver Matching Stability" (ICDCS 2017).
//
// In the O2O taxi business (Uber-style platforms) taxis are privately
// owned, so a dispatch schedule has to balance three parties: passengers
// want nearby taxis, drivers want profitable rides, and the platform
// wants as many stably matched rides as possible. This package exposes:
//
//   - The stable-matching core: Algorithm 1 (passenger-optimal deferred
//     acceptance with dummy partners), the taxi-optimal matching, and
//     Algorithm 2 (enumeration of all stable matchings).
//   - Sharing dispatch (Algorithm 3): shared-route planning, feasible
//     group packing via maximum set packing, and stable matching of
//     packed groups.
//   - Dispatchers for a discrete-time fleet simulator: NSTD-P, NSTD-T,
//     STD-P, STD-T, plus the literature baselines (greedy nearest,
//     minimum-cost matching, bottleneck matching, RAII, SARP, ILP).
//   - Calibrated synthetic New York and Boston workloads and the
//     experiment harness regenerating every figure of the paper.
//
// # Quick start
//
//	city := stabledispatch.Boston()
//	reqs, _ := stabledispatch.GenerateTrace(stabledispatch.BostonConfig(1440, 1))
//	taxis, _ := stabledispatch.GenerateTaxis(city, 200, 2)
//	sim, _ := stabledispatch.NewSimulator(stabledispatch.SimConfig{
//		Dispatcher: stabledispatch.NSTDP(),
//		Params:     stabledispatch.DefaultParams(),
//	}, taxis, reqs)
//	report, _ := sim.Run()
//	fmt.Println(report.ServedCount())
package stabledispatch

import (
	"time"

	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/slo"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

// Core geometry types.
type (
	// Point is a location on the city plane, in kilometres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle of the city plane.
	Rect = geo.Rect
	// Metric measures travel distance between two points.
	Metric = geo.Metric
)

// Euclidean and Manhattan plane metrics.
var (
	EuclidMetric    = geo.EuclidMetric
	ManhattanMetric = geo.ManhattanMetric
)

// Domain model types.
type (
	// Request is a passenger request with pickup and drop-off.
	Request = fleet.Request
	// Taxi is a privately owned vehicle.
	Taxi = fleet.Taxi
	// Stop is one waypoint of a taxi route.
	Stop = fleet.Stop
	// Assignment dispatches one taxi to one or more requests.
	Assignment = fleet.Assignment
)

// Matching-market types.
type (
	// Params holds the interest-model coefficients (α, β, dummy
	// thresholds).
	Params = pref.Params
	// Market is a two-sided matching instance between requests and
	// taxis.
	Market = pref.Market
	// Instance is a non-sharing market plus its raw distances.
	Instance = pref.Instance
	// Matching is a taxi dispatch schedule.
	Matching = stable.Matching
)

// Unmatched marks a request or taxi with a dummy partner (no dispatch).
const Unmatched = stable.Unmatched

// DefaultParams returns the paper's evaluation coefficients
// (α = β = 1, 10 km pickup threshold, 2 km taxi net-loss threshold).
func DefaultParams() Params { return pref.DefaultParams() }

// UnboundedParams disables both dummy thresholds, recovering classic
// stable marriage behaviour.
func UnboundedParams() Params { return pref.Unbounded() }

// NewInstance builds the non-sharing matching market for one batch of
// requests and idle taxis (§IV-A interest model).
func NewInstance(reqs []Request, taxis []Taxi, m Metric, p Params) (*Instance, error) {
	return pref.NewInstance(reqs, taxis, m, p)
}

// SplitOversized divides requests whose party exceeds maxSeats into
// multiple same-location requests (§IV-A); new parts take IDs from
// nextID upward.
func SplitOversized(reqs []Request, maxSeats, nextID int) []Request {
	return pref.SplitOversized(reqs, maxSeats, nextID)
}

// PassengerOptimal runs Algorithm 1 and returns the passenger-optimal
// stable matching.
func PassengerOptimal(m *Market) Matching { return stable.PassengerOptimal(m) }

// TaxiOptimal returns the taxi-optimal stable matching.
func TaxiOptimal(m *Market) Matching { return stable.TaxiOptimal(m) }

// AllStableMatchings runs Algorithm 2, enumerating every stable matching
// (the passenger-optimal one first). limit caps the result length; 0
// means unlimited.
func AllStableMatchings(m *Market, limit int) []Matching {
	return stable.AllStableMatchings(m, limit)
}

// IsStable verifies a matching against Definition 1, returning nil when
// stable.
func IsStable(m *Market, match Matching) error { return stable.IsStable(m, match) }

// MedianStable returns the median stable matching — halfway between the
// passenger-optimal and taxi-optimal extremes. limit caps the underlying
// enumeration (0 = unlimited).
func MedianStable(m *Market, limit int) Matching { return stable.MedianStable(m, limit) }

// Sharing types.
type (
	// PackConfig controls share-group generation (θ, group size).
	PackConfig = share.PackConfig
	// PackResult is the outcome of the packing stage.
	PackResult = share.PackResult
	// ShareGroup is a feasible subset of requests sharing one taxi.
	ShareGroup = share.Group
	// RoutePlan is an optimal shared route.
	RoutePlan = share.RoutePlan
)

// DefaultPackConfig returns the paper's sharing settings (θ = 5 km,
// groups of at most 3).
func DefaultPackConfig() PackConfig { return share.DefaultPackConfig() }

// PackRequests runs Algorithm 3's first stage: feasible-group generation
// plus maximum set packing.
func PackRequests(reqs []Request, m Metric, cfg PackConfig) (PackResult, error) {
	return share.Pack(reqs, m, cfg)
}

// BestSharedRoute exhaustively plans the optimal pickup-before-drop-off
// route for a group of at most three requests.
func BestSharedRoute(reqs []Request, m Metric) (RoutePlan, error) {
	return share.BestRoute(reqs, m)
}

// Simulator types.
type (
	// SimConfig parameterises a simulation run. Its Workers field sizes
	// the per-frame cost-plane worker pool (the shared distance oracle
	// every dispatcher reads); ≤ 0 means runtime.GOMAXPROCS(0), and
	// simulation output is bit-identical for every value.
	SimConfig = sim.Config
	// Simulator is the discrete-time fleet simulator.
	Simulator = sim.Simulator
	// Frame is the dispatcher's view of one time step.
	Frame = sim.Frame
	// TaxiView is the dispatcher-visible state of one taxi.
	TaxiView = sim.TaxiView
	// Dispatcher decides assignments each frame.
	Dispatcher = sim.Dispatcher
	// Report is the outcome of a simulation run.
	Report = sim.Report
	// RequestOutcome records one request's trip.
	RequestOutcome = sim.RequestOutcome
	// EpisodeOutcome records one taxi busy period.
	EpisodeOutcome = sim.EpisodeOutcome
	// AssignmentOutcome records one dispatch decision.
	AssignmentOutcome = sim.AssignmentOutcome
	// Outage injects a taxi failure window into a simulation.
	Outage = sim.Outage
	// Event is one lifecycle event of a simulated request.
	Event = sim.Event
	// EventSink receives simulator events as they happen.
	EventSink = sim.EventSink
	// EventSinkFunc adapts a function to the EventSink interface.
	EventSinkFunc = sim.EventSinkFunc
	// FaultInjector supplies cancellation and breakdown decisions to a
	// simulation (SimConfig.Faults).
	FaultInjector = sim.FaultInjector
	// FaultConfig parameterises a seeded fault schedule.
	FaultConfig = fault.Config
	// FaultSchedule is a deterministic, seed-derived FaultInjector.
	FaultSchedule = fault.Schedule
)

// NewFaultSchedule derives a reproducible fault-injection schedule
// (breakdowns, driver and passenger cancellations) from cfg.Seed.
func NewFaultSchedule(cfg FaultConfig) (*FaultSchedule, error) {
	return fault.New(cfg)
}

// ResilientDispatcher wraps primary with a per-frame compute deadline
// and panic recovery, degrading the frame to fallback (Greedy when nil)
// on overrun, panic, or error.
func ResilientDispatcher(primary, fallback Dispatcher, deadline time.Duration) Dispatcher {
	return dispatch.NewResilient(primary, fallback, deadline)
}

// NewSimulator builds a simulator over the given fleet and request
// trace.
func NewSimulator(cfg SimConfig, taxis []Taxi, reqs []Request) (*Simulator, error) {
	return sim.New(cfg, taxis, reqs)
}

// NSTDP returns the paper's passenger-optimal stable dispatcher
// (Algorithm 1).
func NSTDP() Dispatcher { return dispatch.NewNSTDP() }

// NSTDT returns the taxi-optimal stable dispatcher.
func NSTDT() Dispatcher { return dispatch.NewNSTDT() }

// NSTDC returns the company-optimal stable dispatcher: Algorithm 2 picks
// the stable matching minimising total idle pickup distance (§IV-D).
func NSTDC() Dispatcher { return dispatch.NewNSTDC() }

// NSTDM returns the median stable dispatcher: the fairness compromise
// between the passenger-optimal and taxi-optimal matchings.
func NSTDM() Dispatcher { return dispatch.NewNSTDM() }

// STDP returns the sharing passenger-optimal dispatcher (Algorithm 3).
func STDP(cfg PackConfig) Dispatcher { return dispatch.NewSTDP(cfg) }

// STDT returns the sharing taxi-optimal dispatcher.
func STDT(cfg PackConfig) Dispatcher { return dispatch.NewSTDT(cfg) }

// GreedyDispatcher returns the nearest-taxi baseline.
func GreedyDispatcher() Dispatcher { return dispatch.NewGreedy() }

// MinCostDispatcher returns the minimum-cost matching baseline.
func MinCostDispatcher() Dispatcher { return dispatch.NewMinCost() }

// BottleneckDispatcher returns the bottleneck matching baseline.
func BottleneckDispatcher() Dispatcher { return dispatch.NewBottleneck() }

// CarpoolConfig configures the sharing baselines RAII and SARP.
type CarpoolConfig = carpool.Config

// DefaultCarpoolConfig mirrors the paper's sharing evaluation settings.
func DefaultCarpoolConfig() CarpoolConfig { return carpool.DefaultConfig() }

// RAIIDispatcher returns the spatio-temporal-index sharing baseline.
func RAIIDispatcher(cfg CarpoolConfig) Dispatcher { return carpool.NewRAII(cfg) }

// SARPDispatcher returns the TSP-insertion sharing baseline.
func SARPDispatcher(cfg CarpoolConfig) Dispatcher { return carpool.NewSARP(cfg) }

// ILPDispatcher returns the integer-programming sharing baseline.
func ILPDispatcher(cfg PackConfig) Dispatcher { return carpool.NewILP(cfg) }

// Decision-provenance tracing types. The trace layer records why each
// dispatch decision was taken — Gale–Shapley proposals and refusals with
// both sides' preference ranks, share-group formation and rejection, and
// a per-frame stability certificate (a Definition 1 blocking-pair scan
// of the realized matching).
type (
	// TraceRecorder is a bounded ring of per-request decision traces.
	TraceRecorder = dtrace.Recorder
	// DecisionTrace is one request's causally ordered decision timeline.
	DecisionTrace = dtrace.Trace
	// TraceEvent is one recorded decision step.
	TraceEvent = dtrace.Event
	// StabilityCertificate is a frame-commit audit of the realized
	// matching against Definition 1.
	StabilityCertificate = dtrace.Certificate
	// BlockingPair is one stability violation: a passenger-taxi pair
	// that would rather elope than keep their partners.
	BlockingPair = dtrace.BlockingPair
)

// SetDecisionTracing toggles the process-wide decision-trace layer.
// Tracing is off by default; when off, instrumentation costs one atomic
// load per site.
func SetDecisionTracing(on bool) { dtrace.SetEnabled(on) }

// DecisionTracingEnabled reports whether the trace layer is recording.
func DecisionTracingEnabled() bool { return dtrace.Enabled() }

// DecisionTracer returns the process-wide trace recorder that the
// dispatchers and simulator record into while tracing is enabled.
func DecisionTracer() *TraceRecorder { return dtrace.Default() }

// CertifyStability audits a realized matching against Definition 1 under
// the market's interest model: reqPartner[j] is the taxi index matched
// to request j (−1 for unmatched), and reqIDs/taxiIDs translate market
// indices to fleet IDs for the evidence.
func CertifyStability(frame int, m *Market, reqPartner, reqIDs, taxiIDs []int) *StabilityCertificate {
	return dtrace.Certify(frame, m, reqPartner, reqIDs, taxiIDs)
}

// Per-frame KPI time-series types. A KPIRecorder attached to
// SimConfig.KPI receives one fixed-width sample per simulated frame —
// the paper's quality metrics (dispatch delay mean/p95, dissatisfaction
// means, served/queued/expired counts) alongside runtime cost (frame
// wall-clock, allocations, route-cache hit rate) — in a bounded ring.
type (
	// KPIRecorder is the bounded per-frame sample ring.
	KPIRecorder = tseries.Recorder
	// KPIRecorderConfig sizes the ring and selects its retention policy
	// (evict-oldest sliding window, or downsample to keep the whole-run
	// trajectory at halving resolution).
	KPIRecorderConfig = tseries.Config
	// KPISample is one frame's KPI observation.
	KPISample = tseries.Sample
)

// NewKPIRecorder returns a per-frame KPI ring; attach it via
// SimConfig.KPI and query it with Simulator.KPISeries / KPIWindow.
func NewKPIRecorder(cfg KPIRecorderConfig) *KPIRecorder { return tseries.New(cfg) }

// KPISeriesNames lists every queryable series name, in sample order.
func KPISeriesNames() []string { return append([]string(nil), tseries.SeriesNames...) }

// Trace and workload types.
type (
	// City describes a simulated city's demand geography.
	City = trace.City
	// TraceConfig parameterises synthetic trace generation.
	TraceConfig = trace.Config
)

// NewYork returns the synthetic stand-in for the paper's New York trace.
func NewYork() City { return trace.NewYork() }

// Boston returns the synthetic stand-in for the paper's Boston trace.
func Boston() City { return trace.Boston() }

// NewYorkConfig returns the calibrated New York generation config.
func NewYorkConfig(frames int, seed int64) TraceConfig { return trace.NewYorkConfig(frames, seed) }

// BostonConfig returns the calibrated Boston generation config.
func BostonConfig(frames int, seed int64) TraceConfig { return trace.BostonConfig(frames, seed) }

// GenerateTrace produces a deterministic synthetic request trace.
func GenerateTrace(cfg TraceConfig) ([]Request, error) { return trace.Generate(cfg) }

// GenerateTaxis seeds n taxis from the city's 2-D normal distribution.
func GenerateTaxis(city City, n int, seed int64) ([]Taxi, error) {
	return trace.Taxis(city, n, seed)
}

// Road-network substrate.
type (
	// RoadGraph is an undirected road network.
	RoadGraph = roadnet.Graph
	// RoadGridConfig describes a perturbed-grid city road network.
	RoadGridConfig = roadnet.GridConfig
	// RoadMetric adapts a road network to the Metric interface.
	RoadMetric = roadnet.Metric
)

// NewRoadGrid builds a perturbed-grid city road network.
func NewRoadGrid(cfg RoadGridConfig) (*RoadGraph, error) { return roadnet.NewGrid(cfg) }

// NewRoadMetric wraps a road network as a Metric with a shortest-path
// cache.
func NewRoadMetric(g *RoadGraph, cacheSources int) *RoadMetric {
	return roadnet.NewMetric(g, cacheSources)
}

// Experiment harness types.
type (
	// ExpOptions scales an experiment run.
	ExpOptions = exp.Options
	// ExpFigure is the reproduction of one paper figure.
	ExpFigure = exp.Figure
)

// DefaultExpOptions reproduces the paper's setting over one simulated
// day.
func DefaultExpOptions() ExpOptions { return exp.DefaultOptions() }

// QuickExpOptions is a shrunken configuration for fast runs.
func QuickExpOptions() ExpOptions { return exp.QuickOptions() }

// FigureIDs lists the reproducible paper figures in order.
func FigureIDs() []string { return exp.FigureIDs() }

// RunFigure regenerates one paper figure ("fig4" … "fig9").
func RunFigure(id string, o ExpOptions) (ExpFigure, error) {
	run, ok := exp.Figures()[id]
	if !ok {
		return ExpFigure{}, &UnknownFigureError{ID: id}
	}
	return run(o)
}

// UnknownFigureError reports a figure ID outside FigureIDs.
type UnknownFigureError struct {
	ID string
}

// Error implements the error interface.
func (e *UnknownFigureError) Error() string {
	return "stabledispatch: unknown figure " + e.ID
}

// SLO engine types. An SLOEngine attached to SimConfig.SLO evaluates
// declarative objectives ("max(delay_p95) < 3", "frac(expired, served)
// < 1%") against every recorded KPI sample with multi-window burn-rate
// alerting and a hysteresis state machine; breach transitions fire the
// flight recorder.
type (
	// SLODef is one declarative objective.
	SLODef = slo.Def
	// SLOEngine evaluates a set of objectives frame by frame.
	SLOEngine = slo.Engine
	// SLOStatus is one objective's externally visible alert state.
	SLOStatus = slo.Status
	// SLOState is an objective's hysteresis state (ok, warning, breach,
	// recovered).
	SLOState = slo.State
)

// NewSLOEngine validates defs and builds an engine.
func NewSLOEngine(defs []SLODef) (*SLOEngine, error) { return slo.New(defs) }

// ParseSLOFile loads objective definitions from an SLO file (one
// "name: agg(series) op threshold" line per objective).
func ParseSLOFile(path string) ([]SLODef, error) { return slo.ParseFile(path) }

// Flight-recorder types: a bounded black-box ring of per-frame context
// that freezes into a self-contained diagnostic bundle (manifest, KPI
// CSV, event/frame JSONL) on SLO breach, dispatch degrade, stability
// violation, panic, or manual trigger.
type (
	// FlightRecorder is the bounded black box.
	FlightRecorder = flightrec.Recorder
	// FlightRecorderConfig parameterises the ring, cooldown, and
	// retention bounds.
	FlightRecorderConfig = flightrec.Config
	// BundleManifest is the machine-readable index of one bundle.
	BundleManifest = flightrec.Manifest
)

// NewFlightRecorder builds a flight recorder. Attach it to one
// simulator through SimConfig.Recorder; the simulator triggers it on SLO
// breaches, degraded frames, and stability violations.
func NewFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	return flightrec.New(cfg)
}

// ReadBundleManifest loads and schema-checks one bundle's manifest.
func ReadBundleManifest(bundleDir string) (BundleManifest, error) {
	return flightrec.ReadManifest(bundleDir)
}

// Telemetry streaming types: a broadcast hub fans per-frame telemetry
// (KPI samples, SLO transitions, admission decisions, lifecycle events,
// operator notices) to subscribers through bounded per-subscriber
// rings; a slow subscriber drops its own oldest entries and can never
// block a producer. Attach a hub to one simulator through
// SimConfig.Hub; dispatchd serves its hub at GET /v1/stream over SSE.
type (
	// StreamHub is the broadcast hub.
	StreamHub = stream.Hub
	// StreamSub is one subscription with its bounded ring.
	StreamSub = stream.Sub
	// StreamTopic names one telemetry topic (kpi, slo, admission,
	// events, notice).
	StreamTopic = stream.Topic
	// StreamMsg is one published message: topic, sequence, frame, and
	// the marshalled payload shared by every subscriber.
	StreamMsg = stream.Msg
)

// NewStreamHub builds a hub and registers its obs metrics
// (stream_published_total, stream_dropped_total, stream_subscribers).
func NewStreamHub() *StreamHub { return stream.NewHub() }

// StreamTopics lists the valid telemetry topics.
func StreamTopics() []StreamTopic { return append([]StreamTopic(nil), stream.Topics...) }
