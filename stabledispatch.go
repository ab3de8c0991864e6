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
//     minimum-cost matching, bottleneck matching, SARP, ILP; SARP
//     also stands in for RAII, which dispatches identically).
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
	"stabledispatch/internal/carpool"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/flightrec"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

// Core geometry types.
type (
	// Point is a location on the city plane, in kilometres.
	Point = geo.Point
	// Metric measures travel distance between two points.
	Metric = geo.Metric
)

// EuclidMetric is the straight-line plane metric.
var EuclidMetric = geo.EuclidMetric

// Domain model types.
type (
	// Request is a passenger request with pickup and drop-off.
	Request = fleet.Request
	// Taxi is a privately owned vehicle.
	Taxi = fleet.Taxi
	// Stop is one waypoint of a taxi route; Seats is the party size that
	// boards (pickup) or leaves (drop-off) there.
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

// NewInstance builds the non-sharing matching market for one batch of
// requests and idle taxis (§IV-A interest model).
func NewInstance(reqs []Request, taxis []Taxi, m Metric, p Params) (*Instance, error) {
	return pref.NewInstance(reqs, taxis, m, p)
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

// Sharing types.
type (
	// PackConfig controls share-group generation (θ, group size).
	PackConfig = share.PackConfig
	// PackResult is the outcome of the packing stage.
	PackResult = share.PackResult
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
	// TaxiView is the dispatcher-visible state of one taxi. Its Route is
	// the simulator's own slice, shared and read-only (the simulator
	// never writes into it).
	TaxiView = sim.TaxiView
	// Dispatcher decides assignments each frame.
	Dispatcher = sim.Dispatcher
	// Report is the outcome of a simulation run.
	Report = sim.Report
	// Outage injects a taxi failure window into a simulation.
	Outage = sim.Outage
	// Event is one lifecycle event of a simulated request.
	Event = sim.Event
	// EventSink receives simulator events as they happen.
	EventSink = sim.EventSink
	// EventSinkFunc adapts a function to the EventSink interface.
	EventSinkFunc = sim.EventSinkFunc
)

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

// CarpoolConfig configures the insertion sharing baseline SARP.
type CarpoolConfig = carpool.Config

// DefaultCarpoolConfig mirrors the paper's sharing evaluation settings.
func DefaultCarpoolConfig() CarpoolConfig { return carpool.DefaultConfig() }

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
	// TraceRecorder is a bounded ring of decision-trace events.
	TraceRecorder = dtrace.Recorder
	// StabilityCertificate is a frame-commit audit of the realized
	// matching against Definition 1.
	StabilityCertificate = dtrace.Certificate
)

// NewTraceRecorder returns an empty decision-trace recorder keeping the
// last capacity events across all requests (non-positive takes the
// default, 1<<15) and the certificates of the last 1024 frames. Attach
// it to one simulator through SimConfig.Tracer.
func NewTraceRecorder(capacity int) *TraceRecorder {
	return dtrace.New(capacity)
}

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
)

// NewKPIRecorder returns a per-frame KPI ring; attach it via
// SimConfig.KPI and read it with Simulator.KPISeries.
func NewKPIRecorder(cfg KPIRecorderConfig) *KPIRecorder { return tseries.New(cfg) }

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

// Flight-recorder types: a black box that freezes its simulator's own
// stores into a self-contained diagnostic bundle (manifest, the KPI
// ring as CSV, the event tail as JSONL, the decision trace) on SLO
// breach, dispatch degrade, stability violation, frame overrun, or
// panic.
type (
	// FlightRecorder is the black box: trigger policy and bundle writer.
	FlightRecorder = flightrec.Recorder
	// FlightRecorderConfig sets the bundle directory, the cooldown
	// between automatic bundles, and the retention cap.
	FlightRecorderConfig = flightrec.Config
)

// NewFlightRecorder builds a flight recorder. Attach it to one
// simulator through SimConfig.Recorder; the simulator registers what its
// bundles hold and triggers it on SLO breaches, degraded frames,
// stability violations, and frame overruns.
func NewFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	return flightrec.New(cfg)
}

// StreamHub is the telemetry broadcast hub: it fans per-frame telemetry
// (KPI samples, SLO transitions, admission decisions, lifecycle events,
// operator notices) to subscribers through bounded per-subscriber
// rings; a slow subscriber drops its own oldest entries and can never
// block a producer. Attach a hub to one simulator through
// SimConfig.Hub; dispatchd serves its hub at GET /v1/stream over SSE.
type StreamHub = stream.Hub

// NewStreamHub builds a hub. It counts its own publishes, drops and
// subscribers (Published, Dropped, Subscribers).
func NewStreamHub() *StreamHub { return stream.NewHub() }
