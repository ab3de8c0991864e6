// Package prof is the continuous frame-budget profiler: a per-frame
// cost ledger that attributes each simulator frame's wall-clock,
// allocations, and Dijkstra-cache traffic to the stage that spent them
// (the simulator's own phases — arrivals, faults, expiry, the dispatch
// view, movement — and the dispatch pipeline between them: costplane
// build/prune → preference construction → market build →
// matching/set-packing → commit), keeps the N slowest frames for
// post-hoc attribution ("frame 412: 78% in matching"), and flags each
// frame that blows a configured deadline budget as an overrun. The
// ledger owns no capture policy: the simulator hands every sealed frame
// to its flight recorder, which turns an overrun into an ordinary
// frame_overrun trigger under its one cooldown and captures the pprof
// evidence itself.
//
// The ledger stores no distributions. The simulator copies each sealed
// frame's per-stage time into that frame's KPI sample (tseries.Sample's
// StageNs), and tseries.StageBreakdown computes every stage
// distribution — /v1/report, /v1/profile, /v1/metrics'
// dispatch_stage_seconds, taxisim's stage table, flight-recorder
// manifests — over the KPI ring's retained window. The ledger keeps
// only what that ring cannot: the in-flight frame's spans, the N
// slowest frames with per-stage calls, allocations and cache traffic,
// the run-cumulative Summary, and the overrun count.
//
// A ledger belongs to one simulator (sim.Config.Ledger). A nil *Ledger
// is valid and off: its spans are zero Spans that end for free, so the
// simulator and dispatchers never pay for profiling they didn't ask
// for. The ledger forwards nothing itself: EndFrame returns the sealed
// frame, and the simulator publishes it and hands it to its recorder.
package prof

import (
	"runtime/metrics"
	"sync"
	"time"

	"stabledispatch/internal/geo"
	"stabledispatch/internal/roadnet"
)

// Stage indices of the fixed per-frame cost ledger, in frame order: the
// simulator's phases around the dispatch pipeline's stages.
const (
	StageArrivals = iota
	StageFaults
	StageExpiry
	StageView
	StageIdleScan
	StageCostPlane
	StagePrefBuild
	StageCostMatrix
	StageMatching
	StagePacking
	StageCommit
	StageMovement
	NumStages
)

// StageNames maps stage indices to their names: the
// dispatch_stage_seconds{stage=...} label values and, as
// stage_<name>_ns, the KPI sample's stage columns.
var StageNames = [NumStages]string{
	"arrivals", "faults", "expiry", "view",
	"idle_scan", "cost_plane", "pref_build", "cost_matrix",
	"matching", "packing", "commit", "movement",
}

// TopN is the slow-frame ring size.
const TopN = 8

// allocMetric is the runtime/metrics cumulative heap-object counter the
// ledger samples at span boundaries for per-stage allocation counts.
const allocMetric = "/gc/heap/allocs:objects"

// Config parameterises a Ledger.
type Config struct {
	// BudgetNs is the per-frame deadline budget in nanoseconds. A frame
	// whose wall-clock exceeds it is an overrun; ≤ 0 disables overrun
	// detection (the ledger still attributes every frame).
	BudgetNs int64
}

// FrameProfile is one frame's cost ledger: fixed-width arrays so the
// recording path never allocates.
type FrameProfile struct {
	Frame   int64
	WallNs  int64
	Allocs  int64
	Overrun bool

	StageNs     [NumStages]int64
	StageCalls  [NumStages]int64
	StageAllocs [NumStages]int64
	// Dijkstra-cache traffic attributed to the stage (deltas of the
	// frame's own roadnet cache counters across the span; zero on
	// metrics without a cache).
	StageCacheHits   [NumStages]int64
	StageCacheMisses [NumStages]int64
}

// StageSumNs is the sum of all attributed stage time. Stages never nest,
// so it is ≤ WallNs unless an abandoned Resilient primary's span ends
// while its fallback is still running in the same frame; a span that
// ends after its frame sealed is dropped.
func (p *FrameProfile) StageSumNs() int64 {
	var sum int64
	for _, ns := range p.StageNs {
		sum += ns
	}
	return sum
}

// Dominant returns the costliest stage and its share of the frame
// wall-clock (0 shares on an empty frame).
func (p *FrameProfile) Dominant() (stage string, share float64) {
	best := 0
	for i := 1; i < NumStages; i++ {
		if p.StageNs[i] > p.StageNs[best] {
			best = i
		}
	}
	if p.StageNs[best] == 0 {
		return "", 0
	}
	if p.WallNs > 0 {
		share = float64(p.StageNs[best]) / float64(p.WallNs)
	}
	return StageNames[best], share
}

// Ledger is the frame-budget profiler of one simulator. All methods are
// safe for concurrent use (the Resilient dispatcher's abandoned primary
// may still be closing spans while the fallback runs).
type Ledger struct {
	cfg Config

	mu      sync.Mutex
	inFrame bool
	cur     FrameProfile
	// cache is the current frame's Dijkstra cache (nil when its metric
	// has none); spans read their hit/miss deltas from it.
	cache cacheCounter

	frames      int64
	overruns    int64
	totalWallNs int64
	totalAllocs int64
	totalNs     [NumStages]int64
	totalCalls  [NumStages]int64
	totalAllocn [NumStages]int64
	totalHits   [NumStages]int64
	totalMisses [NumStages]int64

	top []FrameProfile // slow-frame ring, capacity TopN

	allocMu     sync.Mutex
	allocSample [1]metrics.Sample
}

// New builds a ledger.
func New(cfg Config) *Ledger {
	ld := &Ledger{cfg: cfg, top: make([]FrameProfile, 0, TopN)}
	ld.allocSample[0].Name = allocMetric
	return ld
}

// BudgetNs returns the per-frame deadline budget (≤ 0: no overrun
// detection).
func (ld *Ledger) BudgetNs() int64 { return ld.cfg.BudgetNs }

// readAllocs samples the cumulative heap-object allocation counter.
func (ld *Ledger) readAllocs() int64 {
	ld.allocMu.Lock()
	metrics.Read(ld.allocSample[:])
	v := ld.allocSample[0].Value
	ld.allocMu.Unlock()
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(v.Uint64())
}

// cacheCounter is the view of a metric with a Dijkstra cache — the same
// CacheStats assertion the simulator's KPI sample makes.
type cacheCounter interface{ CacheStats() roadnet.CacheStats }

// Span is one in-flight stage measurement. The zero Span (nil ledger)
// ends for free.
type Span struct {
	ld      *Ledger
	stage   int
	frame   int64 // the frame open at Begin
	start   time.Time
	allocs0 int64
	cache   cacheCounter
	cache0  roadnet.CacheStats
}

// Begin opens a span for a stage index (one of the Stage constants) in
// the current frame. On a nil ledger or outside a frame it returns the
// zero Span.
func (ld *Ledger) Begin(stage int) Span {
	if ld == nil || stage < 0 || stage >= NumStages {
		return Span{}
	}
	ld.mu.Lock()
	cache, frame, open := ld.cache, ld.cur.Frame, ld.inFrame
	ld.mu.Unlock()
	if !open {
		return Span{}
	}
	sp := Span{ld: ld, stage: stage, frame: frame, start: time.Now(), allocs0: ld.readAllocs(), cache: cache}
	if cache != nil {
		sp.cache0 = cache.CacheStats()
	}
	return sp
}

// End closes the span, attributing its cost to the frame it began in.
// A span that ends after its frame sealed (an abandoned Resilient
// primary finishing during the next frame) is dropped. The clock is
// read last, as Begin reads it first, so the span's own counter samples
// are charged to its stage instead of falling between stages.
func (sp Span) End() {
	if sp.ld == nil {
		return
	}
	ld := sp.ld
	allocs := ld.readAllocs() - sp.allocs0
	var hits, misses int64
	if sp.cache != nil {
		cs := sp.cache.CacheStats()
		hits, misses = int64(cs.Hits-sp.cache0.Hits), int64(cs.Misses-sp.cache0.Misses)
	}
	ns := time.Since(sp.start).Nanoseconds()
	ld.mu.Lock()
	if ld.inFrame && ld.cur.Frame == sp.frame {
		ld.cur.StageNs[sp.stage] += ns
		ld.cur.StageCalls[sp.stage]++
		ld.cur.StageAllocs[sp.stage] += allocs
		ld.cur.StageCacheHits[sp.stage] += hits
		ld.cur.StageCacheMisses[sp.stage] += misses
	}
	ld.mu.Unlock()
}

// BeginFrame opens frame's ledger entry; subsequent span ends attribute
// to it until EndFrame. metric is the frame's distance metric: when it
// has a Dijkstra cache (roadnet.Metric), spans attribute that cache's
// hits and misses to their stage.
func (ld *Ledger) BeginFrame(frame int64, metric geo.Metric) {
	cache, _ := metric.(cacheCounter)
	ld.mu.Lock()
	ld.cur = FrameProfile{Frame: frame}
	ld.inFrame = true
	ld.cache = cache
	ld.mu.Unlock()
}

// EndFrame seals frame's entry with the simulator-measured wall-clock
// and allocation count — the same values recorded as the tseries
// sample's FrameNs/Allocs, so the ledger and the KPI ring agree by
// construction. It folds the frame into the cumulative totals and the
// slow-frame ring, and runs overrun detection. It returns the sealed
// frame, Overrun set when it blew the budget; a frame that was never
// begun returns a zero profile.
func (ld *Ledger) EndFrame(frame, wallNs, allocs int64) FrameProfile {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if !ld.inFrame || ld.cur.Frame != frame {
		return FrameProfile{}
	}
	ld.inFrame = false
	ld.cur.WallNs = wallNs
	ld.cur.Allocs = allocs
	ld.cur.Overrun = ld.cfg.BudgetNs > 0 && wallNs > ld.cfg.BudgetNs
	p := ld.cur

	ld.frames++
	if p.Overrun {
		ld.overruns++
	}
	ld.totalWallNs += wallNs
	ld.totalAllocs += allocs
	for i := 0; i < NumStages; i++ {
		ld.totalNs[i] += p.StageNs[i]
		ld.totalCalls[i] += p.StageCalls[i]
		ld.totalAllocn[i] += p.StageAllocs[i]
		ld.totalHits[i] += p.StageCacheHits[i]
		ld.totalMisses[i] += p.StageCacheMisses[i]
	}
	ld.noteTop(p)
	return p
}

// noteTop inserts p into the slow-frame ring, evicting the fastest
// resident once full. Called under ld.mu; never allocates after the
// ring fills.
func (ld *Ledger) noteTop(p FrameProfile) {
	if len(ld.top) < cap(ld.top) {
		ld.top = append(ld.top, p)
		return
	}
	min := 0
	for i := 1; i < len(ld.top); i++ {
		if ld.top[i].WallNs < ld.top[min].WallNs {
			min = i
		}
	}
	if p.WallNs > ld.top[min].WallNs {
		ld.top[min] = p
	}
}
