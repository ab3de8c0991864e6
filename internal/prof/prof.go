// Package prof is the continuous frame-budget profiler: a per-frame
// cost ledger that attributes each dispatch frame's wall-clock,
// allocations, and Dijkstra-cache traffic to the pipeline stage that
// spent them (costplane build/prune → preference construction → market
// build → matching/set-packing → commit), keeps the N slowest frames
// for post-hoc attribution ("frame 412: 78% in matching"), and — when a
// frame blows a configured deadline budget — captures pprof CPU/heap
// profiles, rate-limited flightrec-style, and hands them to a callback
// for bundling.
//
// The ledger is the only sink of stage timing. Each sealed frame feeds
// the ledger's own rolling histograms — dispatch_stage_seconds (one
// observation per stage per frame: the frame's time in that stage) and
// sim_dispatch_frame_seconds (the frame's wall-clock) — in a registry
// private to the ledger, so two simulators in one process never blend.
// StageBreakdown is the single read path over those histograms, shared
// by dispatchd's /v1/report and /v1/profile, taxisim's end-of-run stage
// table, and flight-recorder manifests.
//
// A ledger belongs to one simulator (sim.Config.Ledger). A nil *Ledger
// is valid and off: its spans are zero Spans that end for free, so the
// simulator and dispatchers never pay for profiling they didn't ask
// for. The ledger forwards nothing itself: EndFrame returns the sealed
// frame and any finished capture, and the simulator publishes and
// bundles them.
package prof

import (
	"bytes"
	"io"
	"runtime/metrics"
	"sync"
	"time"

	"stabledispatch/internal/obs"
)

// Stage indices of the fixed per-frame cost ledger, in pipeline order.
// The names are the dispatch_stage_seconds{stage=...} labels of the
// ledger's rolling histograms.
const (
	StageIdleScan = iota
	StageCostPlane
	StagePrefBuild
	StageCostMatrix
	StageMatching
	StagePacking
	StageCommit
	NumStages
)

// StageNames maps stage indices to their histogram label values.
var StageNames = [NumStages]string{
	"idle_scan", "cost_plane", "pref_build", "cost_matrix",
	"matching", "packing", "commit",
}

// StageIndex resolves a stage label to its ledger index (-1 unknown).
func StageIndex(name string) int {
	for i, n := range StageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Defaults for Config zero values.
const (
	// DefaultTopN is the slow-frame ring size.
	DefaultTopN = 8
	// DefaultCooldownFrames spaces overrun captures: after a capture
	// fires, this many frames of further overruns are only counted.
	// Matches the flight recorder's trigger cooldown.
	DefaultCooldownFrames = 300
	// DefaultCaptureFrames is how many frames the CPU profile spans
	// after the triggering overrun.
	DefaultCaptureFrames = 30
)

// allocMetric is the runtime/metrics cumulative heap-object counter the
// ledger samples at span boundaries for per-stage allocation counts.
const allocMetric = "/gc/heap/allocs:objects"

// Config parameterises a Ledger.
type Config struct {
	// BudgetNs is the per-frame deadline budget in nanoseconds. A frame
	// whose wall-clock exceeds it is an overrun; ≤ 0 disables overrun
	// detection (the ledger still attributes every frame).
	BudgetNs int64
	// TopN bounds the slow-frame ring (default DefaultTopN).
	TopN int
	// CooldownFrames is the minimum frame distance between overrun
	// captures (default DefaultCooldownFrames). Overruns inside the
	// cooldown are counted as suppressed, exactly like flightrec's
	// trigger cooldown — see DESIGN.md for how the two interact.
	CooldownFrames int64
	// CaptureFrames is how many frames after the trigger the CPU
	// profile runs before the capture is finalised (default
	// DefaultCaptureFrames).
	CaptureFrames int
	// Capture arms pprof captures on overrun; EndFrame returns each
	// finalised one. False leaves overruns detected and counted only.
	Capture bool
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
	// roadnet cache counters across the span; zero on grid metrics).
	StageCacheHits   [NumStages]int64
	StageCacheMisses [NumStages]int64
}

// StageSumNs is the sum of all attributed stage time. It is ≤ WallNs up
// to unattributed frame work (event application, KPI recording) except
// when a Resilient fallback overlaps its abandoned primary, whose spans
// land on the same frame.
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

// Capture is one finalised overrun capture: the triggering frame's
// ledger plus pprof evidence. CPU is nil when the process-wide CPU
// profiler was already running (a live /debug/pprof/profile session);
// the heap pair is always present so an offline delta
// (`go tool pprof -base heap_pre.pprof heap.pprof`) is computable.
type Capture struct {
	Trigger  FrameProfile
	BudgetNs int64
	// Frames is how many frames the CPU profile spans.
	Frames int
	// Suppressed counts overruns swallowed by the cooldown since the
	// previous capture.
	Suppressed int64
	CPU        []byte
	HeapPre    []byte
	Heap       []byte
}

// pendingCapture is an armed overrun capture counting down its frames.
type pendingCapture struct {
	trigger    FrameProfile
	left       int
	suppressed int64
	cpu        bytes.Buffer
	cpuActive  bool
	heapPre    []byte
}

// Ledger is the frame-budget profiler of one simulator. All methods are
// safe for concurrent use (the Resilient dispatcher's abandoned primary
// may still be closing spans while the fallback runs).
type Ledger struct {
	cfg Config

	mu      sync.Mutex
	inFrame bool
	cur     FrameProfile

	frames      int64
	overruns    int64
	captures    int64
	suppressed  int64 // total cooldown-suppressed overruns
	sinceCap    int64 // suppressed since the last capture
	lastCapture int64 // frame of the last capture trigger
	totalWallNs int64
	totalAllocs int64
	totalNs     [NumStages]int64
	totalCalls  [NumStages]int64
	totalAllocn [NumStages]int64
	totalHits   [NumStages]int64
	totalMisses [NumStages]int64

	top     []FrameProfile // slow-frame ring, capacity TopN
	pending *pendingCapture

	allocMu     sync.Mutex
	allocSample [1]metrics.Sample

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	// reg holds the ledger's rolling histograms, fed once per sealed
	// frame.
	reg       *obs.Registry
	stageHist [NumStages]*obs.Histogram
	frameHist *obs.Histogram
}

// New builds a ledger.
func New(cfg Config) *Ledger {
	if cfg.TopN <= 0 {
		cfg.TopN = DefaultTopN
	}
	if cfg.CooldownFrames <= 0 {
		cfg.CooldownFrames = DefaultCooldownFrames
	}
	if cfg.CaptureFrames <= 0 {
		cfg.CaptureFrames = DefaultCaptureFrames
	}
	ld := &Ledger{
		cfg:         cfg,
		lastCapture: -1 << 62,
		top:         make([]FrameProfile, 0, cfg.TopN),
		cacheHits:   obs.GetOrCreateCounter("roadnet_cache_hits_total"),
		cacheMisses: obs.GetOrCreateCounter("roadnet_cache_misses_total"),
		reg:         obs.NewRegistry(),
	}
	ld.allocSample[0].Name = allocMetric
	for i, name := range StageNames {
		ld.stageHist[i] = ld.reg.GetOrCreateHistogram(`dispatch_stage_seconds{stage="` + name + `"}`)
	}
	ld.frameHist = ld.reg.GetOrCreateHistogram("sim_dispatch_frame_seconds")
	return ld
}

// Close abandons an in-flight CPU capture, stopping the profiler.
func (ld *Ledger) Close() {
	ld.mu.Lock()
	pc := ld.pending
	ld.pending = nil
	ld.mu.Unlock()
	if pc != nil && pc.cpuActive {
		stopCPUProfile()
	}
}

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

// Span is one in-flight stage measurement. The zero Span (nil ledger)
// ends for free.
type Span struct {
	ld      *Ledger
	stage   int
	start   time.Time
	allocs0 int64
	hits0   uint64
	misses0 uint64
}

// Begin opens a span for a stage index (one of the Stage constants). On
// a nil ledger it returns the zero Span.
func (ld *Ledger) Begin(stage int) Span {
	if ld == nil || stage < 0 || stage >= NumStages {
		return Span{}
	}
	return Span{
		ld:      ld,
		stage:   stage,
		start:   time.Now(),
		allocs0: ld.readAllocs(),
		hits0:   ld.cacheHits.Value(),
		misses0: ld.cacheMisses.Value(),
	}
}

// End closes the span, attributing its cost to the current frame.
// Spans closing outside a frame are dropped.
func (sp Span) End() {
	if sp.ld == nil {
		return
	}
	ld := sp.ld
	ns := time.Since(sp.start).Nanoseconds()
	allocs := ld.readAllocs() - sp.allocs0
	hits := int64(ld.cacheHits.Value() - sp.hits0)
	misses := int64(ld.cacheMisses.Value() - sp.misses0)
	ld.mu.Lock()
	if ld.inFrame {
		ld.cur.StageNs[sp.stage] += ns
		ld.cur.StageCalls[sp.stage]++
		ld.cur.StageAllocs[sp.stage] += allocs
		ld.cur.StageCacheHits[sp.stage] += hits
		ld.cur.StageCacheMisses[sp.stage] += misses
	}
	ld.mu.Unlock()
}

// BeginFrame opens frame's ledger entry; subsequent span ends attribute
// to it until EndFrame.
func (ld *Ledger) BeginFrame(frame int64) {
	ld.mu.Lock()
	ld.cur = FrameProfile{Frame: frame}
	ld.inFrame = true
	ld.mu.Unlock()
}

// EndFrame seals frame's entry with the simulator-measured wall-clock
// and allocation count — the same values recorded as the tseries
// sample's FrameNs/Allocs, so the ledger and the KPI ring agree by
// construction. It folds the frame into the cumulative totals, the
// slow-frame ring and the rolling histograms, and runs overrun
// detection. It returns the sealed frame (Overrun set when it blew the
// budget) and the capture this frame finalised, if any; a frame that
// was never begun returns a zero profile.
func (ld *Ledger) EndFrame(frame, wallNs, allocs int64) (FrameProfile, *Capture) {
	ld.mu.Lock()
	if !ld.inFrame || ld.cur.Frame != frame {
		ld.mu.Unlock()
		return FrameProfile{}, nil
	}
	ld.inFrame = false
	ld.cur.WallNs = wallNs
	ld.cur.Allocs = allocs
	overrun := ld.cfg.BudgetNs > 0 && wallNs > ld.cfg.BudgetNs
	ld.cur.Overrun = overrun
	p := ld.cur

	ld.frames++
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

	var done *pendingCapture
	if overrun {
		ld.overruns++
	}
	switch {
	case ld.pending != nil:
		ld.pending.left--
		if ld.pending.left <= 0 {
			done = ld.pending
			ld.pending = nil
		}
		if overrun {
			// Overruns during an in-flight capture are part of the
			// evidence being collected, not new triggers.
			ld.suppressed++
			ld.sinceCap++
		}
	case overrun && ld.cfg.Capture:
		if frame-ld.lastCapture >= ld.cfg.CooldownFrames {
			ld.pending = &pendingCapture{
				trigger:    p,
				left:       ld.cfg.CaptureFrames,
				suppressed: ld.sinceCap,
			}
			ld.sinceCap = 0
			ld.lastCapture = frame
			ld.captures++
			ld.pending.heapPre = heapProfile()
			ld.pending.cpuActive = startCPUProfile(&ld.pending.cpu)
		} else {
			ld.suppressed++
			ld.sinceCap++
		}
	}
	ld.mu.Unlock()

	ld.frameHist.Observe(float64(wallNs) / 1e9)
	for i := 0; i < NumStages; i++ {
		if p.StageCalls[i] > 0 {
			ld.stageHist[i].Observe(float64(p.StageNs[i]) / 1e9)
		}
	}
	if done == nil {
		return p, nil
	}
	return p, ld.finishCapture(done)
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

// finishCapture stops the profilers and seals the capture. Called off
// the ledger mutex: the heap profile walks the whole heap.
func (ld *Ledger) finishCapture(pc *pendingCapture) *Capture {
	var cpu []byte
	if pc.cpuActive {
		stopCPUProfile()
		cpu = pc.cpu.Bytes()
	}
	return &Capture{
		Trigger:    pc.trigger,
		BudgetNs:   ld.cfg.BudgetNs,
		Frames:     ld.cfg.CaptureFrames,
		Suppressed: pc.suppressed,
		CPU:        cpu,
		HeapPre:    pc.heapPre,
		Heap:       heapProfile(),
	}
}

// WritePrometheus writes the ledger's rolling histograms in the
// Prometheus text format.
func (ld *Ledger) WritePrometheus(w io.Writer) error { return ld.reg.WritePrometheus(w) }
