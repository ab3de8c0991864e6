package prof

import "sort"

// StageCost is one stage's share of a frame (or of a run, in Summary):
// the JSON-friendly projection of the fixed ledger arrays.
type StageCost struct {
	Stage  string `json:"stage"`
	Ns     int64  `json:"ns"`
	Calls  int64  `json:"calls"`
	Allocs int64  `json:"allocs"`
	// CacheHits/CacheMisses are the Dijkstra-cache deltas attributed to
	// the stage (zero on grid metrics).
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheMisses int64 `json:"cacheMisses,omitempty"`
	// Share is Ns over the frame (or run) wall-clock, in [0,1].
	Share float64 `json:"share"`
}

// FrameReport is one frame's attribution, ready for JSON: the slow-frame
// entries of /v1/profile and of flight-recorder overrun bundles. Stages
// are in pipeline order; zero-call stages are omitted.
type FrameReport struct {
	Frame      int64       `json:"frame"`
	WallNs     int64       `json:"wallNs"`
	Allocs     int64       `json:"allocs"`
	Overrun    bool        `json:"overrun,omitempty"`
	StageSumNs int64       `json:"stageSumNs"`
	Stages     []StageCost `json:"stages"`
}

// Report projects the ledger arrays into a FrameReport.
func (p *FrameProfile) Report() FrameReport {
	r := FrameReport{
		Frame:      p.Frame,
		WallNs:     p.WallNs,
		Allocs:     p.Allocs,
		Overrun:    p.Overrun,
		StageSumNs: p.StageSumNs(),
		Stages:     make([]StageCost, 0, NumStages),
	}
	for i := 0; i < NumStages; i++ {
		if p.StageCalls[i] == 0 {
			continue
		}
		sc := StageCost{
			Stage:       StageNames[i],
			Ns:          p.StageNs[i],
			Calls:       p.StageCalls[i],
			Allocs:      p.StageAllocs[i],
			CacheHits:   p.StageCacheHits[i],
			CacheMisses: p.StageCacheMisses[i],
		}
		if p.WallNs > 0 {
			sc.Share = float64(p.StageNs[i]) / float64(p.WallNs)
		}
		r.Stages = append(r.Stages, sc)
	}
	return r
}

// Summary is the run-cumulative view of the ledger.
type Summary struct {
	Frames    int64 `json:"frames"`
	BudgetNs  int64 `json:"budgetNs,omitempty"`
	Overruns  int64 `json:"overruns"`
	AvgWallNs int64 `json:"avgWallNs"`
	AvgAllocs int64 `json:"avgAllocs"`
	// Stages carries cumulative per-stage cost; Share is against the
	// cumulative frame wall-clock.
	Stages []StageCost `json:"stages"`
}

// Summary snapshots the cumulative totals.
func (ld *Ledger) Summary() Summary {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	s := Summary{
		Frames:   ld.frames,
		BudgetNs: ld.cfg.BudgetNs,
		Overruns: ld.overruns,
		Stages:   make([]StageCost, 0, NumStages),
	}
	if ld.frames > 0 {
		s.AvgWallNs = ld.totalWallNs / ld.frames
		s.AvgAllocs = ld.totalAllocs / ld.frames
	}
	for i := 0; i < NumStages; i++ {
		if ld.totalCalls[i] == 0 {
			continue
		}
		sc := StageCost{
			Stage:       StageNames[i],
			Ns:          ld.totalNs[i],
			Calls:       ld.totalCalls[i],
			Allocs:      ld.totalAllocn[i],
			CacheHits:   ld.totalHits[i],
			CacheMisses: ld.totalMisses[i],
		}
		if ld.totalWallNs > 0 {
			sc.Share = float64(ld.totalNs[i]) / float64(ld.totalWallNs)
		}
		s.Stages = append(s.Stages, sc)
	}
	return s
}

// TopFrames returns the slow-frame ring, slowest first.
func (ld *Ledger) TopFrames() []FrameReport {
	ld.mu.Lock()
	top := make([]FrameProfile, len(ld.top))
	copy(top, ld.top)
	ld.mu.Unlock()
	sort.Slice(top, func(i, j int) bool { return top[i].WallNs > top[j].WallNs })
	out := make([]FrameReport, len(top))
	for i := range top {
		out[i] = top[i].Report()
	}
	return out
}
