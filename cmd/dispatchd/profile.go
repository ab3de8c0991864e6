package main

import (
	"net/http"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/tseries"
)

// profileOut is the GET /v1/profile payload: the frame-budget
// profiler's view of the serve path. FrameLatency and Stages are the
// distributions of per-frame wall-clock and stage time over the KPI
// ring's retained window (tseries.StageBreakdown, empty without a
// ring); Summary and TopFrames are the ledger's run-cumulative and
// slowest-frame attribution (absent without a ledger).
type profileOut struct {
	// Enabled reports whether the simulator has a ledger.
	Enabled  bool  `json:"enabled"`
	BudgetNs int64 `json:"budgetNs,omitempty"`
	// Summary is the run-cumulative ledger: per-stage time/alloc/cache
	// attribution, overrun and capture counts.
	Summary *prof.Summary `json:"summary,omitempty"`
	// FrameLatency is the whole-frame wall-clock distribution.
	FrameLatency *tseries.StageSummary `json:"frameLatency,omitempty"`
	// Stages are the per-stage distributions over the retained window.
	Stages []tseries.StageSummary `json:"stages"`
	// TopFrames are the N slowest frames with per-frame attribution,
	// slowest first.
	TopFrames []prof.FrameReport `json:"topFrames,omitempty"`
}

func (s *server) getProfile(w http.ResponseWriter, _ *http.Request) {
	out := profileOut{Stages: []tseries.StageSummary{}}
	frameLatency, stages := tseries.StageBreakdown(s.sim.KPISeries())
	out.FrameLatency = frameLatency
	if stages != nil {
		out.Stages = stages
	}
	if ld := s.sim.Ledger(); ld != nil {
		sum := ld.Summary()
		out.Enabled = true
		out.BudgetNs = sum.BudgetNs
		out.Summary = &sum
		out.TopFrames = ld.TopFrames()
	}
	writeJSON(w, http.StatusOK, out)
}
