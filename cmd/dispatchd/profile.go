package main

import (
	"net/http"

	"stabledispatch/internal/prof"
)

// profileOut is the GET /v1/profile payload: the frame-budget
// profiler's view of the serve path, all read from the simulator's
// ledger. Stages carries the rolling per-stage distributions of
// per-frame stage time; Summary and TopFrames the per-frame cost
// attribution. Without a ledger only an empty Stages list remains.
type profileOut struct {
	// Enabled reports whether the simulator has a ledger.
	Enabled  bool  `json:"enabled"`
	BudgetNs int64 `json:"budgetNs,omitempty"`
	// Summary is the run-cumulative ledger: per-stage time/alloc/cache
	// attribution, overrun and capture counts.
	Summary *prof.Summary `json:"summary,omitempty"`
	// FrameLatency is the whole-frame wall-clock distribution.
	FrameLatency *prof.StageSummary `json:"frameLatency,omitempty"`
	// Stages are the rolling per-stage distributions.
	Stages []prof.StageSummary `json:"stages"`
	// TopFrames are the N slowest frames with per-frame attribution,
	// slowest first.
	TopFrames []prof.FrameReport `json:"topFrames,omitempty"`
}

func (s *server) getProfile(w http.ResponseWriter, _ *http.Request) {
	out := profileOut{Stages: []prof.StageSummary{}}
	if ld := s.sim.Ledger(); ld != nil {
		frameLatency, stages := ld.StageBreakdown()
		sum := ld.Summary()
		out.Enabled = true
		out.BudgetNs = sum.BudgetNs
		out.Summary = &sum
		out.FrameLatency = frameLatency
		out.TopFrames = ld.TopFrames()
		if stages != nil {
			out.Stages = stages
		}
	}
	writeJSON(w, http.StatusOK, out)
}
