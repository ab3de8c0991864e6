package main

import (
	"net/http"

	"stabledispatch/internal/prof"
	"stabledispatch/internal/tseries"
)

// profileOut is the GET /v1/profile payload: the frame-budget
// profiler's view of the serve path. FrameLatency and Stages are the
// distributions of per-frame wall-clock and stage time over the KPI
// ring's retained window (tseries.StageBreakdown); Summary and
// TopFrames are the ledger's run-cumulative and slowest-frame
// attribution.
type profileOut struct {
	// Summary is the run-cumulative ledger: per-stage time/alloc/cache
	// attribution, overrun and capture counts.
	Summary prof.Summary `json:"summary"`
	// FrameLatency is the whole-frame wall-clock distribution (absent
	// before the first frame).
	FrameLatency *tseries.StageSummary `json:"frameLatency,omitempty"`
	// Stages are the per-stage distributions over the retained window.
	Stages []tseries.StageSummary `json:"stages"`
	// TopFrames are the N slowest frames with per-frame attribution,
	// slowest first.
	TopFrames []prof.FrameReport `json:"topFrames,omitempty"`
}

func (s *server) getProfile(w http.ResponseWriter, _ *http.Request) {
	ld := s.sim.Ledger()
	frameLatency, stages := tseries.StageBreakdown(s.sim.KPISeries())
	if stages == nil {
		stages = []tseries.StageSummary{}
	}
	writeJSON(w, http.StatusOK, profileOut{
		Summary:      ld.Summary(),
		FrameLatency: frameLatency,
		Stages:       stages,
		TopFrames:    ld.TopFrames(),
	})
}
