package dispatch

import "stabledispatch/internal/obs"

// Stage timing for the dispatch pipeline goes to the frame-budget
// ledger of the simulator that built the frame (sim.Frame.Ledger), one
// span per stage of Algorithm 1/3 and the baselines:
//
//	idle_scan   — collecting the frame's idle fleet
//	cost_plane  — building (or memo-hitting) the frame's shared
//	              distance plane: spatial candidate pruning plus the
//	              parallel batched distance computation
//	pref_build  — market construction from the plane (pref.FromPlane
//	              or share.BuildMarketPlane)
//	cost_matrix — the baselines' request-major view of the plane
//	matching    — the stable matching (or baseline assignment) solve
//	packing     — Algorithm 3's feasible-group + set-packing stage
//
// The ledger derives the dispatch_stage_seconds histograms behind
// dispatchd's /v1/report and taxisim's stage table from these spans.

var obsAssignments = obs.GetOrCreateCounter("dispatch_assignments_total")

// obsDegraded counts frames the Resilient wrapper handed to its
// fallback dispatcher, by cause.
var obsDegraded = map[string]*obs.Counter{
	"deadline": obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="deadline"}`),
	"panic":    obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="panic"}`),
	"error":    obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="error"}`),
}
