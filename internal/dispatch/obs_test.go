package dispatch

import (
	"testing"

	"stabledispatch/internal/obs"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
)

// TestDispatchRecordsStageSpans runs NSTD, STD and a baseline under a
// simulator with a frame-budget ledger and checks every pipeline stage
// reached that simulator's ledger through the frame.
func TestDispatchRecordsStageSpans(t *testing.T) {
	taxis, reqs := smallWorld(t, 11, 12, 30)
	if len(reqs) == 0 {
		t.Fatal("trace generated no requests")
	}
	ld := prof.New(prof.Config{})
	for _, d := range []sim.Dispatcher{NewNSTDP(), NewSTDP(share.DefaultPackConfig()), NewGreedy()} {
		s, err := sim.New(sim.Config{
			Dispatcher: d,
			Params:     pref.DefaultParams(),
			Ledger:     ld,
		}, taxis, reqs)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
	calls := make(map[string]int64)
	for _, st := range ld.Summary().Stages {
		calls[st.Stage] = st.Calls
	}
	for _, stage := range []string{"idle_scan", "cost_plane", "pref_build", "matching", "packing", "cost_matrix", "commit"} {
		if calls[stage] == 0 {
			t.Errorf("stage %q recorded no spans (ledger stages %v)", stage, calls)
		}
	}

	proposals := obs.GetOrCreateCounter("stable_gs_proposals_total")
	if proposals.Value() == 0 {
		t.Error("stable_gs_proposals_total = 0 after stable dispatches")
	}
}
