package dispatch

import (
	"testing"

	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
)

// TestDispatchRecordsStageSpans runs NSTD, STD and a baseline under a
// simulator with a frame-budget ledger and checks every stage — the
// simulator's phases and the pipeline stages the dispatchers open
// through the frame — reached that simulator's ledger, and that each
// simulator's assign events count exactly its own served requests.
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
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if got, want := s.Stats().Events[sim.EventAssign], rep.ServedCount(); got != want || want == 0 {
			t.Errorf("%s: %d assign events, want its %d served requests (> 0)", d.Name(), got, want)
		}
	}
	calls := make(map[string]int64)
	for _, st := range ld.Summary().Stages {
		calls[st.Stage] = st.Calls
	}
	for _, stage := range prof.StageNames {
		if calls[stage] == 0 {
			t.Errorf("stage %q recorded no spans (ledger stages %v)", stage, calls)
		}
	}
}
