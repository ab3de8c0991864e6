package main

// The SLO surface on /healthz: the engine's worst alert state, so load
// balancers see a breach without parsing the per-objective table (the
// stream's slo topic and /v1/metrics' slo_* gauges carry that).

import "stabledispatch/internal/slo"

// sloHealth condenses the alert table for /healthz: the worst state
// plus the counts a dashboard needs at a glance.
type sloHealth struct {
	// State is the worst objective state (breach > warning > recovered
	// > ok).
	State     slo.State `json:"state"`
	Breaching int       `json:"breaching"`
	Warning   int       `json:"warning"`
	Total     int       `json:"total"`
}

// sloHealthOut summarises the engine's status, or nil when no SLO file
// is loaded.
func (s *server) sloHealthOut() *sloHealth {
	eng := s.sim.SLO()
	if eng == nil {
		return nil
	}
	sts := eng.Status()
	out := &sloHealth{State: slo.StateOK, Total: len(sts)}
	rank := func(st slo.State) int {
		switch st {
		case slo.StateBreach:
			return 3
		case slo.StateWarning:
			return 2
		case slo.StateRecovered:
			return 1
		}
		return 0
	}
	for _, st := range sts {
		switch st.State {
		case slo.StateBreach:
			out.Breaching++
		case slo.StateWarning:
			out.Warning++
		}
		if rank(st.State) > rank(out.State) {
			out.State = st.State
		}
	}
	return out
}
