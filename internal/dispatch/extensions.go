package dispatch

import (
	"fmt"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// enumerationCap bounds Algorithm 2's output inside per-frame
// dispatchers. Metric-derived markets almost always have a handful of
// stable matchings; the cap is a safety valve against adversarial ties.
const enumerationCap = 256

// NSTDC is the company-side extension the paper sketches in §IV-D: run
// Algorithm 2 to enumerate all stable matchings of the frame and let the
// platform pick the one it likes best. Since every stable matching serves
// the same requests (Theorem 2 and its mirror), commission revenue is
// fixed; the platform's remaining lever is fleet efficiency, so the
// default objective minimises the total idle (pickup) distance.
type NSTDC struct{}

var _ sim.Dispatcher = (*NSTDC)(nil)

// NewNSTDC returns the company-optimal stable dispatcher.
func NewNSTDC() *NSTDC { return &NSTDC{} }

// Name implements sim.Dispatcher.
func (d *NSTDC) Name() string { return "NSTD-C" }

// Dispatch implements sim.Dispatcher.
func (d *NSTDC) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := IdleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	inst, err := prunedInstance(f, taxis)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	defer f.Ledger.Begin(prof.StageMatching).End()
	// The enumeration has no per-proposal observer; building the tracer
	// still records each request's candidate shortlist for the explain
	// surface.
	_ = newFrameTracer(f, &inst.Market, nil, taxis)
	m := stable.CompanyOptimal(&inst.Market, stable.TotalPickupDistance(inst), enumerationCap)
	return singleRides(m, taxis, f.Requests), nil
}

// NSTDM selects the median stable matching of each frame — the fairness
// compromise between the passenger-optimal and taxi-optimal extremes
// (the median-stable-matching line of work the paper cites as [13]).
type NSTDM struct{}

var _ sim.Dispatcher = (*NSTDM)(nil)

// NewNSTDM returns the median stable dispatcher.
func NewNSTDM() *NSTDM { return &NSTDM{} }

// Name implements sim.Dispatcher.
func (d *NSTDM) Name() string { return "NSTD-M" }

// Dispatch implements sim.Dispatcher.
func (d *NSTDM) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := IdleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	inst, err := prunedInstance(f, taxis)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	defer f.Ledger.Begin(prof.StageMatching).End()
	_ = newFrameTracer(f, &inst.Market, nil, taxis)
	m := stable.MedianStable(&inst.Market, enumerationCap)
	return singleRides(m, taxis, f.Requests), nil
}

// singleRides converts a non-sharing matching into assignments.
func singleRides(m stable.Matching, taxis []fleet.Taxi, reqs []fleet.Request) []fleet.Assignment {
	var out []fleet.Assignment
	for j, i := range m.ReqPartner {
		if i != stable.Unmatched {
			out = append(out, fleet.SingleRide(taxis[i].ID, reqs[j]))
		}
	}
	return out
}
