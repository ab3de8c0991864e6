// Package dispatch wires the paper's matching algorithms and the
// non-sharing comparison algorithms into sim.Dispatcher implementations:
//
//   - NSTD-P / NSTD-T — Algorithm 1 and its taxi-optimal counterpart
//     (stable matching with dummy partners, §IV).
//   - STD-P / STD-T — Algorithm 3 (set packing + stable matching, §V).
//   - Greedy, MinCost ("Pair"), Bottleneck ("Worst") — the literature
//     baselines of §VI-B, which consider only passenger-side cost.
//
// All non-sharing dispatchers assign idle taxis only and emit one
// single-ride assignment per matched pair.
package dispatch

import (
	"fmt"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/match"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// idleFleet converts the idle taxis of a frame into fleet.Taxi values,
// returning also their IDs aligned by index.
func idleFleet(f *sim.Frame) []fleet.Taxi {
	defer f.Ledger.Begin(prof.StageIdleScan).End()
	views := f.IdleTaxis()
	taxis := make([]fleet.Taxi, len(views))
	for i, v := range views {
		taxis[i] = fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle}
	}
	return taxis
}

// prunedInstance builds the frame's non-sharing preference instance from
// a cost plane pruned at the passenger-side dummy threshold: taxis
// farther than MaxPickup from a pickup sit behind the dummy regardless,
// so skipping their cells leaves every preference list unchanged.
func prunedInstance(f *sim.Frame, taxis []fleet.Taxi) (*pref.Instance, error) {
	sp := f.Ledger.Begin(prof.StageCostPlane)
	pl := f.CostPlane(taxis, costplane.Config{PruneRadius: f.Params.MaxPickup})
	sp.End()
	sp = f.Ledger.Begin(prof.StagePrefBuild)
	defer sp.End()
	return pref.FromPlane(pl, f.Params)
}

// NSTD is the paper's non-sharing stable dispatcher. The passenger-
// optimal variant (NSTD-P) runs Algorithm 1 directly; the taxi-optimal
// variant (NSTD-T) selects the taxi-best stable matching (the paper
// derives it from Algorithms 1 and 2; the taxi-proposing mirror computes
// the same matching and is validated against the enumeration in tests).
type NSTD struct {
	taxiOptimal bool
}

var _ sim.Dispatcher = (*NSTD)(nil)

// NewNSTDP returns the passenger-optimal stable dispatcher.
func NewNSTDP() *NSTD { return &NSTD{} }

// NewNSTDT returns the taxi-optimal stable dispatcher.
func NewNSTDT() *NSTD { return &NSTD{taxiOptimal: true} }

// Name implements sim.Dispatcher.
func (d *NSTD) Name() string {
	if d.taxiOptimal {
		return "NSTD-T"
	}
	return "NSTD-P"
}

// Dispatch implements sim.Dispatcher.
func (d *NSTD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	inst, err := prunedInstance(f, taxis)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	ft := newFrameTracer(f.Number, &inst.Market, singleIDs(f.Requests), fleetIDs(taxis))
	sp := f.Ledger.Begin(prof.StageMatching)
	var m stable.Matching
	if d.taxiOptimal {
		m = stable.TaxiOptimalObserved(&inst.Market, ft.observer(true))
	} else {
		m = stable.PassengerOptimalObserved(&inst.Market, ft.observer(false))
	}
	sp.End()
	out := singleRides(m, taxis, f.Requests)
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// costMatrix returns the request-major pickup-distance matrix the
// baselines minimise — they model only the passenger's wait. The matrix
// is a view of the frame's unpruned cost plane: the baselines have no
// acceptability thresholds (a request beyond every radius still takes
// its nearest taxi), so every cell must hold a real distance.
func costMatrix(f *sim.Frame, taxis []fleet.Taxi) [][]float64 {
	sp := f.Ledger.Begin(prof.StageCostPlane)
	pl := f.CostPlane(taxis, costplane.Config{})
	sp.End()
	defer f.Ledger.Begin(prof.StageCostMatrix).End()
	return pl.CostMatrix()
}

// partnerFunc turns a cost matrix into a request→taxi assignment.
type partnerFunc func(cost [][]float64) ([]int, error)

// baseline is a generic non-sharing baseline dispatcher.
type baseline struct {
	name string
	run  partnerFunc
}

var _ sim.Dispatcher = (*baseline)(nil)

// NewGreedy returns the greedy baseline: each request takes the nearest
// idle taxi, in arrival order (Hanna et al. [3]).
func NewGreedy() sim.Dispatcher {
	return &baseline{name: "Greedy", run: match.Greedy}
}

// NewMinCost returns the minimum-cost bipartite matching baseline (the
// paper's "Pair"): minimise the total request-taxi distance.
func NewMinCost() sim.Dispatcher {
	return &baseline{name: "MinCost", run: func(cost [][]float64) ([]int, error) {
		partner, _, err := match.MinCost(cost)
		return partner, err
	}}
}

// NewBottleneck returns the bottleneck matching baseline (the paper's
// "Worst"): minimise the maximum matched request-taxi distance.
func NewBottleneck() sim.Dispatcher {
	return &baseline{name: "Bottleneck", run: func(cost [][]float64) ([]int, error) {
		partner, _, err := match.Bottleneck(cost)
		return partner, err
	}}
}

// Name implements sim.Dispatcher.
func (b *baseline) Name() string { return b.name }

// Dispatch implements sim.Dispatcher.
func (b *baseline) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	cost := costMatrix(f, taxis)
	sp := f.Ledger.Begin(prof.StageMatching)
	partner, err := b.run(cost)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", b.name, err)
	}
	var out []fleet.Assignment
	for j, i := range partner {
		if i != match.Unmatched {
			out = append(out, fleet.SingleRide(taxis[i].ID, f.Requests[j]))
		}
	}
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// DefaultPackBatch bounds how many pending requests enter the packing
// stage per frame. Algorithm 3's feasible-group search is quadratic to
// cubic in the batch; at the paper's frame sizes (tens of requests) the
// cap never binds, but when a scarce fleet lets the queue grow, only the
// oldest DefaultPackBatch requests are considered for sharing and the
// rest ride the same stable matching as singles.
const DefaultPackBatch = 100

// STD is Algorithm 3: pack compatible requests into share groups by
// maximum set packing, then stably match the resulting units to idle
// taxis under the §V-A interest model.
type STD struct {
	taxiOptimal bool
	packCfg     share.PackConfig
	maxBatch    int
}

var _ sim.Dispatcher = (*STD)(nil)

// NewSTDP returns the packed passenger-optimal sharing dispatcher.
func NewSTDP(cfg share.PackConfig) *STD { return &STD{packCfg: cfg, maxBatch: DefaultPackBatch} }

// NewSTDT returns the packed taxi-optimal sharing dispatcher.
func NewSTDT(cfg share.PackConfig) *STD {
	return &STD{taxiOptimal: true, packCfg: cfg, maxBatch: DefaultPackBatch}
}

// Name implements sim.Dispatcher.
func (d *STD) Name() string {
	if d.taxiOptimal {
		return "STD-T"
	}
	return "STD-P"
}

// Dispatch implements sim.Dispatcher.
func (d *STD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	n := packBatchSize(len(f.Requests), d.maxBatch)
	sp := f.Ledger.Begin(prof.StageCostPlane)
	pl := f.CostPlane(taxis, costplane.Config{
		PruneRadius: f.Params.MaxPickup,
		// A singleton batch consults no pickup pair, so skip the R×R
		// pair matrix entirely — common at quiet frames.
		Pairs:      n >= 2,
		PairRadius: d.packCfg.PairRadius,
	})
	sp.End()
	sp = f.Ledger.Begin(prof.StagePacking)
	units, err := packedUnits(f, pl, d.packCfg, n)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	sp = f.Ledger.Begin(prof.StagePrefBuild)
	mk, err := share.BuildMarketPlane(units, taxis, pl, f.Params)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	ft := newFrameTracer(f.Number, mk, unitMemberIDs(units, f.Requests), fleetIDs(taxis))
	sp = f.Ledger.Begin(prof.StageMatching)
	var m stable.Matching
	if d.taxiOptimal {
		m = stable.TaxiOptimalObserved(mk, ft.observer(true))
	} else {
		m = stable.PassengerOptimalObserved(mk, ft.observer(false))
	}
	sp.End()
	var out []fleet.Assignment
	for k, i := range m.ReqPartner {
		if i != stable.Unmatched {
			out = append(out, units[k].Assignment(taxis[i].ID, f.Requests))
		}
	}
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// packBatchSize is the number of oldest pending requests entering the
// packing stage: min(total, maxBatch), with maxBatch ≤ 0 meaning
// DefaultPackBatch.
func packBatchSize(total, maxBatch int) int {
	if maxBatch <= 0 {
		maxBatch = DefaultPackBatch
	}
	if total > maxBatch {
		return maxBatch
	}
	return total
}

// packedUnits runs Algorithm 3's first stage on the oldest n pending
// requests and appends the overflow as single-rider units, so a long
// queue still gets stable single dispatches while the packing stage
// stays frame-rate. Pair distances and solo trips come from the frame's
// cost plane.
func packedUnits(f *sim.Frame, pl *costplane.Plane, cfg share.PackConfig, n int) ([]share.Unit, error) {
	res, err := share.PackPlane(n, pl, cfg)
	if err != nil {
		return nil, err
	}
	units := res.UnitsPlane(pl)
	for idx := n; idx < len(f.Requests); idx++ {
		units = append(units, share.SingleUnitPlane(idx, pl))
	}
	return units, nil
}
