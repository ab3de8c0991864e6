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
//
// Stage timing for the dispatch pipeline goes to the frame-budget
// ledger of the simulator that built the frame (sim.Frame.Ledger), one
// span per stage of Algorithm 1/3 and the baselines:
//
//	idle_scan   — collecting the frame's idle fleet
//	cost_plane  — building the frame's distance plane: threshold
//	              candidate pruning plus the parallel batched distance
//	              computation (STD times two spans: the request plane
//	              before packing, the unit-start taxi rows after)
//	pref_build  — market construction from the plane (pref.FromPlane
//	              or share.Units.Market)
//	cost_matrix — the baselines' request-major view of the plane
//	matching    — the stable matching (or baseline assignment) solve
//	packing     — Algorithm 3's feasible-group + set-packing stage
//
// The simulator times its own phases around these (arrivals, faults,
// expiry, view, commit, movement) and copies every stage's per-frame
// time into the frame's KPI sample, whose stage columns back
// dispatchd's /v1/report and dispatch_stage_seconds and taxisim's stage
// table.
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

// IdleFleet returns the frame's idle taxis as fleet.Taxi values, in
// fleet order (sim.Frame.IdleFleet). It times the idle_scan stage.
func IdleFleet(f *sim.Frame) []fleet.Taxi {
	defer f.Ledger.Begin(prof.StageIdleScan).End()
	return f.IdleFleet()
}

// prunedInstance builds the frame's non-sharing preference instance
// into st (st.Plane and st.Instance), from the cost plane pruned at
// both dummy thresholds (pref.Plane): a taxi beyond request j's radius
// min(MaxPickup, MaxNet + α·trip_j) sits behind a dummy regardless, so
// skipping its cell leaves every preference list unchanged. The plane
// is built under the cost_plane span and the market under pref_build.
func prunedInstance(f *sim.Frame, taxis []fleet.Taxi, st *sim.Storage) (*pref.Instance, error) {
	sp := f.Ledger.Begin(prof.StageCostPlane)
	st.Plane = pref.Plane(st.Plane, f.Requests, taxis, f.Metric, f.Params, f.Workers)
	sp.End()
	defer f.Ledger.Begin(prof.StagePrefBuild).End()
	var err error
	st.Instance, err = pref.Refill(st.Instance, st.Plane, f.Params)
	return st.Instance, err
}

// NSTD is the paper's non-sharing stable dispatcher. The passenger-
// optimal variant (NSTD-P) runs Algorithm 1 directly; the taxi-optimal
// variant (NSTD-T) selects the taxi-best stable matching, which it
// computes as Algorithm 1 on the transposed market (stable.TaxiOptimal;
// validated against the Algorithm 2 enumeration in tests).
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
	taxis := IdleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	st := f.Storage()
	inst, err := prunedInstance(f, taxis, st)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	// The matching span also covers the tracer and the assignments
	// built from the matching, so no dispatcher glue runs unstaged.
	defer f.Ledger.Begin(prof.StageMatching).End()
	ft := newFrameTracer(f, &inst.Market, nil, taxis)
	m := stableMatch(&st.Solver, &inst.Market, ft, d.taxiOptimal)
	f.ReportMarket(&inst.Market, nil)
	return singleRides(m, taxis, f.Requests), nil
}

// stableMatch runs Algorithm 1 on mk in solver's arrays, taxi-optimal when
// taxiOptimal is set, recording its decisions into ft. The matching is
// valid until the solver's next run, the next frame's.
func stableMatch(solver *stable.Solver, mk *pref.Market, ft *frameTracer, taxiOptimal bool) stable.Matching {
	if taxiOptimal {
		return solver.TaxiOptimal(mk, ft.observer(true))
	}
	return solver.PassengerOptimal(mk, ft.observer(false))
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

// costMatrix returns the request-major pickup-distance matrix the
// baselines minimise — they model only the passenger's wait. The matrix
// is a view of an unpruned cost plane, built fresh: the baselines have
// no acceptability thresholds (a request beyond every radius still
// takes its nearest taxi), so every cell must hold a real distance. It
// takes no frame Storage, which stays with the stable dispatcher a
// resilient baseline fallback runs beside.
func costMatrix(f *sim.Frame, taxis []fleet.Taxi) [][]float64 {
	sp := f.Ledger.Begin(prof.StageCostPlane)
	pl := costplane.Build(f.Requests, taxis, f.Metric, costplane.Config{Workers: f.Workers})
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
	taxis := IdleFleet(f)
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
	return out, nil
}

// DefaultPackBatch bounds how many pending requests enter the packing
// stage per frame. Algorithm 3's feasible-group search is quadratic to
// cubic in the batch. When the queue grows past the cap, only the
// oldest DefaultPackBatch requests are considered for sharing and the
// rest ride as singles. That happens at paper scale: on the New York
// day the cap binds in 778 of 1,499 STD-P dispatch frames, with the
// queue peaking at 1,314 (ROADMAP item 1).
const DefaultPackBatch = 100

// PackFrame runs Algorithm 3's first stage for a frame, for STD and the
// ILP baseline alike, in the frame's Storage (packFrame). ILP reads no
// cell of the returned plane.
func PackFrame(f *sim.Frame, cfg share.PackConfig) (*costplane.Plane, []share.Unit, error) {
	return packFrame(f, f.Storage(), cfg)
}

// packFrame builds the frame's request plane into st.Plane — solo
// trips plus the pickup→pickup rows of the oldest DefaultPackBatch
// pending requests, and no taxi rows — packs that batch on it, and
// fills st.Units with the packed units followed by the overflow as
// single-rider units, so a long queue is still dispatched while the
// packing stage stays frame-rate. Both build into the last frame's
// storage. STD adds the taxi rows its unit market can accept afterwards
// (unitPlane). It times the cost_plane and packing stages and records
// packing decisions into the frame's tracer.
func packFrame(f *sim.Frame, st *sim.Storage, cfg share.PackConfig) (*costplane.Plane, []share.Unit, error) {
	n := min(len(f.Requests), DefaultPackBatch)
	sp := f.Ledger.Begin(prof.StageCostPlane)
	st.Plane = costplane.Rebuild(st.Plane, f.Requests, nil, f.Metric, costplane.Config{
		Workers: f.Workers,
		// Group formation reads pickup pairs within the batch only, so
		// the pair matrix is n×n however long the queue is; a singleton
		// batch consults no pair, so it skips the matrix entirely —
		// common at quiet frames.
		Pairs:      n >= 2,
		PairRows:   n,
		PairRadius: cfg.PairRadius,
	})
	sp.End()
	defer f.Ledger.Begin(prof.StagePacking).End()
	cfg.Tracer = f.Tracer
	res, err := share.PackPlane(n, st.Plane, cfg)
	if err != nil {
		return nil, nil, err
	}
	return st.Plane, st.Units.Fill(res, st.Plane, n), nil
}

// unitPlane computes the unit constants (share.Units.Prepare), which
// the unit market reads too, and fills into the request plane the taxi
// rows that market can read: only the columns of unit-start requests,
// each pruned at its unit's radius (share.Units.AppendRadii). STD reads
// nothing of the taxi-less request plane after packing, so the rows go
// into that plane in place. It times a second cost_plane span.
func unitPlane(f *sim.Frame, taxis []fleet.Taxi, st *sim.Storage) error {
	defer f.Ledger.Begin(prof.StageCostPlane).End()
	if err := st.Units.Prepare(st.Plane, f.Params); err != nil {
		return err
	}
	st.Plane.FillTaxis(taxis, f.Workers, func(_, dst []float64) []float64 {
		return st.Units.AppendRadii(dst)
	})
	return nil
}

// STD is Algorithm 3: pack compatible requests into share groups by
// maximum set packing, then stably match the resulting units to idle
// taxis under the §V-A interest model.
type STD struct {
	taxiOptimal bool
	packCfg     share.PackConfig
}

var _ sim.Dispatcher = (*STD)(nil)

// NewSTDP returns the packed passenger-optimal sharing dispatcher.
func NewSTDP(cfg share.PackConfig) *STD { return &STD{packCfg: cfg} }

// NewSTDT returns the packed taxi-optimal sharing dispatcher.
func NewSTDT(cfg share.PackConfig) *STD { return &STD{taxiOptimal: true, packCfg: cfg} }

// Name implements sim.Dispatcher.
func (d *STD) Name() string {
	if d.taxiOptimal {
		return "STD-T"
	}
	return "STD-P"
}

// Dispatch implements sim.Dispatcher.
func (d *STD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := IdleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	st := f.Storage()
	_, units, err := packFrame(f, st, d.packCfg)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	if err = unitPlane(f, taxis, st); err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	sp := f.Ledger.Begin(prof.StagePrefBuild)
	st.Market = st.Units.Market(st.Market, taxis, st.Plane)
	sp.End()
	defer f.Ledger.Begin(prof.StageMatching).End()
	ft := newFrameTracer(f, st.Market, units, taxis)
	m := stableMatch(&st.Solver, st.Market, ft, d.taxiOptimal)
	f.ReportMarket(st.Market, units)
	var out []fleet.Assignment
	for k, i := range m.ReqPartner {
		if i != stable.Unmatched {
			out = append(out, units[k].Assignment(taxis[i].ID, f.Requests))
		}
	}
	return out, nil
}
