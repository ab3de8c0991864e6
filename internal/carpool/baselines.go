package carpool

import (
	"fmt"
	"math"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/match"
	"stabledispatch/internal/prof"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
)

// Config holds the insertion baseline's constraints.
type Config struct {
	// Theta bounds the new rider's on-board detour (km); matches the
	// paper's θ = 5.
	Theta float64
	// MaxAdded bounds the total extra driving an insertion may cost the
	// taxi, which also shields existing riders from long detours.
	MaxAdded float64
	// MaxWait bounds the along-route distance to an inserted rider's
	// pickup — the pickup-deadline window of the cited systems. Zero
	// admits only a pickup the taxi is already at.
	MaxWait float64
}

// DefaultConfig mirrors the paper's sharing evaluation: θ = 5 km, with
// the added-distance bound and pickup-wait window both at 2θ.
func DefaultConfig() Config {
	return Config{Theta: 5, MaxAdded: 10, MaxWait: 10}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Theta < 0 || c.MaxAdded < 0 || c.MaxWait < 0 {
		return fmt.Errorf("carpool: negative constraint in config %+v", c)
	}
	return nil
}

// SARP is the TSP-insertion baseline [8]: every taxi within the pickup
// window in straight line is a candidate, and the new request is
// spliced into the route with minimum additional travel distance.
type SARP struct {
	cfg Config
}

var _ sim.Dispatcher = (*SARP)(nil)

// NewSARP returns the SARP baseline dispatcher.
func NewSARP(cfg Config) *SARP { return &SARP{cfg: cfg} }

// Name implements sim.Dispatcher.
func (d *SARP) Name() string { return "SARP" }

// Dispatch implements sim.Dispatcher.
func (d *SARP) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	if err := d.cfg.Validate(); err != nil {
		return nil, err
	}
	views := append([]sim.TaxiView(nil), f.Taxis...)
	plans := make(map[int]insertionPlan)
	reqsOf := make(map[int][]int)
	// A feasible insertion reaches the pickup within MaxWait along the
	// route, and no metric here is shorter than the straight line, so a
	// taxi farther than MaxWait in straight line has no feasible
	// insertion. The radius is widened outward for rounding.
	reach := costplane.Radius(d.cfg.MaxWait, 0)
	var sc insertionScratch

	for _, r := range f.Requests {
		bestTaxi, best := -1, insertionPlan{added: math.Inf(1)}
		for ti := range views {
			if views[ti].Offline || geo.Euclid(views[ti].Pos, r.Pickup) > reach {
				continue
			}
			if _, taken := plans[ti]; taken {
				continue
			}
			plan, ok := bestInsertion(views[ti], r, f.Metric, d.cfg.Theta, d.cfg.MaxAdded, d.cfg.MaxWait, &sc)
			if ok && plan.added < best.added {
				bestTaxi, best = ti, plan
			}
		}
		if bestTaxi < 0 {
			continue
		}
		plans[bestTaxi] = best
		reqsOf[bestTaxi] = append(reqsOf[bestTaxi], r.ID)
	}
	return buildAssignments(views, plans, reqsOf), nil
}

// ILP is the integer-programming baseline [6]: requests are packed into
// share groups, and groups are assigned to idle taxis by an exact
// minimum-cost matching on total driving distance (the frame's
// assignment ILP, solved via its integral LP).
type ILP struct {
	packCfg share.PackConfig
}

var _ sim.Dispatcher = (*ILP)(nil)

// NewILP returns the ILP baseline dispatcher.
func NewILP(packCfg share.PackConfig) *ILP { return &ILP{packCfg: packCfg} }

// Name implements sim.Dispatcher.
func (d *ILP) Name() string { return "ILP" }

// Dispatch implements sim.Dispatcher.
func (d *ILP) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := dispatch.IdleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	// The same packed units as STD: the group search is superlinear in
	// the pending queue, and the ILP frame optimum is over the batched
	// units either way.
	_, units, err := dispatch.PackFrame(f, d.packCfg)
	if err != nil {
		return nil, fmt.Errorf("carpool: ILP: %w", err)
	}
	// The matching span covers the cost matrix, the solve and the
	// assignments built from it.
	defer f.Ledger.Begin(prof.StageMatching).End()
	// cost[k][i]: total driving distance for idle taxi i to serve unit
	// k (lead-in plus route), +Inf when the taxi lacks seats. Lead-ins
	// come from the metric: PackFrame's plane holds no taxi rows, and the
	// min-cost matching has no dummy threshold a pruned row could serve.
	cost := make([][]float64, len(units))
	for k, u := range units {
		cost[k] = make([]float64, len(taxis))
		for i, tx := range taxis {
			if tx.Capacity() < u.Plan.MaxLoad {
				cost[k][i] = math.Inf(1)
				continue
			}
			cost[k][i] = f.Metric.Distance(tx.Pos, u.Start()) + u.Plan.Length
		}
	}
	partner, _, err := match.MinCost(cost)
	if err != nil {
		return nil, fmt.Errorf("carpool: ILP: %w", err)
	}
	var out []fleet.Assignment
	for k, i := range partner {
		if i != match.Unmatched {
			out = append(out, units[k].Assignment(taxis[i].ID, f.Requests))
		}
	}
	return out, nil
}

// buildAssignments converts per-taxi insertion plans into assignments.
func buildAssignments(views []sim.TaxiView, plans map[int]insertionPlan, reqsOf map[int][]int) []fleet.Assignment {
	var out []fleet.Assignment
	for ti := range views {
		plan, ok := plans[ti]
		if !ok {
			continue
		}
		out = append(out, fleet.Assignment{
			TaxiID:   views[ti].ID,
			Requests: reqsOf[ti],
			Route:    plan.route,
		})
	}
	return out
}
