package share

import (
	"fmt"
	"math"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
)

// Unit is one dispatch unit of Algorithm 3's second stage: a packed
// group, or a single request that stayed unpacked. Each unit is
// "regarded as an independent request" and matched to a taxi by
// Algorithm 1 under the refined §V-A interest model.
type Unit struct {
	// Members are indices into the frame's request slice.
	Members []int
	// Plan is the unit's shared route (trivial for singles).
	Plan RoutePlan
}

// SingleUnitPlane builds the trivial unit for the plane's request idx
// riding alone.
func SingleUnitPlane(idx int, pl *costplane.Plane) Unit {
	r, trip := pl.Requests[idx], pl.Trip(idx)
	return Unit{
		Members: []int{idx},
		Plan: RoutePlan{
			Stops: []fleet.Stop{
				{RequestID: r.ID, Kind: fleet.StopPickup, Pos: r.Pickup, Seats: r.SeatCount()},
				{RequestID: r.ID, Kind: fleet.StopDropoff, Pos: r.Dropoff, Seats: r.SeatCount()},
			},
			Length:       trip,
			PickupOffset: []float64{0},
			OnBoard:      []float64{trip},
			MaxLoad:      r.SeatCount(),
		},
	}
}

// UnitsPlane flattens the packing result into dispatch units ordered by
// their first member index, which keeps the second-stage matching
// deterministic; the singles' trips come from the plane the result was
// packed on.
func (r PackResult) UnitsPlane(pl *costplane.Plane) []Unit {
	units := make([]Unit, 0, len(r.Groups)+len(r.Singles))
	for _, g := range r.Groups {
		units = append(units, Unit{Members: g.Members, Plan: g.Plan})
	}
	for _, idx := range r.Singles {
		units = append(units, SingleUnitPlane(idx, pl))
	}
	// Insertion sort by first member keeps the common case (already
	// mostly ordered) cheap and avoids an import for one call.
	for i := 1; i < len(units); i++ {
		for j := i; j > 0 && units[j].Members[0] < units[j-1].Members[0]; j-- {
			units[j], units[j-1] = units[j-1], units[j]
		}
	}
	return units
}

// Start returns the route's first stop position (the shared route's
// anchor; the taxi drives here first).
func (u Unit) Start() geo.Point {
	return u.Plan.Stops[0].Pos
}

// RequestIDs returns the fleet request IDs of the unit's members.
func (u Unit) RequestIDs(reqs []fleet.Request) []int {
	ids := make([]int, len(u.Members))
	for g, idx := range u.Members {
		ids[g] = reqs[idx].ID
	}
	return ids
}

// Assignment converts the unit into a dispatchable fleet.Assignment for
// the given taxi.
func (u Unit) Assignment(taxiID int, reqs []fleet.Request) fleet.Assignment {
	return fleet.Assignment{
		TaxiID:   taxiID,
		Requests: u.RequestIDs(reqs),
		Route:    append([]fleet.Stop(nil), u.Plan.Stops...),
	}
}

// passengerCost returns the unit's preference value less the taxi's
// lead-in distance to the route start: the average over members of
// D_ck(t, r^s) − D(t, route start) + β·[D_ck(r^s, r^d) − D(r^s, r^d)],
// with solo trips D(r^s, r^d) from trips. Lower is better; for a single
// rider it is 0, so the preference value reduces to D(t, r^s), the
// non-sharing value.
func (u Unit) passengerCost(trips []float64, beta float64) float64 {
	total := 0.0
	for g, idx := range u.Members {
		total += u.Plan.PickupOffset[g] + beta*u.Plan.Detour(g, trips[idx])
	}
	return total / float64(len(u.Members))
}

// taxiCost returns the driver's preference value less the lead-in
// distance: D_ck(t) − D(t, route start) − (α+1)·Σ D(r^s, r^d), where
// D_ck(t) is the total driving distance (lead-in plus route). For a
// single rider the preference value reduces to D(t, r^s) − α·D(r^s, r^d).
func (u Unit) taxiCost(trips []float64, alpha float64) float64 {
	totalTrip := 0.0
	for _, idx := range u.Members {
		totalTrip += trips[idx]
	}
	return u.Plan.Length - (alpha+1)*totalTrip
}

// BuildMarketPlane computes the second-stage matching market between
// units and taxis under the §V-A interest model. Acceptability mirrors
// the non-sharing dummies: a unit accepts taxis whose preference value
// stays within params.MaxPickup, a taxi accepts units within
// params.MaxNet, and both sides reject pairs the taxi lacks seats for.
//
// Every distance comes from the plane: the lead-in is the plane's
// taxi→pickup cell of the unit's first stop (always a member's pickup),
// and the unit constants use the plane's solo trips. Each taxi's stored
// cells are walked through a start-request→unit index, so only the
// cells the plane kept are visited. A plane whose taxi rows follow
// UnitRadii yields the same market as one pruned at params.MaxPickup,
// and that one the same as an unpruned plane, since the triangle
// inequality makes the passenger constants non-negative: a pruned lead
// reads +Inf, and its true distance also fails the unit's test. Only a
// market with both thresholds +Inf accepts a +Inf lead; it visits every
// cell.
func BuildMarketPlane(units []Unit, taxis []fleet.Taxi, pl *costplane.Plane, params pref.Params) (*pref.Market, error) {
	unitOf, err := unitStarts(units, pl.Requests)
	if err != nil {
		return nil, err
	}
	c, err := newUnitCosts(units, params, pl.Trips())
	if err != nil {
		return nil, err
	}
	everyCell := math.IsInf(params.MaxPickup, 1) && math.IsInf(params.MaxNet, 1)
	var full []costplane.Entry
	// A cell yields at most one entry, for the unit its request starts.
	bound := pl.Entries()
	if everyCell {
		bound = len(units) * len(taxis)
	}
	market := pref.BuildMarket(len(units), len(taxis), bound, func(i int, dst []pref.Entry) []pref.Entry {
		seats := taxis[i].Capacity()
		row := pl.PickupRow(i)
		if everyCell {
			full = pl.FullRow(i, full[:0])
			row = full
		}
		for _, e := range row {
			if k := unitOf[e.Req]; k >= 0 {
				dst = c.appendAcceptable(dst, k, e.Dist, seats)
			}
		}
		return dst
	})
	return &market, nil
}

// UnitRadii returns the per-request taxi radii of the unit market, for
// costplane.Plane.WithTaxis: the column of the request that starts unit
// k is pruned at the largest lead-in both of k's tests can accept,
// min(MaxPickup − passengerConst, MaxNet − taxiConst), each widened by
// costplane.Radius, and every other column is left out (−1), because
// BuildMarketPlane reads a taxi's lead-in to the unit's first pickup
// only. The radius is never wider than a positive MaxPickup, the prune
// of the passenger-side plane, so the kept cells are a subset of that
// plane's and the market is the same. A NaN or infinite unit constant
// never prunes its side. pl needs its requests and trips only.
func UnitRadii(units []Unit, pl *costplane.Plane, params pref.Params) ([]float64, error) {
	unitOf, err := unitStarts(units, pl.Requests)
	if err != nil {
		return nil, err
	}
	c, err := newUnitCosts(units, params, pl.Trips())
	if err != nil {
		return nil, err
	}
	radii := make([]float64, len(unitOf))
	for j, k := range unitOf {
		radii[j] = -1
		if k >= 0 {
			radii[j] = c.radius(k)
		}
	}
	return radii, nil
}

// unitStarts returns, for each of reqs, the index of the unit whose
// route starts at its pickup, or −1. A unit must start at one of its
// members, and no two units at the same request.
func unitStarts(units []Unit, reqs []fleet.Request) ([]int, error) {
	unitOf := make([]int, len(reqs))
	for j := range unitOf {
		unitOf[j] = -1
	}
	for k, u := range units {
		if len(u.Members) == 0 || len(u.Plan.Stops) == 0 {
			return nil, fmt.Errorf("share: unit with no members or empty plan")
		}
		start := -1
		startID := u.Plan.Stops[0].RequestID
		for _, idx := range u.Members {
			if reqs[idx].ID == startID {
				start = idx
				break
			}
		}
		if start < 0 {
			return nil, fmt.Errorf("share: unit %d starts at request %d, not a member", k, startID)
		}
		if unitOf[start] >= 0 {
			return nil, fmt.Errorf("share: units %d and %d both start at request %d", unitOf[start], k, startID)
		}
		unitOf[start] = k
	}
	return unitOf, nil
}

// unitCosts is the market's hot core. Both interest formulas decompose
// as lead-in distance plus a taxi-independent unit constant, so the
// constants are computed once per unit and each (unit, taxi) pair costs
// one addition per side — this is the per-frame hot loop of the sharing
// dispatchers.
type unitCosts struct {
	params                    pref.Params
	passengerConst, taxiConst []float64
	maxLoad                   []int
}

// newUnitCosts computes the unit constants; trips holds the members'
// solo trip distances.
func newUnitCosts(units []Unit, params pref.Params, trips []float64) (*unitCosts, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	nu := len(units)
	consts := make([]float64, 2*nu)
	c := &unitCosts{params: params, passengerConst: consts[:nu:nu], taxiConst: consts[nu:], maxLoad: make([]int, nu)}
	for k, u := range units {
		c.passengerConst[k] = u.passengerCost(trips, params.Beta)
		c.taxiConst[k] = u.taxiCost(trips, params.Alpha)
		c.maxLoad[k] = u.Plan.MaxLoad
	}
	return c, nil
}

// radius returns unit k's lead-in radius (see UnitRadii). The
// comparisons skip a NaN side, so it never tightens.
func (c *unitCosts) radius(k int) float64 {
	r := math.Inf(1)
	if c.params.MaxPickup > 0 {
		r = c.params.MaxPickup
	}
	if pr := costplane.Radius(c.params.MaxPickup, c.passengerConst[k]); pr < r {
		r = pr
	}
	if nr := costplane.Radius(c.params.MaxNet, c.taxiConst[k]); nr < r {
		r = nr
	}
	return r
}

// appendAcceptable appends unit k to a taxi's market row when the pair
// with lead-in distance lead is mutually acceptable and the taxi's seats
// carry the unit.
func (c *unitCosts) appendAcceptable(dst []pref.Entry, k int, lead float64, seats int) []pref.Entry {
	pc, tc := lead+c.passengerConst[k], lead+c.taxiConst[k]
	if pc <= c.params.MaxPickup && tc <= c.params.MaxNet && c.maxLoad[k] <= seats {
		dst = append(dst, pref.Entry{Partner: k, ReqCost: pc, TaxiCost: tc})
	}
	return dst
}
