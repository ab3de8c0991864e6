// Package carpool implements the sharing comparison algorithms the paper
// evaluates against (§VI-B):
//
//   - SARP (Li et al. [8]): TSP-style insertion — every taxi is
//     considered and the new request's pickup and drop-off are spliced
//     into the existing route wherever they add the least distance.
//     It also stands in for RAII (Ma et al. [7]): RAII's spatial index
//     surfaces only taxis within the pickup-wait window in straight-line
//     distance, and SARP's own window test (along-route distance, never
//     shorter than the straight line, against the same bound) rejects
//     every taxi the index would drop, so the two dispatch identically.
//     SARP skips those taxis before the splice search for that reason.
//   - ILP ([6]): per frame, requests are packed into share groups by
//     Algorithm 3's first stage (dispatch.PackFrame, the same units STD
//     matches) and the group-to-idle-taxi assignment problem is solved
//     exactly as a minimum-cost matching (the assignment polytope is
//     integral, so the LP solution is the ILP optimum for the frame).
//
// SARP may insert into busy taxis; the engine's route validator
// guarantees onboard passengers still reach their destinations.
package carpool

import (
	"math"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/sim"
)

// insertionPlan is a candidate modification of one taxi's route.
type insertionPlan struct {
	route []fleet.Stop
	// added is the extra travel distance relative to the current route.
	added float64
}

// bestInsertion tries every way of splicing r's pickup and drop-off into
// the taxi's existing route (preserving the current stop order) and
// returns the cheapest feasible plan. Feasibility requires:
//
//   - seat capacity is never exceeded along the new route,
//   - the new rider's on-board detour stays within theta,
//   - the total added distance stays within maxAdded (existing riders'
//     detours are bounded through it),
//   - the along-route distance to the new rider's pickup stays within
//     maxWait (the pickup-deadline window of the cited systems; without
//     it, tail-of-chain insertions give absurd waits).
//
// Insertion costs are computed incrementally from precomputed leg
// distances — O(1) per (pickup, drop-off) position pair — and only the
// winning plan materialises a route. The precomputed arrays live in sc,
// so a call allocates only that route once sc has grown to the longest
// route. The dispatch baselines evaluate this for every pending request
// against every candidate taxi each frame, so this is their hot path.
func bestInsertion(v sim.TaxiView, r fleet.Request, m geo.Metric, theta, maxAdded, maxWait float64, sc *insertionScratch) (insertionPlan, bool) {
	n := len(v.Route)
	solo := r.TripDistance(m)

	// Precompute the geometry the cost formulas need:
	//   at(i): stop position i, with at(-1) = taxi position;
	//   leg[i]: d(at(i-1), at(i)) — the existing legs;
	//   toPickup[i] = d(at(i-1), P), fromPickup[i] = d(P, at(i));
	//   toDrop/fromDrop likewise for the drop-off point.
	at := func(i int) geo.Point {
		if i < 0 {
			return v.Pos
		}
		return v.Route[i].Pos
	}
	if cap(sc.dist) < 6*n+3 {
		sc.dist, sc.load = make([]float64, 6*n+3), make([]int, n+1)
	}
	d := sc.dist[:6*n+3]
	leg, fromPickup, fromDrop := d[:n], d[n:2*n], d[2*n:3*n]
	toPickup, toDrop, prefix := d[3*n:4*n+1], d[4*n+1:5*n+2], d[5*n+2:]
	for i := 0; i < n; i++ {
		leg[i] = m.Distance(at(i-1), at(i))
		fromPickup[i] = m.Distance(r.Pickup, at(i))
		fromDrop[i] = m.Distance(r.Dropoff, at(i))
	}
	for i := 0; i <= n; i++ {
		toPickup[i] = m.Distance(at(i-1), r.Pickup)
		toDrop[i] = m.Distance(at(i-1), r.Dropoff)
	}
	pickupToDrop := m.Distance(r.Pickup, r.Dropoff)

	// span[i] = distance along the existing route from at(i) to at(j)
	// is span(j) - span(i), via the prefix sum of legs.
	prefix[0] = 0
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + leg[i]
	}

	// loadBefore[i] = occupied seats while driving toward stop i;
	// loadBefore[n] = seats after the last stop.
	loadBefore := sc.load[:n+1]
	loadBefore[0] = v.Load
	for i := 0; i < n; i++ {
		delta := v.Route[i].Seats
		if v.Route[i].Kind == fleet.StopDropoff {
			delta = -delta
		}
		loadBefore[i+1] = loadBefore[i] + delta
	}
	capacity := v.Capacity()

	bestPi, bestDi := -1, -1
	bestAdded := math.Inf(1)
	for pi := 0; pi <= n; pi++ {
		// The rider occupies a seat from insertion point pi through
		// insertion point di; check capacity incrementally.
		if loadBefore[pi]+r.SeatCount() > capacity {
			continue
		}
		// Pickup deadline: the rider waits out the whole route prefix.
		if prefix[pi]+toPickup[pi] > maxWait {
			continue
		}
		for di := pi; di <= n; di++ {
			// The rider is aboard while the original stops pi..di-1
			// execute, i.e. over the load states [pi, di]; extend the
			// window one state at a time.
			if di > pi && loadBefore[di]+r.SeatCount() > capacity {
				break
			}
			var added, onBoard float64
			if pi == di {
				// Adjacent insertion: ... -> P -> D -> s_pi ...
				added = toPickup[pi] + pickupToDrop - legOrZero(leg, pi)
				if pi < n {
					added += fromDrop[pi]
				}
				onBoard = pickupToDrop
			} else {
				// ... -> P -> s_pi ... s_{di-1} -> D -> s_di ...
				addP := toPickup[pi] + fromPickup[pi] - legOrZero(leg, pi)
				addD := toDrop[di] - legOrZero(leg, di)
				if di < n {
					addD += fromDrop[di]
				}
				added = addP + addD
				onBoard = fromPickup[pi] + (prefix[di] - prefix[pi+1]) + toDrop[di]
			}
			if added > maxAdded || added >= bestAdded {
				continue
			}
			if onBoard-solo > theta {
				continue
			}
			bestPi, bestDi, bestAdded = pi, di, added
		}
	}
	if bestPi < 0 {
		return insertionPlan{}, false
	}
	return insertionPlan{
		route: spliceRoute(v.Route, r, bestPi, bestDi),
		added: bestAdded,
	}, true
}

// insertionScratch holds bestInsertion's per-call arrays: dist the six
// distance arrays of a route of n stops (6n+3 values), load its n+1 load
// states. One scratch serves every call of one SARP.Dispatch.
type insertionScratch struct {
	dist []float64
	load []int
}

// legOrZero returns leg[i], or 0 when inserting after the final stop
// (there is no displaced leg).
func legOrZero(leg []float64, i int) float64 {
	if i < len(leg) {
		return leg[i]
	}
	return 0
}

// bestInsertionBrute is the reference implementation: it materialises
// every candidate route and measures it from scratch. Kept for the
// differential tests that pin bestInsertion's incremental arithmetic.
func bestInsertionBrute(v sim.TaxiView, r fleet.Request, m geo.Metric, theta, maxAdded, maxWait float64) (insertionPlan, bool) {
	baseLen := fleet.RouteLength(v.Pos, v.Route, m)
	solo := r.TripDistance(m)
	n := len(v.Route)

	best := insertionPlan{added: math.Inf(1)}
	found := false
	for pi := 0; pi <= n; pi++ {
		for di := pi; di <= n; di++ {
			route := spliceRoute(v.Route, r, pi, di)
			if !loadFeasible(route, v) {
				continue
			}
			newLen := fleet.RouteLength(v.Pos, route, m)
			added := newLen - baseLen
			if added > maxAdded || added >= best.added {
				continue
			}
			if onBoard := onBoardDistance(v.Pos, route, r.ID, m); onBoard-solo > theta {
				continue
			}
			if waitDistance(v.Pos, route, r.ID, m) > maxWait {
				continue
			}
			best = insertionPlan{route: route, added: added}
			found = true
		}
	}
	return best, found
}

// spliceRoute inserts r's pickup before index pi and its drop-off before
// index di of the original route (pi <= di), preserving existing order.
func spliceRoute(route []fleet.Stop, r fleet.Request, pi, di int) []fleet.Stop {
	out := make([]fleet.Stop, 0, len(route)+2)
	pickup := fleet.Stop{RequestID: r.ID, Kind: fleet.StopPickup, Pos: r.Pickup, Seats: r.SeatCount()}
	drop := fleet.Stop{RequestID: r.ID, Kind: fleet.StopDropoff, Pos: r.Dropoff, Seats: r.SeatCount()}
	for i := 0; i <= len(route); i++ {
		if i == pi {
			out = append(out, pickup)
		}
		if i == di {
			out = append(out, drop)
		}
		if i < len(route) {
			out = append(out, route[i])
		}
	}
	return out
}

// loadFeasible walks the candidate route checking the seat capacity.
func loadFeasible(route []fleet.Stop, v sim.TaxiView) bool {
	load := v.Load
	capacity := v.Capacity()
	for _, stop := range route {
		if stop.Kind == fleet.StopPickup {
			load += stop.Seats
			if load > capacity {
				return false
			}
		} else {
			load -= stop.Seats
		}
	}
	return true
}

// waitDistance returns the along-route distance from the taxi position
// to request id's pickup stop.
func waitDistance(pos geo.Point, route []fleet.Stop, id int, m geo.Metric) float64 {
	dist := 0.0
	cur := pos
	for _, stop := range route {
		dist += m.Distance(cur, stop.Pos)
		cur = stop.Pos
		if stop.RequestID == id && stop.Kind == fleet.StopPickup {
			return dist
		}
	}
	return dist
}

// onBoardDistance returns the distance request id spends on board along
// the route (pickup stop to drop-off stop).
func onBoardDistance(pos geo.Point, route []fleet.Stop, id int, m geo.Metric) float64 {
	dist := 0.0
	cur := pos
	pickupAt := 0.0
	for _, stop := range route {
		dist += m.Distance(cur, stop.Pos)
		cur = stop.Pos
		if stop.RequestID != id {
			continue
		}
		if stop.Kind == fleet.StopPickup {
			pickupAt = dist
		} else {
			return dist - pickupAt
		}
	}
	return 0
}
