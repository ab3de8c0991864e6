// Package share implements the sharing taxi dispatch of §V: exhaustive
// shared-route planning (the general problem is NP-hard by Theorem 5, but
// groups have at most three requests, so at most 6!/2³ = 90 stop orders
// exist), feasible-group generation under the detour bound θ, the maximum
// set packing stage (Eqs. 1–3, via package setpack), and the refined
// interest models that turn packed groups into a pref.Market for
// Algorithm 1.
package share

import (
	"errors"
	"fmt"
	"math"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// MaxGroupSize is the largest shareable group the paper considers
// practical ("the number of passenger requests for a taxi sharing is
// usually no greater than three").
const MaxGroupSize = 3

// ErrNoRequests is returned when planning a route for an empty group.
var ErrNoRequests = errors.New("share: no requests to route")

// RoutePlan is the optimal shared route for a group of requests: the
// stop order minimising total travel distance subject to every pickup
// preceding its drop-off.
type RoutePlan struct {
	// Stops is the optimal stop sequence. The first stop is always a
	// pickup.
	Stops []fleet.Stop
	// Length is the distance along Stops, measured from the first stop
	// (the taxi-to-first-stop leg is not included; it is unknown until
	// a taxi is matched).
	Length float64
	// PickupOffset[g] is the distance along the route from the first
	// stop to member g's pickup. D_ck(t_i, r_j^s) is then the taxi's
	// lead-in distance plus this offset.
	PickupOffset []float64
	// OnBoard[g] is D_ck(r_j^s, r_j^d): the distance member g spends
	// on board, along the shared route.
	OnBoard []float64
	// MaxLoad is the maximum number of occupied seats at any point on
	// the route, used against taxi capacity.
	MaxLoad int
}

// Detour returns member g's extra on-board distance relative to riding
// alone: D_ck(r^s, r^d) − D(r^s, r^d).
func (p RoutePlan) Detour(g int, soloTrip float64) float64 {
	return p.OnBoard[g] - soloTrip
}

// BestRoute exhaustively searches all pickup-before-drop-off stop orders
// for the group and returns the shortest, as Algorithm 3 prescribes. The
// route starts at the first pickup of the winning order. Groups larger
// than MaxGroupSize are rejected — the search is factorial.
func BestRoute(reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	return bestRoute(nil, reqs, m)
}

// BestRouteFrom is BestRoute with a known taxi start position: the leg
// from start to the first stop counts toward the route length, so orders
// are compared from the taxi's perspective. The carpool baselines (which
// pick a taxi before routing) use this variant.
func BestRouteFrom(start geo.Point, reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	return bestRoute(&start, reqs, m)
}

func bestRoute(start *geo.Point, reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	k := len(reqs)
	if k == 0 {
		return RoutePlan{}, ErrNoRequests
	}
	if k > MaxGroupSize {
		return RoutePlan{}, fmt.Errorf("share: group of %d exceeds the exhaustive-search limit %d", k, MaxGroupSize)
	}

	s := &routeSearch{
		reqs:    reqs,
		metric:  m,
		start:   start,
		order:   make([]searchStop, 0, 2*k),
		picked:  make([]bool, k),
		dropped: make([]bool, k),
		best:    RoutePlan{Length: math.Inf(1)},
	}
	s.extend(0)
	if math.IsInf(s.best.Length, 1) {
		return RoutePlan{}, fmt.Errorf("share: no feasible stop order for %d requests", k)
	}
	return s.best, nil
}

// routeSearch enumerates stop orders depth-first with branch-and-bound on
// the accumulated distance.
type routeSearch struct {
	reqs    []fleet.Request
	metric  geo.Metric
	start   *geo.Point
	order   []searchStop
	picked  []bool
	dropped []bool
	best    RoutePlan
}

// searchStop is one stop of the order under search: member g's pickup or
// drop-off. record turns the winning order into fleet.Stops.
type searchStop struct {
	g    int
	kind fleet.StopKind
	pos  geo.Point
}

func (s *routeSearch) extend(lengthSoFar float64) {
	if lengthSoFar >= s.best.Length {
		return // bound: already no better than the incumbent
	}
	if len(s.order) == 2*len(s.reqs) {
		s.record(lengthSoFar)
		return
	}
	for g := range s.reqs {
		if !s.picked[g] {
			s.visit(g, fleet.StopPickup, s.reqs[g].Pickup, lengthSoFar)
		} else if !s.dropped[g] {
			s.visit(g, fleet.StopDropoff, s.reqs[g].Dropoff, lengthSoFar)
		}
	}
}

func (s *routeSearch) visit(g int, kind fleet.StopKind, pos geo.Point, lengthSoFar float64) {
	leg := 0.0
	if len(s.order) == 0 {
		if s.start != nil {
			leg = s.metric.Distance(*s.start, pos)
		}
	} else {
		leg = s.metric.Distance(s.order[len(s.order)-1].pos, pos)
	}
	s.order = append(s.order, searchStop{g: g, kind: kind, pos: pos})
	if kind == fleet.StopPickup {
		s.picked[g] = true
	} else {
		s.dropped[g] = true
	}

	s.extend(lengthSoFar + leg)

	s.order = s.order[:len(s.order)-1]
	if kind == fleet.StopPickup {
		s.picked[g] = false
	} else {
		s.dropped[g] = false
	}
}

// record captures the current complete order as the incumbent best plan.
func (s *routeSearch) record(length float64) {
	plan := RoutePlan{
		Stops:        make([]fleet.Stop, len(s.order)),
		Length:       length,
		PickupOffset: make([]float64, len(s.reqs)),
		OnBoard:      make([]float64, len(s.reqs)),
	}

	// Walk the route accumulating distance from the first stop; the
	// optional taxi lead-in is excluded from offsets by construction.
	dist := 0.0
	load, maxLoad := 0, 0
	var pickupAt = make([]float64, len(s.reqs))
	for i, st := range s.order {
		if i > 0 {
			dist += s.metric.Distance(s.order[i-1].pos, st.pos)
		}
		g, seats := st.g, s.reqs[st.g].SeatCount()
		plan.Stops[i] = fleet.Stop{RequestID: s.reqs[g].ID, Kind: st.kind, Pos: st.pos, Seats: seats}
		if st.kind == fleet.StopPickup {
			plan.PickupOffset[g] = dist
			pickupAt[g] = dist
			load += seats
			if load > maxLoad {
				maxLoad = load
			}
		} else {
			plan.OnBoard[g] = dist - pickupAt[g]
			load -= seats
		}
	}
	plan.MaxLoad = maxLoad
	s.best = plan
}
