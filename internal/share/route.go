// Package share implements the sharing taxi dispatch of §V: exhaustive
// shared-route planning (the general problem is NP-hard by Theorem 5, but
// groups have at most three requests, so at most 6!/2³ = 90 stop orders
// exist), feasible-group generation under the detour bound θ, the maximum
// set packing stage (Eqs. 1–3, via package setpack), and the refined
// interest models that turn packed groups into a pref.Market for
// Algorithm 1.
//
// Group formation, unit building and market construction read every
// pickup-pair, solo-trip and taxi→pickup distance from the frame's
// costplane.Plane (FeasibleGroupsPlane, PackPlane, UnitsPlane,
// SingleUnitPlane, BuildMarketPlane). Pack is the one metric
// convenience: it builds a taxi-less plane and calls PackPlane.
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
	k := len(reqs)
	if k == 0 {
		return RoutePlan{}, ErrNoRequests
	}
	if k > MaxGroupSize {
		return RoutePlan{}, fmt.Errorf("share: group of %d exceeds the exhaustive-search limit %d", k, MaxGroupSize)
	}
	var s routeSearch
	s.run(reqs, m)
	if !s.found() {
		return RoutePlan{}, errNoOrder(k)
	}
	return s.plan(reqs), nil
}

// errNoOrder reports a group whose every stop order has an infinite
// length.
func errNoOrder(k int) error {
	return fmt.Errorf("share: no feasible stop order for %d requests", k)
}

// maxStops is the length of the longest stop order: a pickup and a
// drop-off per member.
const maxStops = 2 * MaxGroupSize

// routeSearch enumerates a group's stop orders depth-first with
// branch-and-bound on the accumulated distance. Stop s is member s/2's
// pickup when s is even and its drop-off when s is odd. The directed leg
// table is filled once per group, so each order costs table reads, not
// metric calls; road metrics need not be symmetric.
type routeSearch struct {
	k      int
	legs   [maxStops][maxStops]float64 // legs[a][b] = D(stop a, stop b)
	stage  [MaxGroupSize]int8          // per member: 0 waiting, 1 on board, 2 dropped off
	order  [maxStops]int8              // the order under search, depth stops deep
	depth  int
	best   [maxStops]int8 // the shortest complete order found
	length float64        // best's length; +Inf until an order completes
}

// run searches the stop orders of reqs, 1 ≤ len(reqs) ≤ MaxGroupSize.
func (s *routeSearch) run(reqs []fleet.Request, m geo.Metric) {
	s.k = len(reqs)
	var pos [maxStops]geo.Point
	for g, r := range reqs {
		pos[2*g], pos[2*g+1] = r.Pickup, r.Dropoff
	}
	for a := 0; a < 2*s.k; a++ {
		for b := 0; b < 2*s.k; b++ {
			// No order revisits a stop or follows a drop-off with its
			// own pickup.
			if a != b && (a%2 == 0 || b != a-1) {
				s.legs[a][b] = m.Distance(pos[a], pos[b])
			}
		}
	}
	s.stage = [MaxGroupSize]int8{}
	s.depth = 0
	s.length = math.Inf(1)
	s.extend(0)
}

// found reports whether some stop order has a finite length.
func (s *routeSearch) found() bool { return !math.IsInf(s.length, 1) }

func (s *routeSearch) extend(length float64) {
	if length >= s.length {
		return // bound: already no better than the incumbent
	}
	if s.depth == 2*s.k {
		s.best, s.length = s.order, length
		return
	}
	for g := 0; g < s.k; g++ {
		if s.stage[g] == 2 {
			continue
		}
		stop := int8(2*g) + s.stage[g]
		leg := 0.0 // the route is measured from its first stop
		if s.depth > 0 {
			leg = s.legs[s.order[s.depth-1]][stop]
		}
		s.order[s.depth] = stop
		s.depth++
		s.stage[g]++
		s.extend(length + leg)
		s.depth--
		s.stage[g]--
	}
}

// walk follows the best order from its first stop and returns each
// member's pickup offset and on-board distance, and the peak seat load.
func (s *routeSearch) walk(reqs []fleet.Request) (pickup, onBoard [MaxGroupSize]float64, maxLoad int) {
	dist, load := 0.0, 0
	for i, stop := range s.best[:2*s.k] {
		if i > 0 {
			dist += s.legs[s.best[i-1]][stop]
		}
		g, seats := stop/2, reqs[stop/2].SeatCount()
		if stop%2 == 0 {
			pickup[g] = dist
			load += seats
			maxLoad = max(maxLoad, load)
		} else {
			onBoard[g] = dist - pickup[g]
			load -= seats
		}
	}
	return pickup, onBoard, maxLoad
}

// plan builds the RoutePlan of the best order.
func (s *routeSearch) plan(reqs []fleet.Request) RoutePlan {
	k := s.k
	pickup, onBoard, maxLoad := s.walk(reqs)
	offsets := make([]float64, 2*k)
	copy(offsets, pickup[:k])
	copy(offsets[k:], onBoard[:k])
	plan := RoutePlan{
		Stops:        make([]fleet.Stop, 2*k),
		Length:       s.length,
		PickupOffset: offsets[:k:k],
		OnBoard:      offsets[k:],
		MaxLoad:      maxLoad,
	}
	for i, stop := range s.best[:2*k] {
		r := reqs[stop/2]
		kind, pos := fleet.StopPickup, r.Pickup
		if stop%2 == 1 {
			kind, pos = fleet.StopDropoff, r.Dropoff
		}
		plan.Stops[i] = fleet.Stop{RequestID: r.ID, Kind: kind, Pos: pos, Seats: r.SeatCount()}
	}
	return plan
}
