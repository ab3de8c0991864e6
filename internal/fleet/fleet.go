// Package fleet defines the domain model shared by every dispatcher and
// the simulator: passenger requests, taxis, route stops, and assignments.
package fleet

import (
	"fmt"

	"stabledispatch/internal/geo"
)

// Request is a passenger request r_j = (r_j^s, r_j^d): a pickup and
// drop-off location, the frame it was issued in, and the number of seats
// it needs.
type Request struct {
	ID      int
	Pickup  geo.Point
	Dropoff geo.Point
	Frame   int // frame (minute) the request was issued
	Seats   int // passengers travelling together; 0 is treated as 1
}

// SeatCount returns the number of seats the request occupies (minimum 1).
func (r Request) SeatCount() int {
	if r.Seats < 1 {
		return 1
	}
	return r.Seats
}

// TripDistance returns D(r^s, r^d) under the metric.
func (r Request) TripDistance(m geo.Metric) float64 {
	return m.Distance(r.Pickup, r.Dropoff)
}

// String implements fmt.Stringer.
func (r Request) String() string {
	return fmt.Sprintf("r%d[%v->%v @%d]", r.ID, r.Pickup, r.Dropoff, r.Frame)
}

// TaxiStatus describes what a taxi is currently doing.
type TaxiStatus int

// Taxi lifecycle states.
const (
	TaxiIdle TaxiStatus = iota + 1
	TaxiEnRoute
)

// String implements fmt.Stringer.
func (s TaxiStatus) String() string {
	switch s {
	case TaxiIdle:
		return "idle"
	case TaxiEnRoute:
		return "enroute"
	default:
		return fmt.Sprintf("TaxiStatus(%d)", int(s))
	}
}

// Taxi is a privately owned vehicle t_i with a current location.
type Taxi struct {
	ID     int
	Pos    geo.Point
	Seats  int // capacity; 0 is treated as the default of 4
	Status TaxiStatus
}

// Capacity returns the seat capacity of the taxi (default 4).
func (t Taxi) Capacity() int {
	if t.Seats < 1 {
		return 4
	}
	return t.Seats
}

// String implements fmt.Stringer.
func (t Taxi) String() string {
	return fmt.Sprintf("t%d[%v %v]", t.ID, t.Pos, t.Status)
}

// StopKind distinguishes pickup stops from drop-off stops on a route.
type StopKind int

// Stop kinds.
const (
	StopPickup StopKind = iota + 1
	StopDropoff
)

// String implements fmt.Stringer.
func (k StopKind) String() string {
	switch k {
	case StopPickup:
		return "pickup"
	case StopDropoff:
		return "dropoff"
	default:
		return fmt.Sprintf("StopKind(%d)", int(k))
	}
}

// Stop is one waypoint on a taxi route, tied to a request. Seats is the
// request's party size (Request.SeatCount): the seats that board at a
// pickup or free up at a drop-off, so a route alone yields the taxi's
// load profile.
type Stop struct {
	RequestID int
	Kind      StopKind
	Pos       geo.Point
	Seats     int
}

// String implements fmt.Stringer.
func (s Stop) String() string {
	return fmt.Sprintf("%v(r%d)@%v", s.Kind, s.RequestID, s.Pos)
}

// Assignment dispatches one taxi to serve one or more requests along the
// given stop sequence. Non-sharing dispatchers emit assignments with a
// single request (pickup then drop-off); sharing dispatchers may emit up
// to three requests with an interleaved stop order.
type Assignment struct {
	TaxiID   int
	Requests []int  // request IDs served, in preference-model order
	Route    []Stop // stop sequence the taxi will follow
}

// Validate checks structural invariants: every request appears exactly
// once as a pickup and once as a drop-off, and each pickup precedes its
// drop-off.
func (a Assignment) Validate() error {
	if len(a.Requests) == 0 {
		return fmt.Errorf("fleet: assignment for taxi %d has no requests", a.TaxiID)
	}
	pickupAt := make(map[int]int, len(a.Requests))
	dropAt := make(map[int]int, len(a.Requests))
	for i, s := range a.Route {
		switch s.Kind {
		case StopPickup:
			if _, dup := pickupAt[s.RequestID]; dup {
				return fmt.Errorf("fleet: duplicate pickup for request %d", s.RequestID)
			}
			pickupAt[s.RequestID] = i
		case StopDropoff:
			if _, dup := dropAt[s.RequestID]; dup {
				return fmt.Errorf("fleet: duplicate dropoff for request %d", s.RequestID)
			}
			dropAt[s.RequestID] = i
		default:
			return fmt.Errorf("fleet: stop %d has invalid kind %v", i, s.Kind)
		}
	}
	for _, id := range a.Requests {
		pi, ok := pickupAt[id]
		if !ok {
			return fmt.Errorf("fleet: request %d has no pickup stop", id)
		}
		di, ok := dropAt[id]
		if !ok {
			return fmt.Errorf("fleet: request %d has no dropoff stop", id)
		}
		if pi >= di {
			return fmt.Errorf("fleet: request %d drop-off precedes pickup", id)
		}
	}
	if len(pickupAt) != len(a.Requests) || len(dropAt) != len(a.Requests) {
		return fmt.Errorf("fleet: route serves %d pickups / %d dropoffs for %d requests",
			len(pickupAt), len(dropAt), len(a.Requests))
	}
	return nil
}

// SingleRide returns the canonical non-sharing assignment: drive to the
// request's pickup, then to its drop-off.
func SingleRide(taxiID int, r Request) Assignment {
	return Assignment{
		TaxiID:   taxiID,
		Requests: []int{r.ID},
		Route: []Stop{
			{RequestID: r.ID, Kind: StopPickup, Pos: r.Pickup, Seats: r.SeatCount()},
			{RequestID: r.ID, Kind: StopDropoff, Pos: r.Dropoff, Seats: r.SeatCount()},
		},
	}
}

// RouteLength returns the total travel distance of the route starting
// from the taxi position `from`, under metric m.
func RouteLength(from geo.Point, route []Stop, m geo.Metric) float64 {
	total := 0.0
	cur := from
	for _, s := range route {
		total += m.Distance(cur, s.Pos)
		cur = s.Pos
	}
	return total
}
