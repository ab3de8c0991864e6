package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

// scriptedDispatcher returns canned assignments per frame number.
type scriptedDispatcher struct {
	name  string
	plans map[int][]fleet.Assignment
	calls int
}

func (d *scriptedDispatcher) Name() string {
	if d.name == "" {
		return "scripted"
	}
	return d.name
}

func (d *scriptedDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	d.calls++
	return d.plans[f.Number], nil
}

// nearestDispatcher assigns every pending request to the closest idle
// taxi, one per frame at most.
type nearestDispatcher struct{}

func (nearestDispatcher) Name() string { return "nearest" }

func (nearestDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	var out []fleet.Assignment
	used := make(map[int]bool)
	for _, r := range f.Requests {
		best, bestDist := -1, math.Inf(1)
		for i, v := range f.Taxis {
			if !v.Idle || used[i] {
				continue
			}
			if d := f.Metric.Distance(v.Pos, r.Pickup); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, fleet.SingleRide(f.Taxis[best].ID, r))
		}
	}
	return out, nil
}

// routeStop is r's pickup or drop-off stop.
func routeStop(r fleet.Request, kind fleet.StopKind) fleet.Stop {
	pos := r.Pickup
	if kind == fleet.StopDropoff {
		pos = r.Dropoff
	}
	return fleet.Stop{RequestID: r.ID, Kind: kind, Pos: pos, Seats: r.SeatCount()}
}

func singleTaxi(pos geo.Point) []fleet.Taxi {
	return []fleet.Taxi{{ID: 0, Pos: pos}}
}

func simpleConfig(d Dispatcher) Config {
	return Config{
		Dispatcher: d,
		Params:     pref.Unbounded(),
		SpeedKmH:   60, // 1 km per minute: easy arithmetic
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Error("New accepted a config without dispatcher")
	}
	cfg := simpleConfig(nearestDispatcher{})
	if _, err := New(cfg, []fleet.Taxi{{ID: 1}, {ID: 1}}, nil); err == nil {
		t.Error("New accepted duplicate taxi IDs")
	}
	reqs := []fleet.Request{{ID: 5}, {ID: 5}}
	if _, err := New(cfg, singleTaxi(geo.Point{}), reqs); err == nil {
		t.Error("New accepted duplicate request IDs")
	}
	bad := cfg
	bad.Params = pref.Params{Alpha: -1}
	if _, err := New(bad, nil, nil); err == nil {
		t.Error("New accepted invalid params")
	}
}

func TestSingleRideLifecycle(t *testing.T) {
	// Taxi at origin, request 2 km away travelling 3 km; 1 km/frame.
	reqs := []fleet.Request{{
		ID:      1,
		Pickup:  geo.Point{X: 2},
		Dropoff: geo.Point{X: 5},
		Frame:   0,
	}}
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Requests) != 1 {
		t.Fatalf("got %d request outcomes", len(rep.Requests))
	}
	o := rep.Requests[0]
	if !o.Served {
		t.Fatal("request not served")
	}
	if o.AssignFrame != 0 {
		t.Errorf("AssignFrame = %d, want 0", o.AssignFrame)
	}
	// 2 km at 1 km/frame: arrives during frame 1 (moves at end of
	// frames 0 and 1).
	if o.PickupFrame != 1 {
		t.Errorf("PickupFrame = %d, want 1", o.PickupFrame)
	}
	// 3 more km: drop-off during frame 4.
	if o.DropoffFrame != 4 {
		t.Errorf("DropoffFrame = %d, want 4", o.DropoffFrame)
	}
	if math.Abs(o.PassengerDiss-2) > 1e-9 {
		t.Errorf("PassengerDiss = %v, want 2", o.PassengerDiss)
	}
	if len(rep.Episodes) != 1 {
		t.Fatalf("got %d episodes", len(rep.Episodes))
	}
	// Taxi dissatisfaction: D - alpha*trip = 2 - 3 = -1.
	if math.Abs(rep.Episodes[0].Dissatisfaction-(-1)) > 1e-9 {
		t.Errorf("taxi dissatisfaction = %v, want -1", rep.Episodes[0].Dissatisfaction)
	}
	if delay, ok := o.DispatchDelay(); !ok || delay != 0 {
		t.Errorf("DispatchDelay = %v, %v", delay, ok)
	}
}

func TestDispatchDelayAccumulates(t *testing.T) {
	// One taxi, two requests arriving together: the second waits until
	// the taxi finishes the first ride.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 3}, Frame: 0},
	}
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 2 {
		t.Fatalf("served %d, want 2", rep.ServedCount())
	}
	first, second := rep.Requests[0], rep.Requests[1]
	if first.AssignFrame != 0 {
		t.Errorf("first AssignFrame = %d, want 0", first.AssignFrame)
	}
	if second.AssignFrame <= first.DropoffFrame-1 {
		t.Errorf("second assigned at %d, before taxi freed (~%d)", second.AssignFrame, first.DropoffFrame)
	}
	delays := rep.DispatchDelays()
	if len(delays) != 2 || delays[1] <= 0 {
		t.Errorf("delays = %v, want the second positive", delays)
	}
}

func TestUnservedRequestsReported(t *testing.T) {
	// No taxis at all: requests are never served.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.DrainFrames = 5
	s, err := New(cfg, nil, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.UnservedCount() != 1 || rep.ServedCount() != 0 {
		t.Errorf("served/unserved = %d/%d", rep.ServedCount(), rep.UnservedCount())
	}
	if _, ok := rep.Requests[0].DispatchDelay(); ok {
		t.Error("unserved request reported a dispatch delay")
	}
}

func TestLateArrivalsHeldBack(t *testing.T) {
	// A request arriving at frame 3 must not be dispatched earlier.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 3}}
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Requests[0].AssignFrame != 3 {
		t.Errorf("AssignFrame = %d, want 3", rep.Requests[0].AssignFrame)
	}
}

func TestSharedRideLifecycle(t *testing.T) {
	// Scripted shared assignment: pickup both riders, drop both.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 4}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}, Frame: 0},
	}
	route := []fleet.Stop{
		{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopPickup, Pos: reqs[1].Pickup, Seats: 1},
		{RequestID: 1, Kind: fleet.StopDropoff, Pos: reqs[0].Dropoff, Seats: 1},
		{RequestID: 2, Kind: fleet.StopDropoff, Pos: reqs[1].Dropoff, Seats: 1},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {{TaxiID: 0, Requests: []int{1, 2}, Route: route}},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 2 {
		t.Fatalf("served %d, want 2", rep.ServedCount())
	}
	if rep.SharedRideCount() != 1 {
		t.Errorf("SharedRideCount = %d, want 1", rep.SharedRideCount())
	}
	if len(rep.Episodes) != 1 || rep.Episodes[0].Requests != 2 {
		t.Fatalf("episodes = %+v", rep.Episodes)
	}
	// Episode: total drive 5 km, trips 3+3=6; diss = 5 - 2*6 = -7 with
	// alpha=1.
	if math.Abs(rep.Episodes[0].Dissatisfaction-(-7)) > 1e-9 {
		t.Errorf("episode dissatisfaction = %v, want -7", rep.Episodes[0].Dissatisfaction)
	}
	// Rider 1: wait 1 km, onboard 3 (1->2->4), solo 3, detour 0 => 1.
	if math.Abs(rep.Requests[0].PassengerDiss-1) > 1e-9 {
		t.Errorf("rider 1 diss = %v, want 1", rep.Requests[0].PassengerDiss)
	}
	// Rider 2: wait 2 km, onboard 3 (2->4->5), solo 3 => 2.
	if math.Abs(rep.Requests[1].PassengerDiss-2) > 1e-9 {
		t.Errorf("rider 2 diss = %v, want 2", rep.Requests[1].PassengerDiss)
	}
}

func TestInsertionIntoBusyTaxi(t *testing.T) {
	// Frame 0: taxi gets rider 1. Frame 1: rider 2 spliced into the
	// route while the taxi is en route.
	// At 1 km/frame the taxi is at x=1 when frame 1 dispatch runs, so
	// rider 1 (pickup x=2) is still awaiting pickup and stays in the
	// replacement route.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 9}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 8}, Frame: 1},
	}
	insertedRoute := []fleet.Stop{
		{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopPickup, Pos: reqs[1].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopDropoff, Pos: reqs[1].Dropoff, Seats: 1},
		{RequestID: 1, Kind: fleet.StopDropoff, Pos: reqs[0].Dropoff, Seats: 1},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {fleet.SingleRide(0, reqs[0])},
		1: {{TaxiID: 0, Requests: []int{2}, Route: insertedRoute}},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 2 {
		t.Fatalf("served %d, want 2", rep.ServedCount())
	}
	if len(rep.Episodes) != 1 || rep.Episodes[0].Requests != 2 {
		t.Fatalf("episodes = %+v, want one shared episode", rep.Episodes)
	}
	if rep.Requests[1].PickupFrame < 0 || rep.Requests[1].DropoffFrame < 0 {
		t.Error("inserted rider never completed")
	}
	// Rider 1 must still be dropped at x=9.
	if rep.Requests[0].DropoffFrame < rep.Requests[1].DropoffFrame {
		t.Error("rider 1 dropped before rider 2 despite the inserted route order")
	}
}

func TestApplyRejectsInvalidAssignments(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
	}
	tests := []struct {
		name    string
		plan    fleet.Assignment
		wantErr string
	}{
		{
			name:    "unknown taxi",
			plan:    fleet.SingleRide(99, reqs[0]),
			wantErr: "unknown taxi",
		},
		{
			name:    "unknown request",
			plan:    fleet.SingleRide(0, fleet.Request{ID: 42, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}),
			wantErr: "unknown request",
		},
		{
			name: "no requests",
			plan: fleet.Assignment{TaxiID: 0},

			wantErr: "no requests",
		},
		{
			name: "missing dropoff",
			plan: fleet.Assignment{
				TaxiID:   0,
				Requests: []int{1},
				Route:    []fleet.Stop{{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1}},
			},
			wantErr: "misses drop-off",
		},
		{
			name: "dropoff before pickup",
			plan: fleet.Assignment{
				TaxiID:   0,
				Requests: []int{1},
				Route: []fleet.Stop{
					{RequestID: 1, Kind: fleet.StopDropoff, Pos: reqs[0].Dropoff, Seats: 1},
					{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1},
				},
			},
			wantErr: "before pickup",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{0: {tt.plan}}}
			s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			_, err = s.Run()
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Run err = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestApplyRejectsDoubleTaxiUse(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 3}, Frame: 0},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {fleet.SingleRide(0, reqs[0]), fleet.SingleRide(0, reqs[1])},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "assigned twice") {
		t.Errorf("Run err = %v, want 'assigned twice'", err)
	}
}

func TestApplyRejectsOverCapacity(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0, Seats: 5},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {fleet.SingleRide(0, reqs[0])},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("Run err = %v, want capacity error", err)
	}
}

func TestFrameViewConsistency(t *testing.T) {
	// Two two-seat riders share taxi 0 (route P1 P2 D2 D1); rider 3 is
	// far away and never assigned, so the dispatcher sees every frame.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 9}, Frame: 0, Seats: 2},
		{ID: 2, Pickup: geo.Point{X: 6}, Dropoff: geo.Point{X: 8}, Frame: 0, Seats: 2},
		{ID: 3, Pickup: geo.Point{Y: 50}, Dropoff: geo.Point{Y: 51}, Frame: 1},
	}
	shared := fleet.Assignment{TaxiID: 0, Requests: []int{1, 2}, Route: []fleet.Stop{
		routeStop(reqs[0], fleet.StopPickup), routeStop(reqs[1], fleet.StopPickup),
		routeStop(reqs[1], fleet.StopDropoff), routeStop(reqs[0], fleet.StopDropoff),
	}}
	// A frame is valid only until the next Step, which builds into its
	// storage, so each capture copies what it needs at hand-over; taxi
	// 0's view keeps the simulator's own Route, which must stay valid.
	type capture struct {
		number, requests int
		taxi             TaxiView     // taxi 0's view, Route shared
		installed        []fleet.Stop // taxi 0's route cloned at hand-over
	}
	var captured []capture
	d := &capturingDispatcher{
		inner: &scriptedDispatcher{plans: map[int][]fleet.Assignment{0: {shared}}},
		onCapture: func(f *Frame) {
			captured = append(captured, capture{f.Number, len(f.Requests), f.Taxis[0], slices.Clone(f.Taxis[0].Route)})
		},
	}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	step := func() {
		t.Helper()
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	step() // frame 0: the shared ride is installed
	step() // frame 1: captured with the full four-stop route
	// Rider 1 cancels: its stops leave the route, which must not rewrite
	// the route frame 1 still holds.
	if err := s.CancelRequest(1); err != nil {
		t.Fatalf("CancelRequest: %v", err)
	}
	for i := 0; s.byID[0].load == 0; i++ { // until rider 2 is on board
		if i == 10 {
			t.Fatal("rider 2 never boarded")
		}
		step()
	}
	if err := s.InjectBreakdown(0, 5); err != nil {
		t.Fatalf("InjectBreakdown: %v", err)
	}
	step()

	if len(captured) < 4 {
		t.Fatalf("captured %d frames, want at least 4", len(captured))
	}
	if f0 := captured[0]; f0.requests != 2 || !f0.taxi.Idle {
		t.Errorf("frame 0 = %d requests, taxi %+v; want riders 1 and 2 and an idle taxi", f0.requests, f0.taxi)
	}
	if got := len(captured[1].taxi.Route); got != 4 {
		t.Errorf("frame 1 route has %d stops, want 4", got)
	}
	if got := captured[len(captured)-1].taxi; !got.Offline || len(got.Route) != 0 {
		t.Errorf("frame after breakdown: taxi = %+v, want offline with no route", got)
	}
	for _, c := range captured {
		route := c.taxi.Route
		if !slices.Equal(route, c.installed) {
			t.Errorf("frame %d route = %v after later steps, want %v as captured", c.number, route, c.installed)
		}
		for _, stop := range route {
			if stop.Seats != 2 {
				t.Errorf("frame %d stop %v carries %d seats, want 2", c.number, stop, stop.Seats)
			}
		}
	}
}

// capturingDispatcher calls onCapture with every frame it is handed and
// delegates to inner.
type capturingDispatcher struct {
	inner     Dispatcher
	onCapture func(*Frame)
}

func (d *capturingDispatcher) Name() string { return "capturing" }

func (d *capturingDispatcher) Dispatch(f *Frame) ([]fleet.Assignment, error) {
	d.onCapture(f)
	return d.inner.Dispatch(f)
}

func TestApplyRejectsDuplicateRequest(t *testing.T) {
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0}}
	twice := fleet.SingleRide(0, reqs[0])
	twice.Requests = []int{1, 1}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{0: {twice}}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Step(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("Step err = %v, want the duplicate request rejected", err)
	}
	if len(s.assignments) != 0 {
		t.Errorf("recorded %+v for a rejected assignment", s.assignments)
	}
}

// TestViewAllocationsIndependentOfFleet pins view's allocation count: it
// shares each taxi's route instead of copying it and builds no maps, so
// a 700-taxi busy fleet costs as many allocations as a 7-taxi one.
func TestViewAllocationsIndependentOfFleet(t *testing.T) {
	allocs := func(n int) float64 {
		var taxis []fleet.Taxi
		var reqs []fleet.Request
		plans := map[int][]fleet.Assignment{}
		for i := 0; i < n; i++ {
			x := float64(i)
			taxis = append(taxis, fleet.Taxi{ID: i, Pos: geo.Point{X: x}})
			r := fleet.Request{ID: i, Pickup: geo.Point{X: x, Y: 5}, Dropoff: geo.Point{X: x, Y: 10}}
			reqs = append(reqs, r)
			plans[0] = append(plans[0], fleet.SingleRide(i, r))
		}
		// One more rider arriving later keeps the queue non-empty.
		reqs = append(reqs, fleet.Request{ID: n, Pickup: geo.Point{Y: 90}, Dropoff: geo.Point{Y: 95}, Frame: 1})
		s, err := New(simpleConfig(&scriptedDispatcher{plans: plans}), taxis, reqs)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		for _, v := range s.TaxiViews() {
			if v.Idle || len(v.Route) == 0 {
				t.Fatalf("taxi %d is not busy: %+v", v.ID, v)
			}
		}
		return testing.AllocsPerRun(20, func() { s.view() })
	}
	if small, large := allocs(7), allocs(700); small != large {
		t.Errorf("view allocates %v times over 7 busy taxis but %v over 700", small, large)
	}
}

func TestDispatcherErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	d := &errorDispatcher{err: wantErr}
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); !errors.Is(err, wantErr) {
		t.Errorf("Run err = %v, want wrapped boom", err)
	}
}

type errorDispatcher struct{ err error }

func (d *errorDispatcher) Name() string { return "error" }

func (d *errorDispatcher) Dispatch(*Frame) ([]fleet.Assignment, error) { return nil, d.err }

func TestNoDispatchCallWithoutPendingRequests(t *testing.T) {
	d := &scriptedDispatcher{plans: nil}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.calls != 0 {
		t.Errorf("dispatcher called %d times with no requests", d.calls)
	}
}

func TestDrainDeadlineStopsRun(t *testing.T) {
	// A dispatcher that never assigns: the run must still end.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	d := &scriptedDispatcher{plans: nil}
	cfg := simpleConfig(d)
	cfg.DrainFrames = 3
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Frames > 5 {
		t.Errorf("ran %d frames, want <= 5", rep.Frames)
	}
	if rep.UnservedCount() != 1 {
		t.Errorf("unserved = %d, want 1", rep.UnservedCount())
	}
}

func TestIdleTaxisHelper(t *testing.T) {
	f := &Frame{Taxis: []TaxiView{
		{ID: 0, Idle: true},
		{ID: 1, Idle: false},
		{ID: 2, Idle: true},
	}}
	idle := f.IdleTaxis()
	if len(idle) != 2 || cap(idle) != 2 || idle[0].ID != 0 || idle[1].ID != 2 {
		t.Errorf("IdleTaxis = %+v (cap %d)", idle, cap(idle))
	}
	taxis := f.IdleFleet()
	if len(taxis) != 2 || cap(taxis) != 2 || taxis[0].ID != 0 || taxis[1].ID != 2 || taxis[1].Status != fleet.TaxiIdle {
		t.Errorf("IdleFleet = %+v (cap %d)", taxis, cap(taxis))
	}
}

// TestCertificateReadsReportedMarket pins that a traced frame's
// certificate audits the market its dispatcher reported matching on
// (Frame.ReportMarket) and builds none of its own: certified against a
// reported market whose taxis sit swapped, the frame's own stable
// matching reads as unstable. A degraded frame drops its report, and
// one that arrives later, and is audited on the §IV-A market the
// simulator builds in its own storage.
func TestCertificateReadsReportedMarket(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 10, Pickup: geo.Point{X: 0, Y: 0}, Dropoff: geo.Point{X: 0, Y: 8}},
		{ID: 11, Pickup: geo.Point{X: 4, Y: 0}, Dropoff: geo.Point{X: 4, Y: 8}},
	}
	frame := func(x0, x1 float64) *Frame {
		return &Frame{
			Number:   1,
			Requests: reqs,
			Taxis: []TaxiView{
				{ID: 0, Pos: geo.Point{X: x0, Y: 0.5}, Idle: true},
				{ID: 1, Pos: geo.Point{X: x1, Y: 0.5}, Idle: true},
			},
			Metric: geo.EuclidMetric,
			Params: pref.DefaultParams(),
			Tracer: dtrace.New(0),
		}
	}
	market := func(f *Frame) *pref.Market {
		inst, err := pref.FromPlane(pref.Plane(nil, f.Requests, f.IdleFleet(), f.Metric, f.Params, 1), f.Params)
		if err != nil {
			t.Fatal(err)
		}
		return &inst.Market
	}
	certify := func(f *Frame) (dtrace.Certificate, *Simulator) {
		s := new(Simulator)
		s.certifyFrame(f.Tracer, f, []fleet.Assignment{fleet.SingleRide(0, reqs[0]), fleet.SingleRide(1, reqs[1])})
		c, ok := f.Tracer.Certificate(1)
		if !ok {
			t.Fatal("frame not certified")
		}
		return c, s
	}

	f := frame(0, 4)
	mk := market(f)
	if m := stable.PassengerOptimal(mk); !slices.Equal(m.ReqPartner, []int{0, 1}) {
		t.Fatalf("Algorithm 1 matched %v, want each request to the taxi beside it", m.ReqPartner)
	}
	f.ReportMarket(mk, nil)
	if c, s := certify(f); !c.Stable || c.Matched != 2 {
		t.Fatalf("Algorithm 1's matching certified unstable: %+v", c)
	} else if s.audit.Plane != nil || s.audit.Instance != nil {
		t.Fatal("the certificate of a reported frame built a plane of its own")
	}

	g := frame(0, 4)
	g.ReportMarket(market(frame(4, 0)), nil)
	if c, _ := certify(g); c.Stable || c.ViolationsTotal == 0 {
		t.Fatalf("certificate ignored the reported market: %+v", c)
	}

	h := frame(0, 4)
	h.ReportMarket(market(frame(4, 0)), nil)
	h.NoteDegraded("error", "primary failed")
	h.ReportMarket(market(frame(4, 0)), nil)
	c, s := certify(h)
	if !c.Stable || c.Matched != 2 || len(c.Notes) == 0 || !strings.HasPrefix(c.Notes[0], "degraded dispatch") {
		t.Fatalf("degraded frame audited on a dropped report: %+v", c)
	}
	if s.audit.Instance == nil {
		t.Fatal("degraded frame's certificate built no §IV-A market of its own")
	}
}

func TestTaxiViewCapacity(t *testing.T) {
	if got := (TaxiView{}).Capacity(); got != 4 {
		t.Errorf("default capacity = %d", got)
	}
	if got := (TaxiView{Seats: 2}).Capacity(); got != 2 {
		t.Errorf("capacity = %d, want 2", got)
	}
}

func TestAssignmentDissatisfactionMatchesPaperFormulas(t *testing.T) {
	// Solo dispatch from idle: diss = D(t, r^s) - alpha*D(r^s, r^d).
	reqs := []fleet.Request{{
		ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}, Frame: 0,
	}}
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(rep.Assignments))
	}
	a := rep.Assignments[0]
	if math.Abs(a.Dissatisfaction-(2-3)) > 1e-9 {
		t.Errorf("solo assignment diss = %v, want -1", a.Dissatisfaction)
	}
	if a.Shared || a.Requests != 1 || a.Frame != 0 || a.TaxiID != 0 {
		t.Errorf("assignment outcome = %+v", a)
	}
	got := rep.TaxiDissatisfactions()
	if len(got) != 1 || math.Abs(got[0]-(-1)) > 1e-9 {
		t.Errorf("TaxiDissatisfactions = %v", got)
	}
}

func TestSharedAssignmentDissatisfaction(t *testing.T) {
	// Fresh shared group: diss = D_ck(t) - (alpha+1) * sum trips.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 4}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 5}, Frame: 0},
	}
	route := []fleet.Stop{
		{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopPickup, Pos: reqs[1].Pickup, Seats: 1},
		{RequestID: 1, Kind: fleet.StopDropoff, Pos: reqs[0].Dropoff, Seats: 1},
		{RequestID: 2, Kind: fleet.StopDropoff, Pos: reqs[1].Dropoff, Seats: 1},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {{TaxiID: 0, Requests: []int{1, 2}, Route: route}},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(rep.Assignments))
	}
	a := rep.Assignments[0]
	// Total drive 5 km, trips 3 + 3: 5 - 2*6 = -7.
	if math.Abs(a.Dissatisfaction-(-7)) > 1e-9 {
		t.Errorf("shared assignment diss = %v, want -7", a.Dissatisfaction)
	}
	if !a.Shared || a.Requests != 2 {
		t.Errorf("assignment outcome = %+v", a)
	}
}

func TestInsertionAssignmentIsMarginal(t *testing.T) {
	// Insertion into a busy taxi must record the marginal added
	// distance, not the whole route again.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 9}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 8}, Frame: 1},
	}
	insertedRoute := []fleet.Stop{
		{RequestID: 1, Kind: fleet.StopPickup, Pos: reqs[0].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopPickup, Pos: reqs[1].Pickup, Seats: 1},
		{RequestID: 2, Kind: fleet.StopDropoff, Pos: reqs[1].Dropoff, Seats: 1},
		{RequestID: 1, Kind: fleet.StopDropoff, Pos: reqs[0].Dropoff, Seats: 1},
	}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {fleet.SingleRide(0, reqs[0])},
		1: {{TaxiID: 0, Requests: []int{2}, Route: insertedRoute}},
	}}
	s, err := New(simpleConfig(d), singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Assignments) != 2 {
		t.Fatalf("assignments = %d, want 2", len(rep.Assignments))
	}
	// First: from (0,0), D=2, trip 7: 2 - 7 = -5.
	if math.Abs(rep.Assignments[0].Dissatisfaction-(-5)) > 1e-9 {
		t.Errorf("first diss = %v, want -5", rep.Assignments[0].Dissatisfaction)
	}
	// Second, from x=1: old remaining route length 8 (to pickup 2,
	// dropoff 9); new route length 1+1+5+1 = 8; added 0; trip 5:
	// 0 - 2*5 = -10.
	second := rep.Assignments[1]
	if math.Abs(second.Dissatisfaction-(-10)) > 1e-9 {
		t.Errorf("insertion diss = %v, want -10", second.Dissatisfaction)
	}
	if !second.Shared {
		t.Error("insertion not flagged as shared")
	}
}

func TestPatienceExpiresRequests(t *testing.T) {
	// No taxis: with a 3-frame patience the request abandons quickly
	// instead of waiting out the drain window.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 3
	cfg.DrainFrames = 30
	s, err := New(cfg, nil, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 0 || rep.AbandonedCount() != 1 {
		t.Errorf("served/abandoned = %d/%d, want 0/1", rep.ServedCount(), rep.AbandonedCount())
	}
	if !rep.Requests[0].Abandoned {
		t.Error("outcome not flagged abandoned")
	}
}

func TestPatienceDoesNotExpireFreshRequests(t *testing.T) {
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 10
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() != 1 || rep.AbandonedCount() != 0 {
		t.Errorf("served/abandoned = %d/%d, want 1/0", rep.ServedCount(), rep.AbandonedCount())
	}
}

func TestOutageBlocksDispatch(t *testing.T) {
	// One taxi, offline for frames [0, 5): the request must wait until
	// the outage lifts.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Outages = []Outage{{TaxiID: 0, From: 0, To: 5}}
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Requests[0].Served {
		t.Fatal("request never served after outage lifted")
	}
	if rep.Requests[0].AssignFrame != 5 {
		t.Errorf("AssignFrame = %d, want 5 (first frame after outage)", rep.Requests[0].AssignFrame)
	}
}

func TestOutageRejectsExplicitAssignment(t *testing.T) {
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0}}
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {fleet.SingleRide(0, reqs[0])},
	}}
	cfg := simpleConfig(d)
	cfg.Outages = []Outage{{TaxiID: 0, From: 0, To: 3}}
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "offline") {
		t.Errorf("Run err = %v, want offline rejection", err)
	}
}

func TestOutageBusyTaxiFinishesRoute(t *testing.T) {
	// The taxi is dispatched at frame 0, then an outage starts at frame
	// 1: the passenger still reaches their destination.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 3}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 2},
	}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Outages = []Outage{{TaxiID: 0, From: 1, To: 100}}
	cfg.DrainFrames = 150
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Requests[0].DropoffFrame < 0 {
		t.Error("first rider stranded mid-route by the outage")
	}
	// The second request arrives during the outage and must wait for
	// frame 100.
	if rep.Requests[1].Served && rep.Requests[1].AssignFrame < 100 {
		t.Errorf("second request assigned at %d during outage", rep.Requests[1].AssignFrame)
	}
}
