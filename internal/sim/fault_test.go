package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stabledispatch/internal/fault"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// stubInjector forces specific faults at specific points. Driver
// cancellations fire once per map entry (the entry is consumed), so a
// reassignment after the cancel is not cancelled again.
type stubInjector struct {
	passenger map[int]int    // requestID → delay after arrival
	driver    map[[2]int]int // {taxiID, requestID} → delay after assignment
	breakdown map[[2]int]int // {taxiID, frame} → repair frames
}

func (s *stubInjector) PassengerCancelAfter(id int) (int, bool) {
	d, ok := s.passenger[id]
	return d, ok
}

func (s *stubInjector) DriverCancelAfter(taxiID, requestID, _ int) (int, bool) {
	k := [2]int{taxiID, requestID}
	d, ok := s.driver[k]
	if ok {
		delete(s.driver, k)
	}
	return d, ok
}

func (s *stubInjector) Breakdown(taxiID, frame int) (int, bool) {
	d, ok := s.breakdown[[2]int{taxiID, frame}]
	return d, ok
}

// collectEvents attaches a recording sink to the config.
func collectEvents(cfg *Config) *[]Event {
	var events []Event
	cfg.Events = EventSinkFunc(func(e Event) { events = append(events, e) })
	return &events
}

func countKind(events []Event, kind EventKind, requestID int) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind && (requestID < 0 || e.RequestID == requestID) {
			n++
		}
	}
	return n
}

func TestPassengerCancelPending(t *testing.T) {
	// No dispatcher ever assigns, so the request sits pending until the
	// injected cancellation fires two frames after arrival.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0}}
	cfg := simpleConfig(&scriptedDispatcher{})
	cfg.Faults = &stubInjector{passenger: map[int]int{1: 2}}
	events := collectEvents(&cfg)
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	out, ok := s.RequestOutcome(1)
	if !ok || !out.Cancelled || out.Served {
		t.Fatalf("outcome = %+v, want cancelled and unserved", out)
	}
	if got := countKind(*events, EventCancel, 1); got != 1 {
		t.Errorf("cancel events = %d, want 1", got)
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %v, want empty", s.pending)
	}
	if s.Snapshot().CancelledCount() != 1 {
		t.Error("report does not count the cancellation")
	}
}

func TestPassengerCancelUnwindsAssignment(t *testing.T) {
	// Pickup is 5 km out (5 frames at 1 km/min); the cancellation fires
	// at frame 1 while the taxi is still en route, freeing it.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 5}, Dropoff: geo.Point{X: 6}, Frame: 0}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Faults = &stubInjector{passenger: map[int]int{1: 1}}
	events := collectEvents(&cfg)
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	out, _ := s.RequestOutcome(1)
	if !out.Cancelled || out.Served || out.PickupFrame >= 0 {
		t.Fatalf("outcome = %+v, want cancelled before pickup", out)
	}
	// The cancel event names the taxi whose assignment was unwound.
	var cancel *Event
	for i := range *events {
		if (*events)[i].Kind == EventCancel {
			cancel = &(*events)[i]
		}
	}
	if cancel == nil || cancel.TaxiID != 0 {
		t.Fatalf("cancel event = %+v, want TaxiID 0", cancel)
	}
	if !s.byID[0].idle() {
		t.Error("taxi still busy after its only assignment was cancelled")
	}
	if _, assigned := riders(s.byID[0].route); len(assigned) != 0 {
		t.Error("taxi still holds the cancelled request")
	}
}

func TestDriverCancelRequeuesAndRedispatches(t *testing.T) {
	// The driver abandons the fare two frames after assignment; the
	// passenger is requeued with their original arrival frame and
	// served by the next dispatch.
	reqs := []fleet.Request{{ID: 7, Pickup: geo.Point{X: 8}, Dropoff: geo.Point{X: 9}, Frame: 0}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.DrainFrames = 60
	cfg.Faults = &stubInjector{driver: map[[2]int]int{{0, 7}: 2}}
	events := collectEvents(&cfg)
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := rep.Requests[0]
	if !out.Served || out.DropoffFrame < 0 {
		t.Fatalf("outcome = %+v, want served to completion", out)
	}
	if out.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", out.Requeues)
	}
	// Reassigned at frame 2 (the cancel frame): the delay metric stays
	// anchored at the original arrival frame.
	if out.AssignFrame != 2 || out.ArrivalFrame != 0 {
		t.Errorf("assign/arrival = %d/%d, want 2/0", out.AssignFrame, out.ArrivalFrame)
	}
	if d, ok := out.DispatchDelay(); !ok || d != 2 {
		t.Errorf("dispatch delay = %v, want 2 (honest against original arrival)", d)
	}
	if got := countKind(*events, EventCancel, 7); got != 1 {
		t.Errorf("cancel events = %d, want 1", got)
	}
	if got := countKind(*events, EventRequeue, 7); got != 1 {
		t.Errorf("requeue events = %d, want 1", got)
	}
	if got := countKind(*events, EventAssign, 7); got != 2 {
		t.Errorf("assign events = %d, want 2 (original + re-dispatch)", got)
	}
}

func TestBreakdownRescuesOnboardRider(t *testing.T) {
	// Taxi 0 picks the rider up and breaks down mid-trip at frame 4;
	// the rider becomes a rescue request at the breakdown position and
	// taxi 1 finishes the trip.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 10}, Frame: 0}}
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{}}, {ID: 1, Pos: geo.Point{X: 20}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.DrainFrames = 120
	cfg.Faults = &stubInjector{breakdown: map[[2]int]int{{0, 4}: 1000}}
	events := collectEvents(&cfg)
	s, err := New(cfg, taxis, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := rep.Requests[0]
	if !out.Rescued {
		t.Fatalf("outcome = %+v, want rescued", out)
	}
	if out.DropoffFrame < 0 || out.TaxiID != 1 {
		t.Fatalf("outcome = %+v, want completed by taxi 1", out)
	}
	if got := countKind(*events, EventBreakdown, -1); got != 1 {
		t.Errorf("breakdown events = %d, want 1", got)
	}
	if got := countKind(*events, EventRescue, 1); got != 1 {
		t.Errorf("rescue events = %d, want 1", got)
	}
	if got := countKind(*events, EventPickup, 1); got != 2 {
		t.Errorf("pickup events = %d, want 2 (original + rescue)", got)
	}
	if got := countKind(*events, EventDropoff, 1); got != 1 {
		t.Errorf("dropoff events = %d, want exactly 1", got)
	}
	// The rescue pickup happens where the taxi died, partway to x=10.
	var rescue Event
	for _, e := range *events {
		if e.Kind == EventRescue {
			rescue = e
		}
	}
	if rescue.Pos.X <= 1 || rescue.Pos.X >= 10 {
		t.Errorf("rescue position %v not strictly between pickup and dropoff", rescue.Pos)
	}
	if rescue.TaxiID != 0 {
		t.Errorf("rescue names taxi %d, want the broken taxi 0", rescue.TaxiID)
	}
}

func TestBreakdownRequeuesAssignedNotPickedUp(t *testing.T) {
	// The taxi breaks down while still driving to the pickup: the
	// passenger is requeued (not rescued) with the original pickup.
	reqs := []fleet.Request{{ID: 1, Pickup: geo.Point{X: 9}, Dropoff: geo.Point{X: 10}, Frame: 0}}
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{}}, {ID: 1, Pos: geo.Point{X: 30}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.DrainFrames = 120
	cfg.Faults = &stubInjector{breakdown: map[[2]int]int{{0, 2}: 1000}}
	events := collectEvents(&cfg)
	s, err := New(cfg, taxis, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := rep.Requests[0]
	if out.Rescued {
		t.Error("not-yet-picked-up passenger reported as rescued")
	}
	if !out.Served || out.DropoffFrame < 0 || out.TaxiID != 1 {
		t.Fatalf("outcome = %+v, want completed by taxi 1", out)
	}
	if got := countKind(*events, EventRequeue, 1); got != 1 {
		t.Errorf("requeue events = %d, want 1", got)
	}
	if got := countKind(*events, EventRescue, 1); got != 0 {
		t.Errorf("rescue events = %d, want 0", got)
	}
}

func TestBreakdownOrdersRidersByID(t *testing.T) {
	// Riders 5 and 2 are on board and 9 and 4 await pickup, each pair in
	// descending ID order along the route. A breakdown requeues the
	// assigned riders, then rescues the onboard ones, each group in
	// ascending ID order.
	at := func(x float64) geo.Point { return geo.Point{X: x} }
	reqs := []fleet.Request{
		{ID: 5, Pickup: at(0.2), Dropoff: at(19)},
		{ID: 2, Pickup: at(0.5), Dropoff: at(20)},
		{ID: 9, Pickup: at(8), Dropoff: at(11), Frame: 1},
		{ID: 4, Pickup: at(10), Dropoff: at(12), Frame: 1},
	}
	pk, dr := fleet.StopPickup, fleet.StopDropoff
	d := &scriptedDispatcher{plans: map[int][]fleet.Assignment{
		0: {{TaxiID: 0, Requests: []int{5, 2}, Route: []fleet.Stop{
			routeStop(reqs[0], pk), routeStop(reqs[1], pk), routeStop(reqs[0], dr), routeStop(reqs[1], dr)}}},
		1: {{TaxiID: 0, Requests: []int{9, 4}, Route: []fleet.Stop{
			routeStop(reqs[2], pk), routeStop(reqs[3], pk), routeStop(reqs[2], dr), routeStop(reqs[3], dr),
			routeStop(reqs[0], dr), routeStop(reqs[1], dr)}}},
	}}
	cfg := simpleConfig(d)
	events := collectEvents(&cfg)
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	*events = nil
	if err := s.InjectBreakdown(0, 5); err != nil {
		t.Fatalf("InjectBreakdown: %v", err)
	}
	var got []string
	for _, e := range *events {
		got = append(got, fmt.Sprintf("%s %d", e.Kind, e.RequestID))
	}
	want := []string{"breakdown -1", "requeue 4", "requeue 9", "rescue 2", "rescue 5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("breakdown events = %v, want %v", got, want)
	}
	if c := s.Counts(); c.Active != 0 || c.Pending != 4 {
		t.Errorf("counts after breakdown = %+v, want 0 active and 4 pending", c)
	}
}

func TestCancelRequestAPI(t *testing.T) {
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 50}, Dropoff: geo.Point{X: 60}, Frame: 0},
	}
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{}}, {ID: 9, Pos: geo.Point{X: 40}}}
	cfg := simpleConfig(nearestDispatcher{})
	s, err := New(cfg, taxis, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.CancelRequest(404); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("cancel unknown = %v, want ErrUnknownRequest", err)
	}
	// Frame 0 assigns both; frame 1: request 1 is picked up (1 km out),
	// request 2 still en route.
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if err := s.CancelRequest(1); !errors.Is(err, ErrNotCancellable) {
		t.Errorf("cancel riding = %v, want ErrNotCancellable", err)
	}
	if err := s.CancelRequest(2); err != nil {
		t.Errorf("cancel assigned = %v, want nil", err)
	}
	if err := s.CancelRequest(2); !errors.Is(err, ErrNotCancellable) {
		t.Errorf("double cancel = %v, want ErrNotCancellable", err)
	}
	out, _ := s.RequestOutcome(2)
	if !out.Cancelled {
		t.Fatalf("outcome = %+v, want cancelled", out)
	}
	if !s.byID[9].idle() {
		t.Error("taxi 9 still busy after its assignment was cancelled")
	}
}

func TestOutageValidation(t *testing.T) {
	cfg := simpleConfig(nearestDispatcher{})
	cfg.Outages = []Outage{{TaxiID: 0, From: 5, To: 5}}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an empty outage window")
	}
	cfg.Outages = []Outage{{TaxiID: 0, From: 7, To: 3}}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an inverted outage window")
	}
	cfg.Outages = []Outage{{TaxiID: 42, From: 0, To: 5}}
	if _, err := New(cfg, singleTaxi(geo.Point{}), nil); err == nil {
		t.Error("New accepted an outage naming an unknown taxi")
	}
	cfg.Outages = []Outage{{TaxiID: 0, From: 0, To: 5}}
	if _, err := New(cfg, singleTaxi(geo.Point{}), nil); err != nil {
		t.Errorf("New rejected a valid outage: %v", err)
	}
}

func TestInjectOutageAndBreakdownValidation(t *testing.T) {
	s, err := New(simpleConfig(nearestDispatcher{}), singleTaxi(geo.Point{}), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.InjectOutage(42, 0, 5); err == nil {
		t.Error("InjectOutage accepted an unknown taxi")
	}
	if err := s.InjectOutage(0, 5, 5); err == nil {
		t.Error("InjectOutage accepted an empty window")
	}
	if err := s.InjectBreakdown(42, 5); err == nil {
		t.Error("InjectBreakdown accepted an unknown taxi")
	}
	if err := s.InjectOutage(0, 0, 5); err != nil {
		t.Errorf("InjectOutage rejected a valid window: %v", err)
	}
	if !s.offline(0) {
		t.Error("taxi not offline after immediate injected outage")
	}
}

// TestPatienceOutageInterplay exercises the satellite requirement:
// under an outage with finite patience, every abandoned request emits
// EventAbandon exactly once, abandoned requests never resurrect after a
// requeue, and report counts stay consistent.
func TestPatienceOutageInterplay(t *testing.T) {
	// One taxi dark for [0, 10) with patience 3: the early requests all
	// abandon before the outage lifts; a late request is served.
	reqs := []fleet.Request{
		{ID: 1, Pickup: geo.Point{X: 1}, Dropoff: geo.Point{X: 2}, Frame: 0},
		{ID: 2, Pickup: geo.Point{X: 2}, Dropoff: geo.Point{X: 3}, Frame: 1},
		{ID: 3, Pickup: geo.Point{X: 3}, Dropoff: geo.Point{X: 4}, Frame: 12},
	}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 3
	cfg.Outages = []Outage{{TaxiID: 0, From: 0, To: 10}}
	cfg.DrainFrames = 60
	events := collectEvents(&cfg)
	s, err := New(cfg, singleTaxi(geo.Point{}), reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range []int{1, 2} {
		if got := countKind(*events, EventAbandon, id); got != 1 {
			t.Errorf("request %d: abandon events = %d, want exactly 1", id, got)
		}
		// No lifecycle event may follow the abandon.
		abandoned := false
		for _, e := range *events {
			if e.RequestID != id {
				continue
			}
			if abandoned {
				t.Errorf("request %d: event %s after abandon", id, e.Kind)
			}
			if e.Kind == EventAbandon {
				abandoned = true
			}
		}
	}
	if rep.AbandonedCount() != 2 || rep.ServedCount() != 1 {
		t.Errorf("abandoned/served = %d/%d, want 2/1", rep.AbandonedCount(), rep.ServedCount())
	}
	if got := len(rep.Requests); got != 3 {
		t.Errorf("report requests = %d, want 3", got)
	}
}

// TestRequeueRestartsPatience pins the requeue ↔ patience contract: a
// driver cancellation restarts the patience clock (the passenger waits
// anew) and an abandoned request never resurrects.
func TestRequeueRestartsPatience(t *testing.T) {
	reqs := []fleet.Request{{ID: 5, Pickup: geo.Point{X: 20}, Dropoff: geo.Point{X: 21}, Frame: 0}}
	taxis := []fleet.Taxi{{ID: 0, Pos: geo.Point{}}}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 4
	cfg.DrainFrames = 80
	// Driver abandons 3 frames after the frame-0 assignment; the taxi
	// then sits in a long outage so the requeued passenger expires.
	cfg.Faults = &stubInjector{driver: map[[2]int]int{{0, 5}: 3}}
	events := collectEvents(&cfg)
	s, err := New(cfg, taxis, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	// Frame 3 applies the driver cancel; block re-dispatch from then on.
	if err := s.InjectOutage(0, 3, 1000); err != nil {
		t.Fatalf("InjectOutage: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := rep.Requests[0]
	if !out.Abandoned || out.Served {
		t.Fatalf("outcome = %+v, want abandoned after requeue", out)
	}
	// Requeued at frame 3 with patience 4: abandon at frame 7, not at
	// frame 4 (patience restarted, not resumed).
	var abandonFrame = -1
	for _, e := range *events {
		if e.Kind == EventAbandon && e.RequestID == 5 {
			if abandonFrame >= 0 {
				t.Fatal("second abandon event for request 5")
			}
			abandonFrame = e.Frame
		}
	}
	if abandonFrame != 7 {
		t.Errorf("abandon frame = %d, want 7 (patience restarts at requeue frame 3)", abandonFrame)
	}
	if got := countKind(*events, EventRequeue, 5); got != 1 {
		t.Errorf("requeue events = %d, want 1", got)
	}
}

// chaosRun executes one seeded chaos soak and returns its events and
// report.
func chaosRun(t *testing.T, seed int64) ([]Event, *Report) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var reqs []fleet.Request
	for i := 0; i < 250; i++ {
		reqs = append(reqs, fleet.Request{
			ID:      i,
			Pickup:  geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Dropoff: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Frame:   rng.Intn(100),
		})
	}
	var taxis []fleet.Taxi
	for i := 0; i < 20; i++ {
		taxis = append(taxis, fleet.Taxi{ID: i, Pos: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}})
	}
	sched, err := fault.New(fault.Config{
		Seed:                seed,
		BreakdownRate:       0.10,
		PassengerCancelRate: 0.15,
		DriverCancelRate:    0.10,
		RepairFrames:        10,
	})
	if err != nil {
		t.Fatalf("fault.New: %v", err)
	}
	cfg := simpleConfig(nearestDispatcher{})
	cfg.PatienceFrames = 25
	cfg.DrainFrames = 500
	cfg.Faults = sched
	// A scheduled outage on top of the random breakdowns.
	cfg.Outages = []Outage{{TaxiID: 0, From: 20, To: 60}, {TaxiID: 1, From: 30, To: 50}}
	events := collectEvents(&cfg)
	s, err := New(cfg, taxis, reqs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	return *events, rep
}

// TestChaosSoakInvariants is the acceptance soak: under a seeded
// schedule with ≥10% breakdown and cancellation rates and finite
// patience, every request reaches exactly one terminal state, no
// assignment ever references an offline or broken taxi, orphaned riders
// are rescued or abandoned — never silently dropped — and the whole run
// is deterministic for a fixed seed.
func TestChaosSoakInvariants(t *testing.T) {
	events, rep := chaosRun(t, 7)

	// The fault mix actually fired: the soak is vacuous otherwise.
	if countKind(events, EventBreakdown, -1) == 0 {
		t.Fatal("soak injected no breakdowns")
	}
	if countKind(events, EventCancel, -1) == 0 {
		t.Fatal("soak injected no cancellations")
	}
	if countKind(events, EventRescue, -1) == 0 {
		t.Fatal("soak produced no rescues")
	}

	// No assignment may name a taxi inside a breakdown repair window or
	// a configured outage.
	brokenUntil := make(map[int]int)
	outage := map[int][2]int{0: {20, 60}, 1: {30, 50}}
	for _, e := range events {
		switch e.Kind {
		case EventBreakdown:
			brokenUntil[e.TaxiID] = e.Frame + 10 // RepairFrames above
		case EventAssign:
			if until, ok := brokenUntil[e.TaxiID]; ok && e.Frame < until {
				t.Fatalf("frame %d: assignment to taxi %d broken until %d", e.Frame, e.TaxiID, until)
			}
			if w, ok := outage[e.TaxiID]; ok && e.Frame >= w[0] && e.Frame < w[1] {
				t.Fatalf("frame %d: assignment to taxi %d during outage %v", e.Frame, e.TaxiID, w)
			}
		}
	}

	// Terminal accounting: exactly one of completed / abandoned /
	// cancelled per request; completed means exactly one dropoff.
	var completed, abandoned, cancelled int
	for _, o := range rep.Requests {
		states := 0
		if o.DropoffFrame >= 0 {
			states++
			completed++
		}
		if o.Abandoned {
			states++
			abandoned++
		}
		if o.Cancelled {
			states++
			cancelled++
		}
		if states != 1 {
			t.Fatalf("request %d has %d terminal states (%+v) — silently dropped or double-counted", o.ID, states, o)
		}
		if drops := countKind(events, EventDropoff, o.ID); (o.DropoffFrame >= 0) != (drops == 1) || drops > 1 {
			t.Fatalf("request %d: %d dropoff events, outcome %+v", o.ID, drops, o)
		}
		if got := countKind(events, EventAbandon, o.ID); got != b2i(o.Abandoned) {
			t.Fatalf("request %d: %d abandon events, abandoned=%v", o.ID, got, o.Abandoned)
		}
	}
	if completed+abandoned+cancelled != len(rep.Requests) {
		t.Fatalf("terminal states %d+%d+%d ≠ %d requests", completed, abandoned, cancelled, len(rep.Requests))
	}
	if completed == 0 || abandoned == 0 || cancelled == 0 {
		t.Fatalf("soak not exercising all outcomes: completed=%d abandoned=%d cancelled=%d", completed, abandoned, cancelled)
	}

	// Every rescued rider is accounted for: completed or abandoned,
	// with the report carrying the rescue flag.
	for _, e := range events {
		if e.Kind != EventRescue {
			continue
		}
		var out *RequestOutcome
		for i := range rep.Requests {
			if rep.Requests[i].ID == e.RequestID {
				out = &rep.Requests[i]
			}
		}
		if out == nil || !out.Rescued {
			t.Fatalf("rescued request %d missing from report or unflagged", e.RequestID)
		}
	}

	// Requeue bookkeeping agrees between events and report.
	requeueEvents := countKind(events, EventRequeue, -1) + countKind(events, EventRescue, -1)
	if got := rep.RequeueCount(); got != requeueEvents {
		t.Errorf("report requeues %d ≠ %d requeue+rescue events", got, requeueEvents)
	}

	// Determinism: an identical seed replays the identical run.
	events2, rep2 := chaosRun(t, 7)
	if !reflect.DeepEqual(events, events2) {
		t.Fatal("event streams differ between identical seeded runs")
	}
	if !reflect.DeepEqual(rep.Requests, rep2.Requests) {
		t.Fatal("request outcomes differ between identical seeded runs")
	}
	// And a different seed produces a different run.
	events3, _ := chaosRun(t, 8)
	if reflect.DeepEqual(events, events3) {
		t.Fatal("different fault seeds produced identical runs")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
