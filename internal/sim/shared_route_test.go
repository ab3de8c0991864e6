package sim_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabledispatch/internal/carpool"
	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fault"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
)

// lingeringSARP is a SARP primary that outlives its frame: it snapshots
// every taxi's route when handed the frame, dispatches, then keeps
// re-reading the frame's routes for a while, counting any that no longer
// match the snapshot. Each call marks wg done.
type lingeringSARP struct {
	inner   sim.Dispatcher
	wg      *sync.WaitGroup
	changed atomic.Int64
}

func (d *lingeringSARP) Name() string { return "lingering-SARP" }

func (d *lingeringSARP) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	defer d.wg.Done()
	snap := make([][]fleet.Stop, len(f.Taxis))
	for i, v := range f.Taxis {
		snap[i] = slices.Clone(v.Route)
	}
	out, err := d.inner.Dispatch(f)
	for round := 0; round < 20; round++ {
		for i := range f.Taxis {
			if !slices.Equal(f.Taxis[i].Route, snap[i]) {
				d.changed.Add(1)
			}
		}
		runtime.Gosched()
	}
	return out, err
}

// tracked adds to wg before each dispatch, on the simulator's goroutine,
// so wg covers every primary a Resilient spawns.
type tracked struct {
	sim.Dispatcher
	wg *sync.WaitGroup
}

func (d tracked) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	d.wg.Add(1)
	return d.Dispatcher.Dispatch(f)
}

// TestAbandonedPrimaryReadsSharedRoutes runs a Resilient whose SARP
// primary is abandoned at a 1 ns deadline, so the primary keeps reading
// the frame's shared routes while the simulator steps on through
// breakdowns and cancellations. Under -race this proves the simulator
// never writes into a route a frame holds.
func TestAbandonedPrimaryReadsSharedRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10} }
	var reqs []fleet.Request
	for i := 0; i < 150; i++ {
		reqs = append(reqs, fleet.Request{ID: i, Pickup: pt(), Dropoff: pt(), Frame: rng.Intn(60), Seats: 1 + rng.Intn(2)})
	}
	var taxis []fleet.Taxi
	for i := 0; i < 15; i++ {
		taxis = append(taxis, fleet.Taxi{ID: i, Pos: pt()})
	}
	sched, err := fault.New(fault.Config{
		Seed:                3,
		BreakdownRate:       0.10,
		PassengerCancelRate: 0.15,
		DriverCancelRate:    0.10,
		RepairFrames:        5,
	})
	if err != nil {
		t.Fatalf("fault.New: %v", err)
	}
	var wg sync.WaitGroup
	primary := &lingeringSARP{inner: carpool.NewSARP(carpool.DefaultConfig()), wg: &wg}
	resilient := dispatch.NewResilient(primary, carpool.NewSARP(carpool.DefaultConfig()), time.Nanosecond)
	s, err := sim.New(sim.Config{
		Params:         pref.Unbounded(),
		Dispatcher:     tracked{Dispatcher: resilient, wg: &wg},
		SpeedKmH:       60,
		PatienceFrames: 20,
		Faults:         sched,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := s.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() == 0 {
		t.Fatal("nothing served: the soak is vacuous")
	}
	if s.Stats().Degraded["deadline"] == 0 {
		t.Fatal("no frame missed the deadline: the primary was never abandoned")
	}
	if n := primary.changed.Load(); n > 0 {
		t.Errorf("%d route reads saw a frame's route change after its step", n)
	}
}

// frameSnapshot is a deep copy of what an NSTD-P dispatch reads from
// its frame: the requests, the taxi views, the idle fleet, the §IV-A
// plane's trips and rows, and the market's request and taxi rows.
type frameSnapshot struct {
	requests []fleet.Request
	taxis    []sim.TaxiView
	idle     []fleet.Taxi
	trips    []float64
	rows     [][]costplane.Entry
	reqRows  [][]pref.Entry
	taxiRows [][]pref.Entry
}

// snapshotFrame reads f's requests, views, idle fleet, plane and market
// as a dispatcher does, copying each.
func snapshotFrame(f *sim.Frame) (frameSnapshot, error) {
	idle := f.IdleFleet()
	pl := f.PrefPlane(idle)
	inst, err := f.Instance(idle)
	if err != nil {
		return frameSnapshot{}, err
	}
	s := frameSnapshot{
		requests: slices.Clone(f.Requests),
		taxis:    slices.Clone(f.Taxis),
		idle:     slices.Clone(idle),
		trips:    slices.Clone(pl.Trips()),
	}
	for i := range pl.Taxis {
		s.rows = append(s.rows, slices.Clone(pl.PickupRow(i)))
	}
	for j := 0; j < inst.NumRequests(); j++ {
		s.reqRows = append(s.reqRows, slices.Clone(inst.ReqEntries(j)))
	}
	for i := 0; i < inst.NumTaxis(); i++ {
		s.taxiRows = append(s.taxiRows, slices.Clone(inst.TaxiEntries(i)))
	}
	return s, nil
}

// equal compares two snapshots; the views' routes by their stops.
func (s frameSnapshot) equal(o frameSnapshot) bool {
	sameView := func(a, b sim.TaxiView) bool {
		return a.ID == b.ID && a.Pos == b.Pos && a.Seats == b.Seats && a.Idle == b.Idle &&
			a.Load == b.Load && a.Offline == b.Offline && slices.Equal(a.Route, b.Route)
	}
	return slices.Equal(s.requests, o.requests) && slices.EqualFunc(s.taxis, o.taxis, sameView) &&
		slices.Equal(s.idle, o.idle) && slices.Equal(s.trips, o.trips) &&
		slices.EqualFunc(s.rows, o.rows, slices.Equal) &&
		slices.EqualFunc(s.reqRows, o.reqRows, slices.Equal) &&
		slices.EqualFunc(s.taxiRows, o.taxiRows, slices.Equal)
}

// lingeringNSTD is an NSTD-P primary that outlives its frame: after it
// dispatches, it snapshots everything it read from the frame and keeps
// re-reading it for a while, counting the reads that no longer match.
// Each call marks wg done.
type lingeringNSTD struct {
	inner          sim.Dispatcher
	wg             *sync.WaitGroup
	changed, pairs atomic.Int64
}

func (d *lingeringNSTD) Name() string { return "lingering-NSTD-P" }

func (d *lingeringNSTD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	defer d.wg.Done()
	out, err := d.inner.Dispatch(f)
	if err != nil {
		return out, err
	}
	snap, err := snapshotFrame(f)
	if err != nil {
		return out, err
	}
	for _, row := range snap.reqRows {
		d.pairs.Add(int64(len(row)))
	}
	for round := 0; round < 30; round++ {
		time.Sleep(20 * time.Microsecond)
		again, err := snapshotFrame(f)
		if err != nil || !again.equal(snap) {
			d.changed.Add(1)
		}
	}
	return out, err
}

// TestAbandonedPrimaryReadsItsFrame runs a Resilient whose NSTD-P
// primary is abandoned at a 1 ns deadline, so the primary keeps reading
// its frame's requests, views, §IV-A plane and market while the
// simulator dispatches the next frames. Each frame is built into the
// last frame's storage unless the last frame was abandoned; this proves
// an abandoned frame is never reused: the primary sees no change, and
// under -race no write races its reads.
func TestAbandonedPrimaryReadsItsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10} }
	var reqs []fleet.Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, fleet.Request{ID: i, Pickup: pt(), Dropoff: pt(), Frame: rng.Intn(60), Seats: 1 + rng.Intn(2)})
	}
	var taxis []fleet.Taxi
	for i := 0; i < 20; i++ {
		taxis = append(taxis, fleet.Taxi{ID: i, Pos: pt()})
	}
	var wg sync.WaitGroup
	primary := &lingeringNSTD{inner: dispatch.NewNSTDP(), wg: &wg}
	s, err := sim.New(sim.Config{
		Params:         pref.DefaultParams(),
		Dispatcher:     tracked{Dispatcher: dispatch.NewResilient(primary, nil, time.Nanosecond), wg: &wg},
		SpeedKmH:       60,
		PatienceFrames: 20,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := s.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ServedCount() == 0 || primary.pairs.Load() == 0 {
		t.Fatal("nothing served or no acceptable pair: the soak is vacuous")
	}
	if s.Stats().Degraded["deadline"] == 0 {
		t.Fatal("no frame missed the deadline: the primary was never abandoned")
	}
	if n := primary.changed.Load(); n > 0 {
		t.Errorf("%d reads saw the frame change after the primary was abandoned", n)
	}
}
