package sim_test

import (
	"math/rand"
	"reflect"
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
	"stabledispatch/internal/share"
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
// its frame and builds in its Storage: the requests, the taxi views,
// the idle fleet, the §IV-A plane's trips and rows, and the market's
// request and taxi rows.
type frameSnapshot struct {
	requests []fleet.Request
	taxis    []sim.TaxiView
	idle     []fleet.Taxi
	trips    []float64
	rows     [][]costplane.Entry
	reqRows  [][]pref.Entry
	taxiRows [][]pref.Entry
}

// snapshotFrame copies f's requests, views and idle fleet, and the
// plane and market NSTD-P built in f's Storage (none when it built
// none: no idle taxi), and counts the market's pairs.
func snapshotFrame(f *sim.Frame) (any, int, error) {
	s := frameSnapshot{
		requests: slices.Clone(f.Requests),
		taxis:    slices.Clone(f.Taxis),
		idle:     slices.Clone(f.IdleFleet()),
	}
	st := sim.StorageOf(f)
	if st == nil || st.Instance == nil {
		return s, 0, nil
	}
	s.trips, s.rows = slices.Clone(st.Plane.Trips()), pickupRows(st.Plane)
	s.reqRows, s.taxiRows = marketRows(&st.Instance.Market)
	pairs := 0
	for _, row := range s.reqRows {
		pairs += len(row)
	}
	return s, pairs, nil
}

// storageSnapshot is a deep copy of what an STD-P dispatch builds in
// its frame's Storage: the plane's trips, pair rows and unit taxi rows,
// the units' members and routes, and the unit market's rows.
type storageSnapshot struct {
	trips    []float64
	pairs    [][]float64
	rows     [][]costplane.Entry
	members  [][]int
	stops    [][]fleet.Stop
	reqRows  [][]pref.Entry
	taxiRows [][]pref.Entry
}

// snapshotStorage copies what STD-P built in f's Storage, and counts
// its units; a frame whose dispatch built no market (no idle taxi)
// yields nil.
func snapshotStorage(f *sim.Frame) (any, int, error) {
	st := sim.StorageOf(f)
	if st == nil || st.Market == nil {
		return nil, 0, nil
	}
	pl := st.Plane
	s := storageSnapshot{trips: slices.Clone(pl.Trips()), rows: pickupRows(pl)}
	for j := 0; j < pl.PairRows(); j++ {
		row := make([]float64, pl.PairRows())
		for k := range row {
			row[k] = pl.PairDist(j, k)
		}
		s.pairs = append(s.pairs, row)
	}
	for _, u := range st.Units.List {
		s.members = append(s.members, slices.Clone(u.Members))
		s.stops = append(s.stops, slices.Clone(u.Plan.Stops))
	}
	s.reqRows, s.taxiRows = marketRows(st.Market)
	return s, len(s.members), nil
}

// pickupRows copies every taxi row of pl.
func pickupRows(pl *costplane.Plane) [][]costplane.Entry {
	rows := make([][]costplane.Entry, len(pl.Taxis))
	for i := range rows {
		rows[i] = slices.Clone(pl.PickupRow(i))
	}
	return rows
}

// marketRows copies every request and taxi row of mk.
func marketRows(mk *pref.Market) (reqRows, taxiRows [][]pref.Entry) {
	for j := 0; j < mk.NumRequests(); j++ {
		reqRows = append(reqRows, slices.Clone(mk.ReqEntries(j)))
	}
	for i := 0; i < mk.NumTaxis(); i++ {
		taxiRows = append(taxiRows, slices.Clone(mk.TaxiEntries(i)))
	}
	return reqRows, taxiRows
}

// lingering is a primary that outlives its frame: after it dispatches,
// it snapshots what it read or built in the frame, and keeps re-reading
// it for a while, counting the reads that no longer match. snapshot
// also returns how many pairs or units it holds, which seen sums. Each
// call marks wg done.
type lingering struct {
	inner         sim.Dispatcher
	snapshot      func(f *sim.Frame) (any, int, error)
	wg            *sync.WaitGroup
	changed, seen atomic.Int64
}

func (d *lingering) Name() string { return "lingering-" + d.inner.Name() }

func (d *lingering) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	defer d.wg.Done()
	out, err := d.inner.Dispatch(f)
	if err != nil {
		return out, err
	}
	snap, n, err := d.snapshot(f)
	if err != nil {
		return out, err
	}
	d.seen.Add(int64(n))
	for round := 0; round < 30; round++ {
		time.Sleep(20 * time.Microsecond)
		again, _, err := d.snapshot(f)
		if err != nil || !reflect.DeepEqual(again, snap) {
			d.changed.Add(1)
		}
	}
	return out, err
}

// TestAbandonedPrimaryReadsItsFrame runs a Resilient whose primary is
// abandoned at a 1 ns deadline, so the primary keeps reading its frame
// while the simulator dispatches the next frames: an NSTD-P primary
// its frame's requests and views and the §IV-A plane and market it
// built in the frame's Storage, an STD-P primary the request and unit
// plane, units and unit market it built there. Each frame is built
// into the last frame's storage unless the last frame was abandoned;
// this proves an abandoned frame is never reused: the primary sees no
// change, and under -race no write races its reads.
func TestAbandonedPrimaryReadsItsFrame(t *testing.T) {
	for _, c := range []struct {
		name     string
		inner    sim.Dispatcher
		snapshot func(f *sim.Frame) (any, int, error)
	}{
		{"NSTD-P", dispatch.NewNSTDP(), snapshotFrame},
		{"STD-P", dispatch.NewSTDP(share.DefaultPackConfig()), snapshotStorage},
	} {
		t.Run(c.name, func(t *testing.T) {
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
			primary := &lingering{inner: c.inner, snapshot: c.snapshot, wg: &wg}
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
			if rep.ServedCount() == 0 || primary.seen.Load() == 0 {
				t.Fatal("nothing served or nothing read: the soak is vacuous")
			}
			if s.Stats().Degraded["deadline"] == 0 {
				t.Fatal("no frame missed the deadline: the primary was never abandoned")
			}
			if n := primary.changed.Load(); n > 0 {
				t.Errorf("%d reads saw the frame change after the primary was abandoned", n)
			}
		})
	}
}
