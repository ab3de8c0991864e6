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
