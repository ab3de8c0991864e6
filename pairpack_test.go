package stabledispatch

import (
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// packWatch dispatches with STD-P and, on every frame STD-P packs,
// packs the frame again through the same PackFrame and counts the
// units by member count. Packing is a function of the frame alone, so
// the second pack is the one STD-P matched on.
type packWatch struct {
	sim.Dispatcher
	cfg   share.PackConfig
	sizes [4]int // units with 1, 2 and 3 members
}

func (w *packWatch) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	out, err := w.Dispatcher.Dispatch(f)
	if err != nil || len(dispatch.IdleFleet(f)) == 0 || len(f.Requests) == 0 {
		return out, err
	}
	_, units, err := dispatch.PackFrame(f, w.cfg)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		w.sizes[len(u.Members)]++
	}
	return out, nil
}

// TestSTDPPacksNoTriple pins DESIGN.md's "Algorithm 3 packs pairs only"
// on both paper days (seed 1): triangle triples are enumerated, but no
// packed STD-P unit has three members, while pairs do pack.
func TestSTDPPacksNoTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale STD-P days")
	}
	o := exp.DefaultOptions()
	o.Seed = 1
	cfg := share.PackConfig{Theta: o.Theta, MaxGroupSize: 3, PairRadius: 2 * o.Theta}
	for _, city := range []trace.City{trace.NewYork(), trace.Boston()} {
		reqs, taxis, err := exp.Workload(city, city.RequestsPerDay, city.Fleet, o)
		if err != nil {
			t.Fatalf("%s workload: %v", city.Name, err)
		}
		w := &packWatch{Dispatcher: dispatch.NewSTDP(cfg), cfg: cfg}
		s, err := sim.New(sim.Config{
			Params:         o.Params,
			Dispatcher:     w,
			PatienceFrames: o.PatienceMinutes,
			Workers:        o.Workers,
		}, taxis, reqs)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s run: %v", city.Name, err)
		}
		if w.sizes[3] != 0 || w.sizes[2] == 0 {
			t.Errorf("%s: STD-P packed %d triples and %d pairs; want no triple and some pairs",
				city.Name, w.sizes[3], w.sizes[2])
		}
		t.Logf("%s: %d pairs, %d triples, %d singles", city.Name, w.sizes[2], w.sizes[3], w.sizes[1])
	}
}
