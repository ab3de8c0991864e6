package sim_test

import (
	"slices"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/trace"
)

// runQuickSTDP runs the quick-scale Boston workload under d, an STD-P
// dispatcher or a wrapper of one, recording into rec.
func runQuickSTDP(t *testing.T, d sim.Dispatcher, rec *dtrace.Recorder) {
	t.Helper()
	o := exp.QuickOptions()
	reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 200, o)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	s, err := sim.New(sim.Config{
		Params:         o.Params,
		Dispatcher:     d,
		PatienceFrames: o.PatienceMinutes,
		Workers:        o.Workers,
		Tracer:         rec,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// quickSTDP is Algorithm 3 with the quick-scale packing configuration.
func quickSTDP() sim.Dispatcher {
	o := exp.QuickOptions()
	return dispatch.NewSTDP(share.PackConfig{Theta: o.Theta, MaxGroupSize: 3, PairRadius: 2 * o.Theta})
}

// uniqueness checks, on every frame STD-P dispatches, that the unit
// market it reported has exactly one stable matching (Algorithm 2) and
// that the committed assignments are that matching.
type uniqueness struct {
	sim.Dispatcher
	t                *testing.T
	frames, contests int
}

func (d *uniqueness) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	out, err := d.Dispatcher.Dispatch(f)
	mk, units := sim.ReportOf(f)
	if err != nil || mk == nil {
		return out, err
	}
	d.frames++
	if len(out) > 1 {
		d.contests++
	}
	all := stable.AllStableMatchings(mk, 2)
	if len(all) != 1 {
		d.t.Errorf("frame %d: the unit market has %d stable matchings, want 1", f.Number, len(all))
		return out, nil
	}
	idle := f.IdleFleet()
	want := make(map[int]int) // lead request ID → taxi ID
	for k, i := range all[0].ReqPartner {
		if i != stable.Unmatched {
			want[f.Requests[units[k].Members[0]].ID] = idle[i].ID
		}
	}
	got := make(map[int]int)
	for _, a := range out {
		got[a.Requests[0]] = a.TaxiID
	}
	if len(got) != len(want) {
		d.t.Errorf("frame %d: committed %d units, the stable matching matches %d", f.Number, len(got), len(want))
	}
	for lead, taxi := range want {
		if got[lead] != taxi {
			d.t.Errorf("frame %d: unit led by request %d committed to taxi %d, the stable matching gives taxi %d",
				f.Number, lead, got[lead], taxi)
		}
	}
	return out, nil
}

// TestReportedUnitMarketHasOneStableMatching pins that each frame of
// the quick STD-P run was matched on a unit market with a single
// stable matching (DESIGN.md, "One stable matching per frame"), the
// one committed, and that every certificate on that market reads
// stable.
func TestReportedUnitMarketHasOneStableMatching(t *testing.T) {
	d := &uniqueness{Dispatcher: quickSTDP(), t: t}
	rec := dtrace.New(0)
	runQuickSTDP(t, d, rec)
	if d.frames == 0 || d.contests == 0 {
		t.Fatalf("%d frames reported a market, %d committed two units or more; the pin proves nothing", d.frames, d.contests)
	}
	t.Logf("%d frames reported a unit market, %d committed two units or more", d.frames, d.contests)
	for _, fr := range rec.CertifiedFrames() {
		if c, _ := rec.Certificate(fr); !c.Stable {
			t.Errorf("frame %d certified unstable: %+v", fr, c.Violations)
		}
	}
}

// swapping commits STD-P's matching with the taxis of two units
// swapped, on the first frame that commits two units whose taxis can
// seat each other's unit; it records the frame and the two units' lead
// request IDs.
type swapping struct {
	sim.Dispatcher
	frame int
	leads []int
}

func (d *swapping) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	out, err := d.Dispatcher.Dispatch(f)
	if err != nil || d.leads != nil || len(out) < 2 {
		return out, err
	}
	seats := make(map[int]int)
	for _, v := range f.Taxis {
		seats[v.ID] = v.Capacity()
	}
	load := func(a fleet.Assignment) int {
		n := 0
		for _, s := range a.Route {
			if s.Kind == fleet.StopPickup {
				n += s.Seats
			}
		}
		return n
	}
	a, b := &out[0], &out[1]
	if load(*a) > seats[b.TaxiID] || load(*b) > seats[a.TaxiID] {
		return out, nil
	}
	a.TaxiID, b.TaxiID = b.TaxiID, a.TaxiID
	d.frame, d.leads = f.Number, []int{a.Requests[0], b.Requests[0]}
	return out, nil
}

// TestSwappedUnitsCertifyUnstable commits one frame of the quick STD-P
// run with two units' taxis swapped: the frame has one stable matching,
// so its certificate on the reported unit market must read unstable,
// and its evidence names the swapped units by their lead requests.
func TestSwappedUnitsCertifyUnstable(t *testing.T) {
	d := &swapping{Dispatcher: quickSTDP()}
	rec := dtrace.New(0)
	runQuickSTDP(t, d, rec)
	if d.leads == nil {
		t.Fatal("no frame committed two units; the pin proves nothing")
	}
	c, ok := rec.Certificate(d.frame)
	if !ok {
		t.Fatalf("frame %d not certified", d.frame)
	}
	if c.Stable || c.ViolationsTotal == 0 {
		t.Fatalf("frame %d with units %v on swapped taxis certified stable: %+v", d.frame, d.leads, c)
	}
	named := false
	for _, v := range c.Violations {
		named = named || slices.Contains(d.leads, v.RequestID)
	}
	t.Logf("frame %d, units led by %v: %d violations", d.frame, d.leads, c.ViolationsTotal)
	if !named {
		t.Errorf("frame %d: no violation names a swapped unit's lead request %v: %+v", d.frame, d.leads, c.Violations)
	}
}
