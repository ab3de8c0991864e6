package pref

import (
	"fmt"
	"math"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/geo"
)

// sameBits reports whether two entries of a plane row are equal to the
// bit, so a NaN distance equals itself.
func sameBits(a, b costplane.Entry) bool {
	return a.Req == b.Req && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
}

// sameEntryBits is sameBits for market entries.
func sameEntryBits(a, b Entry) bool {
	return a.Partner == b.Partner &&
		math.Float64bits(a.ReqCost) == math.Float64bits(b.ReqCost) &&
		math.Float64bits(a.TaxiCost) == math.Float64bits(b.TaxiCost)
}

func equalRows[T any](a, b []T, same func(T, T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !same(a[k], b[k]) {
			return false
		}
	}
	return true
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkRecycled fails unless the plane and instance built into a
// previous frame's storage equal fresh builds of the same frame: every
// trip, plane row, market row and the Validate result.
func checkRecycled(t *testing.T, label string, got, want *costplane.Plane, gotInst, wantInst *Instance) {
	t.Helper()
	if len(got.Requests) != len(want.Requests) || len(got.Taxis) != len(want.Taxis) || got.Entries() != want.Entries() {
		t.Fatalf("%s: plane is %d×%d with %d entries, want %d×%d with %d", label,
			len(got.Requests), len(got.Taxis), got.Entries(), len(want.Requests), len(want.Taxis), want.Entries())
	}
	if !equalRows(got.Trips(), want.Trips(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: trips %v, want %v", label, got.Trips(), want.Trips())
	}
	for i := range want.Taxis {
		if !equalRows(got.PickupRow(i), want.PickupRow(i), sameBits) {
			t.Fatalf("%s: plane row %d = %v, want %v", label, i, got.PickupRow(i), want.PickupRow(i))
		}
	}
	if gotInst.NumRequests() != wantInst.NumRequests() || gotInst.NumTaxis() != wantInst.NumTaxis() {
		t.Fatalf("%s: market is %d×%d, want %d×%d", label,
			gotInst.NumRequests(), gotInst.NumTaxis(), wantInst.NumRequests(), wantInst.NumTaxis())
	}
	for j := 0; j < wantInst.NumRequests(); j++ {
		if !equalRows(gotInst.ReqEntries(j), wantInst.ReqEntries(j), sameEntryBits) {
			t.Fatalf("%s: request row %d = %v, want %v", label, j, gotInst.ReqEntries(j), wantInst.ReqEntries(j))
		}
	}
	for i := 0; i < wantInst.NumTaxis(); i++ {
		if !equalRows(gotInst.TaxiEntries(i), wantInst.TaxiEntries(i), sameEntryBits) {
			t.Fatalf("%s: taxi row %d = %v, want %v", label, i, gotInst.TaxiEntries(i), wantInst.TaxiEntries(i))
		}
	}
	if g, w := errText(gotInst.Validate()), errText(wantInst.Validate()); g != w {
		t.Fatalf("%s: Validate = %q, want %q", label, g, w)
	}
}

// TestRecycledFramesMatchFreshBuilds builds a sequence of random frames,
// each plane and instance into the previous frame's, as sim.Frame does,
// and checks each against a fresh build. The sequence grows, shrinks,
// empties the queue, drops every taxi, switches to the every-cell
// market of Unbounded and back, packs the taxis into one corner, and
// puts a taxi at a non-finite position; the tight frames' discs are
// narrow enough for the disc grid, which they rebuild in each other's
// storage, and worker counts vary so the row arenas change number and
// size.
func TestRecycledFramesMatchFreshBuilds(t *testing.T) {
	tight := Params{Alpha: 1, Beta: 1, MaxPickup: 3, MaxNet: 0.5}
	frames := []struct {
		reqs, taxis int
		params      Params
		corner      bool    // taxis packed into a 2×2 km corner
		odd         float64 // when non-zero, taxi 0 sits at (odd, odd)
	}{
		{reqs: 40, taxis: 60, params: DefaultParams()},
		{reqs: 120, taxis: 200, params: DefaultParams()}, // grows
		{reqs: 15, taxis: 10, params: tight},             // shrinks
		{reqs: 0, taxis: 30, params: DefaultParams()},    // empty queue
		{reqs: 25, taxis: 0, params: DefaultParams()},    // no taxis
		{reqs: 60, taxis: 80, params: Unbounded()},       // every cell
		{reqs: 30, taxis: 40, params: tight},
		{reqs: 80, taxis: 150, params: tight, corner: true},
		{reqs: 70, taxis: 90, params: tight},
		{reqs: 50, taxis: 70, params: DefaultParams(), odd: math.NaN()},
		{reqs: 35, taxis: 45, params: Unbounded(), odd: math.Inf(1)},
		{reqs: 90, taxis: 120, params: tight, odd: math.Inf(-1)},
		{reqs: 0, taxis: 0, params: DefaultParams()},
		{reqs: 150, taxis: 250, params: DefaultParams()},
	}
	for _, m := range []struct {
		name string
		m    geo.Metric
	}{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}} {
		var spentPlane *costplane.Plane
		var spentInst *Instance
		for k, f := range frames {
			reqs, taxis := planeWorld(f.reqs, f.taxis, int64(100+k))
			if f.corner {
				for i := range taxis {
					taxis[i].Pos = geo.Point{X: math.Mod(taxis[i].Pos.X, 2), Y: math.Mod(taxis[i].Pos.Y, 2)}
				}
			}
			if f.odd != 0 && len(taxis) > 0 {
				taxis[0].Pos = geo.Point{X: f.odd, Y: f.odd}
			}
			workers := 1 + k%3
			label := fmt.Sprintf("%s frame %d (%d×%d, workers %d)", m.name, k, f.reqs, f.taxis, workers)
			want := Plane(nil, reqs, taxis, m.m, f.params, workers)
			wantInst, err := FromPlane(want, f.params)
			if err != nil {
				t.Fatal(err)
			}
			got := Plane(spentPlane, reqs, taxis, m.m, f.params, workers)
			if spentPlane != nil && got != spentPlane {
				t.Fatalf("%s: Plane did not build into the spent plane", label)
			}
			gotInst, err := Refill(spentInst, got, f.params)
			if err != nil {
				t.Fatal(err)
			}
			checkRecycled(t, label, got, want, gotInst, wantInst)
			spentPlane, spentInst = got, gotInst
		}
	}
}

// TestRefillKeepsSpentOnError checks that a Refill whose params fail
// validation leaves the spent instance as it was.
func TestRefillKeepsSpentOnError(t *testing.T) {
	reqs, taxis := planeWorld(20, 30, 9)
	pl := Plane(nil, reqs, taxis, geo.EuclidMetric, DefaultParams(), 1)
	inst, err := FromPlane(pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	before := len(inst.byReq)
	bad := DefaultParams()
	bad.MaxNet = math.NaN()
	if got, err := Refill(inst, pl, bad); err == nil || got != nil {
		t.Fatalf("Refill with NaN MaxNet = %v, %v; want an error", got, err)
	}
	if len(inst.byReq) != before || inst.plane != pl || inst.Validate() != nil {
		t.Fatal("a failed Refill changed the spent instance")
	}
}
