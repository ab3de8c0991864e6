package share

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

// sameBits reports whether two floats are equal to the bit, so a NaN
// equals itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRecycledPlane fails unless got, a plane built into a previous
// frame's storage, equals want bit for bit: trips, pair rows and taxi
// rows.
func checkRecycledPlane(t *testing.T, label string, got, want *costplane.Plane) {
	t.Helper()
	if len(got.Requests) != len(want.Requests) || len(got.Taxis) != len(want.Taxis) || got.PairRows() != want.PairRows() {
		t.Fatalf("%s: plane is %d×%d with %d pair rows, want %d×%d with %d", label,
			len(got.Requests), len(got.Taxis), got.PairRows(), len(want.Requests), len(want.Taxis), want.PairRows())
	}
	if !slices.EqualFunc(got.Trips(), want.Trips(), sameBits) {
		t.Fatalf("%s: trips %v, want %v", label, got.Trips(), want.Trips())
	}
	for j := 0; j < want.PairRows(); j++ {
		for k := 0; k < want.PairRows(); k++ {
			if !sameBits(got.PairDist(j, k), want.PairDist(j, k)) {
				t.Fatalf("%s: pair (%d,%d) = %v, want %v", label, j, k, got.PairDist(j, k), want.PairDist(j, k))
			}
		}
	}
	for i := range want.Taxis {
		same := func(a, b costplane.Entry) bool { return a.Req == b.Req && sameBits(a.Dist, b.Dist) }
		if !slices.EqualFunc(got.PickupRow(i), want.PickupRow(i), same) {
			t.Fatalf("%s: taxi row %d = %v, want %v", label, i, got.PickupRow(i), want.PickupRow(i))
		}
	}
}

// checkRecycledMarket fails unless two markets hold the same rows on
// both sides, bit for bit.
func checkRecycledMarket(t *testing.T, label string, got, want *pref.Market) {
	t.Helper()
	if got.NumRequests() != want.NumRequests() || got.NumTaxis() != want.NumTaxis() {
		t.Fatalf("%s: market is %d×%d, want %d×%d", label, got.NumRequests(), got.NumTaxis(), want.NumRequests(), want.NumTaxis())
	}
	same := func(a, b pref.Entry) bool {
		return a.Partner == b.Partner && sameBits(a.ReqCost, b.ReqCost) && sameBits(a.TaxiCost, b.TaxiCost)
	}
	for k := 0; k < want.NumRequests(); k++ {
		if !slices.EqualFunc(got.ReqEntries(k), want.ReqEntries(k), same) {
			t.Fatalf("%s: unit row %d = %v, want %v", label, k, got.ReqEntries(k), want.ReqEntries(k))
		}
	}
	for i := 0; i < want.NumTaxis(); i++ {
		if !slices.EqualFunc(got.TaxiEntries(i), want.TaxiEntries(i), same) {
			t.Fatalf("%s: taxi row %d = %v, want %v", label, i, got.TaxiEntries(i), want.TaxiEntries(i))
		}
	}
}

// TestRecycledUnitFramesMatchFreshBuilds builds a sequence of random
// frames through Algorithm 3's second stage as dispatch.STD does, each
// into the previous frame's storage: the request plane
// (costplane.Rebuild) with pair rows for a batch shorter than the queue
// and PairRadius pruning, the units (Units.Fill), the unit taxi rows
// filled into that plane in place (FillTaxis at Units.AppendRadii), the
// unit market (Units.Market) and both matchings (stable.Solver). Each
// is checked against fresh builds of the same frame: Build, UnitsPlane
// plus SingleUnitPlane for the overflow, BuildMarketPlane,
// PassengerOptimal and TaxiOptimal. The queue grows past the batch,
// shrinks, empties and holds one request, and the fleet empties; the
// thresholds switch to the every-cell market of Unbounded and back, and
// worker counts vary.
func TestRecycledUnitFramesMatchFreshBuilds(t *testing.T) {
	const batch = 24
	cfg := PackConfig{Theta: 4, MaxGroupSize: 3, PairRadius: 4}
	tight := pref.Params{Alpha: 1, Beta: 1, MaxPickup: 3, MaxNet: 0.5}
	frames := []struct {
		reqs, taxis int
		params      pref.Params
	}{
		{reqs: 20, taxis: 30, params: pref.DefaultParams()},
		{reqs: 70, taxis: 60, params: pref.DefaultParams()}, // grows past the batch
		{reqs: 8, taxis: 10, params: tight},                 // shrinks
		{reqs: 0, taxis: 20, params: pref.DefaultParams()},  // empty queue
		{reqs: 1, taxis: 5, params: pref.DefaultParams()},   // one request, no pair rows
		{reqs: 40, taxis: 0, params: pref.DefaultParams()},  // no taxis
		{reqs: 50, taxis: 40, params: pref.Unbounded()},     // every cell
		{reqs: 30, taxis: 25, params: tight},
		{reqs: 90, taxis: 80, params: pref.DefaultParams()},
		{reqs: 12, taxis: 50, params: pref.DefaultParams()},
	}
	rng := rand.New(rand.NewSource(20261020))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12} }
	for _, m := range []struct {
		name string
		m    geo.Metric
	}{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}} {
		var pl *costplane.Plane
		var us Units
		var mk *pref.Market
		var solver stable.Solver
		var packed, overflow, stored int
		for k, f := range frames {
			reqs := make([]fleet.Request, f.reqs)
			for j := range reqs {
				reqs[j] = fleet.Request{ID: 100*k + j, Pickup: pt(), Dropoff: pt(), Seats: 1 + rng.Intn(2)}
			}
			taxis := make([]fleet.Taxi, f.taxis)
			for i := range taxis {
				taxis[i] = fleet.Taxi{ID: 100*k + i, Pos: pt(), Seats: 2 + rng.Intn(3)}
			}
			workers := 1 + k%3
			n := min(len(reqs), batch)
			planeCfg := costplane.Config{Workers: workers, Pairs: n >= 2, PairRows: n, PairRadius: cfg.PairRadius}
			label := fmt.Sprintf("%s frame %d (%d×%d, workers %d)", m.name, k, f.reqs, f.taxis, workers)

			want := costplane.Build(reqs, nil, m.m, planeCfg)
			res, err := PackPlane(n, want, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantUnits := res.UnitsPlane(want)
			for idx := n; idx < len(reqs); idx++ {
				wantUnits = append(wantUnits, SingleUnitPlane(idx, want))
			}
			fresh := preparedUnits(t, wantUnits, want, f.params)
			fillUnitRows(want, fresh, taxis, workers)
			wantMk, err := BuildMarketPlane(wantUnits, taxis, want, f.params)
			if err != nil {
				t.Fatal(err)
			}

			spent := pl
			pl = costplane.Rebuild(pl, reqs, nil, m.m, planeCfg)
			if spent != nil && pl != spent {
				t.Fatalf("%s: Rebuild did not build into the spent plane", label)
			}
			res, err = PackPlane(n, pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			units := us.Fill(res, pl, n)
			if !reflect.DeepEqual(units, wantUnits) && (len(units) > 0 || len(wantUnits) > 0) {
				t.Fatalf("%s: units %v, want %v", label, units, wantUnits)
			}
			if err := us.Prepare(pl, f.params); err != nil {
				t.Fatal(err)
			}
			fillUnitRows(pl, &us, taxis, workers)
			checkRecycledPlane(t, label, pl, want)
			spentMk := mk
			mk = us.Market(mk, taxis, pl)
			if spentMk != nil && mk != spentMk {
				t.Fatalf("%s: Market did not build into the spent market", label)
			}
			checkRecycledMarket(t, label, mk, wantMk)
			if got, want := solver.PassengerOptimal(mk, nil), stable.PassengerOptimal(wantMk); !got.Equal(want) || !slices.Equal(got.TaxiPartner, want.TaxiPartner) {
				t.Fatalf("%s: matching %v, want %v", label, got, want)
			}
			if got, want := solver.TaxiOptimal(mk, nil), stable.TaxiOptimal(wantMk); !got.Equal(want) || !slices.Equal(got.TaxiPartner, want.TaxiPartner) {
				t.Fatalf("%s: taxi-optimal matching %v, want %v", label, got, want)
			}
			packed += len(res.Groups)
			overflow += len(reqs) - n
			stored += pl.Entries()
		}
		if packed == 0 || overflow == 0 || stored == 0 {
			t.Fatalf("%s: fixtures miss a case: %d packed groups, %d overflow singles, %d stored cells", m.name, packed, overflow, stored)
		}
	}
}
