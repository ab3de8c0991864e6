package share

import (
	"fmt"
	"math/rand"
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/roadnet"
	"stabledispatch/internal/stable"
)

// The tests in this file check that a frame's market has exactly one
// stable matching (DESIGN.md, "One stable matching per frame"), on both
// of the paper's interest models: the non-sharing market of §IV-A
// (pref.NewInstance) and Algorithm 3's unit market of §V-A
// (BuildMarketPlane).

// uniqueMetric is one metric the frames are drawn under.
type uniqueMetric struct {
	name string
	m    geo.Metric
}

// uniqueMetrics returns the straight-line metrics and a metric over an
// 11×11 road grid of 1-km blocks, which covers the property test's
// [0, 10] km box.
func uniqueMetrics(t testing.TB) []uniqueMetric {
	t.Helper()
	g, err := roadnet.NewGrid(roadnet.GridConfig{Rows: 11, Cols: 11, Spacing: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return []uniqueMetric{{"euclid", geo.EuclidMetric}, {"manhattan", geo.ManhattanMetric}, {"roadnet", roadnet.NewMetric(g, 64)}}
}

// uniqueParams returns the thresholds of kind 0 (pref.DefaultParams),
// 1 (pref.Unbounded) or 2 (randomParams, drawing from intn).
func uniqueParams(kind int, intn func(int) int) pref.Params {
	switch kind {
	case 0:
		return pref.DefaultParams()
	case 1:
		return pref.Unbounded()
	}
	return randomParams(intn)
}

// uniqueFrame draws up to 12 requests of 1–3 riders and up to 12 taxis
// of 2–4 seats, so some triples do not fit some taxis.
func uniqueFrame(intn func(int) int, coord func() float64) ([]fleet.Request, []fleet.Taxi) {
	pt := func() geo.Point { return geo.Point{X: coord(), Y: coord()} }
	reqs := make([]fleet.Request, 1+intn(12))
	for j := range reqs {
		reqs[j] = fleet.Request{ID: 100 + j, Pickup: pt(), Dropoff: pt(), Seats: 1 + intn(3)}
	}
	taxis := make([]fleet.Taxi, 1+intn(12))
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: 200 + i, Pos: pt(), Seats: 2 + intn(3)}
	}
	return reqs, taxis
}

// uniqueMarket builds the frame's non-sharing market, or with units its
// §V-A unit market as STD builds it: units from randomGroupUnits, taxi
// rows pruned at the unit radii.
func uniqueMarket(t testing.TB, reqs []fleet.Request, taxis []fleet.Taxi, m geo.Metric, params pref.Params, units bool, intn func(int) int) *pref.Market {
	t.Helper()
	if !units {
		inst, err := pref.NewInstance(reqs, taxis, m, params)
		if err != nil {
			t.Fatal(err)
		}
		return &inst.Market
	}
	base, us := randomGroupUnits(t, reqs, m, PackConfig{Theta: 4, MaxGroupSize: 3, PairRadius: 4}, intn)
	mk, err := BuildMarketPlane(us, taxis, fillUnitRows(base, preparedUnits(t, us, base, params), taxis, 1), params)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// mutualTop is an oracle for the unique stable matching that makes no
// proposals: it matches every request and taxi that are each other's
// best remaining acceptable partner under pref.Better, removes them,
// and repeats. Such a pair is matched in every stable matching of what
// remains, or it would block it, so when the elimination runs until no
// acceptable pair is left, its matching is the only stable one. It
// reports false when acceptable pairs remain and none is mutually top:
// the top choices then cycle through more than two agents, which is a
// rotation.
func mutualTop(mk *pref.Market) (stable.Matching, bool) {
	nReq, nTaxi := mk.NumRequests(), mk.NumTaxis()
	m := stable.NewMatching(nReq, nTaxi)
	reqTop := make([]int, nReq)
	taxiTop := make([]int, nTaxi)
	taxiTopCost := make([]float64, nTaxi)
	for {
		for i := range taxiTop {
			taxiTop[i] = stable.Unmatched
		}
		left := false
		for j := range reqTop {
			reqTop[j] = stable.Unmatched
			if m.ReqPartner[j] != stable.Unmatched {
				continue
			}
			var topCost float64
			for _, e := range mk.ReqEntries(j) {
				i := e.Partner
				if m.TaxiPartner[i] != stable.Unmatched {
					continue
				}
				left = true
				if reqTop[j] == stable.Unmatched || pref.Better(e.ReqCost, i, topCost, reqTop[j]) {
					reqTop[j], topCost = i, e.ReqCost
				}
				if taxiTop[i] == stable.Unmatched || pref.Better(e.TaxiCost, j, taxiTopCost[i], taxiTop[i]) {
					taxiTop[i], taxiTopCost[i] = j, e.TaxiCost
				}
			}
		}
		if !left {
			return m, true
		}
		matched := false
		for j, i := range reqTop {
			if i != stable.Unmatched && taxiTop[i] == j {
				m.ReqPartner[j], m.TaxiPartner[i] = i, j
				matched = true
			}
		}
		if !matched {
			return m, false
		}
	}
}

// checkOneStable fails unless Algorithm 2 finds exactly one stable
// matching in mk, both proposing sides reach it, and mutual-top
// elimination reaches it too. It returns the matching's size.
func checkOneStable(t testing.TB, what string, mk *pref.Market) int {
	t.Helper()
	all := stable.AllStableMatchings(mk, 0)
	po, to := stable.PassengerOptimal(mk), stable.TaxiOptimal(mk)
	top, ok := mutualTop(mk)
	switch {
	case len(all) != 1:
		t.Fatalf("%s: %d stable matchings, want 1: %v and %v", what, len(all), all[0].ReqPartner, all[1].ReqPartner)
	case !to.Equal(po):
		t.Fatalf("%s: taxi-optimal %v differs from passenger-optimal %v", what, to.ReqPartner, po.ReqPartner)
	case !ok:
		t.Fatalf("%s: no mutually top pair among the unmatched after %v", what, top.ReqPartner)
	case !top.Equal(po):
		t.Fatalf("%s: mutual-top elimination %v differs from passenger-optimal %v", what, top.ReqPartner, po.ReqPartner)
	}
	return po.Size()
}

// hasCostTie reports whether some request's or taxi's row holds two
// entries at one cost, so that its order rests on the index tie-break.
func hasCostTie(mk *pref.Market) bool {
	for j := range mk.NumRequests() {
		row := mk.ReqEntries(j)
		for k := 1; k < len(row); k++ {
			if row[k].ReqCost == row[k-1].ReqCost {
				return true
			}
		}
	}
	for i := range mk.NumTaxis() {
		row := mk.TaxiEntries(i)
		for k := 1; k < len(row); k++ {
			if row[k].TaxiCost == row[k-1].TaxiCost {
				return true
			}
		}
	}
	return false
}

// TestOneStableMatchingPerMarket draws frames under each metric, on the
// integer lattice (where costs tie often) and at real-valued points,
// under default, unbounded and random thresholds, and checks that both
// interest models' markets have exactly one stable matching.
func TestOneStableMatchingPerMarket(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	var markets, contested, tiedLattice int
	for _, mc := range uniqueMetrics(t) {
		for _, lattice := range []bool{true, false} {
			coord := func() float64 { return 10 * rng.Float64() }
			if lattice {
				coord = func() float64 { return float64(rng.Intn(11)) }
			}
			for trial := 0; trial < 200; trial++ {
				for kind := 0; kind < 3; kind++ {
					for _, units := range []bool{false, true} {
						reqs, taxis := uniqueFrame(rng.Intn, coord)
						params := uniqueParams(kind, rng.Intn)
						mk := uniqueMarket(t, reqs, taxis, mc.m, params, units, rng.Intn)
						what := fmt.Sprintf("%s lattice=%v trial %d params %+v units=%v", mc.name, lattice, trial, params, units)
						if checkOneStable(t, what, mk) >= 2 {
							contested++
						}
						if lattice && hasCostTie(mk) {
							tiedLattice++
						}
						markets++
					}
				}
			}
		}
	}
	// Most markets must match two or more pairs, where a second stable
	// matching could exist, and the lattice must exercise the index
	// tie-break.
	if contested < markets/2 || tiedLattice < markets/8 {
		t.Fatalf("fixtures too easy: %d of %d markets match two or more pairs, %d lattice markets hold a cost tie",
			contested, markets, tiedLattice)
	}
}

// FuzzUniqueStable checks the property of TestOneStableMatchingPerMarket
// on frames decoded from the input: the first bytes pick the metric,
// the thresholds and the interest model, then one byte per choice and
// two per coordinate, a uint16 in metres (so at most 65.535 km, a
// city's scale); an exhausted input reads zeros.
func FuzzUniqueStable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 3, 232, 7, 208, 0, 0, 1, 11, 184, 3, 232, 7, 208, 2})
	f.Add([]byte("\x01\x01\x01\x07ties on a lattice: 00000000 11111111 22222222 33333333"))
	f.Add([]byte("\x02\x02\x00\x0bstraight lines across a small town, several taxis idle at once"))
	metrics := uniqueMetrics(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		intn := func(n int) int { return next() % n }
		coord := func() float64 { return float64(next()<<8|next()) / 1000 }
		mc := metrics[intn(len(metrics))]
		params := uniqueParams(intn(3), intn)
		units := intn(2) == 1
		reqs, taxis := uniqueFrame(intn, coord)
		mk := uniqueMarket(t, reqs, taxis, mc.m, params, units, intn)
		checkOneStable(t, fmt.Sprintf("%s params %+v units=%v", mc.name, params, units), mk)
	})
}
