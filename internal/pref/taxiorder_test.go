package pref_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

// tiedMarkets returns random markets with many cost ties: hand-built
// ones whose costs take four values, and FromPlane ones over lattice
// points, under default and unbounded thresholds.
func tiedMarkets(t *testing.T) map[string]*pref.Market {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	out := map[string]*pref.Market{}
	for trial := 0; trial < 40; trial++ {
		nReq, nTaxi := 1+rng.Intn(12), 1+rng.Intn(12)
		var pairs []pref.Pair
		for j := 0; j < nReq; j++ {
			for i := 0; i < nTaxi; i++ {
				if rng.Intn(3) > 0 {
					pairs = append(pairs, pref.Pair{Req: j, Taxi: i, ReqCost: float64(rng.Intn(4)), TaxiCost: float64(rng.Intn(4))})
				}
			}
		}
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		out[fmt.Sprintf("NewMarket/%d", trial)] = pref.NewMarket(nReq, nTaxi, pairs)
	}
	lattice := func() geo.Point { return geo.Point{X: float64(rng.Intn(7)), Y: float64(rng.Intn(7))} }
	for trial := 0; trial < 20; trial++ {
		reqs := make([]fleet.Request, 1+rng.Intn(30))
		for j := range reqs {
			reqs[j] = fleet.Request{ID: j, Pickup: lattice(), Dropoff: lattice()}
		}
		taxis := make([]fleet.Taxi, 1+rng.Intn(30))
		for i := range taxis {
			taxis[i] = fleet.Taxi{ID: i, Pos: lattice()}
		}
		params := pref.DefaultParams()
		params.MaxPickup = 4
		for name, p := range map[string]pref.Params{"default": params, "unbounded": pref.Unbounded()} {
			inst, err := pref.FromPlane(pref.Plane(nil, reqs, taxis, geo.EuclidMetric, p, 0), p)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("FromPlane/%s/%d", name, trial)] = &inst.Market
		}
	}
	return out
}

// eagerTaxiRows builds every taxi's preference list from the request
// side: the pairs regrouped by taxi, each row sorted by pref.Better.
func eagerTaxiRows(m *pref.Market) [][]pref.Entry {
	rows := make([][]pref.Entry, m.NumTaxis())
	for j := 0; j < m.NumRequests(); j++ {
		for _, e := range m.ReqEntries(j) {
			rows[e.Partner] = append(rows[e.Partner], pref.Entry{Partner: j, ReqCost: e.ReqCost, TaxiCost: e.TaxiCost})
		}
	}
	for _, row := range rows {
		slices.SortFunc(row, func(a, b pref.Entry) int {
			switch {
			case pref.Better(a.TaxiCost, a.Partner, b.TaxiCost, b.Partner):
				return -1
			case pref.Better(b.TaxiCost, b.Partner, a.TaxiCost, a.Partner):
				return 1
			}
			return 0
		})
	}
	return rows
}

// TestLazyTaxiRowsMatchEagerSort checks the taxi side sorted on first
// demand: TaxiRank, read before any sort, is each request's position on
// the eagerly sorted row (-1 off it), and TaxiEntries then returns that
// row.
func TestLazyTaxiRowsMatchEagerSort(t *testing.T) {
	for name, m := range tiedMarkets(t) {
		want := eagerTaxiRows(m)
		for i, row := range want {
			for j := 0; j < m.NumRequests(); j++ {
				k := slices.IndexFunc(row, func(e pref.Entry) bool { return e.Partner == j })
				if got := m.TaxiRank(i, j); got != k {
					t.Fatalf("%s: TaxiRank(%d, %d) = %d, want %d", name, i, j, got, k)
				}
			}
		}
		if pref.TaxiRowsSorted(m) {
			t.Fatalf("%s: ranking sorted the taxi rows", name)
		}
		for i, row := range want {
			if got := m.TaxiEntries(i); !slices.Equal(got, row) {
				t.Fatalf("%s: TaxiEntries(%d) = %v, want %v", name, i, got, row)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPassengerProposingLeavesTaxiRowsUnsorted pins what Algorithm 1
// pays for: building the NSTD-P market, matching it, certifying the
// matching and a broken one, and reading every rank never sort a taxi
// row. Nor does the taxi-proposing mirror: it sorts the request rows of
// its own transposed copy.
func TestPassengerProposingLeavesTaxiRowsUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pt := func() geo.Point { return geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20} }
	reqs := make([]fleet.Request, 150)
	for j := range reqs {
		reqs[j] = fleet.Request{ID: 100 + j, Pickup: pt(), Dropoff: pt()}
	}
	taxis := make([]fleet.Taxi, 120)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: pt()}
	}
	params := pref.DefaultParams()
	inst, err := pref.FromPlane(pref.Plane(nil, reqs, taxis, geo.EuclidMetric, params, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	mk := &inst.Market
	proposals := 0
	m := stable.PassengerOptimalObserved(mk, &stable.Observer{
		Proposal: func(j, i, rival int, _ string) {
			proposals++
			mk.TaxiRank(i, j)
			mk.TaxiRank(i, rival)
		},
		Exhausted: func(int) {},
	})
	if proposals == 0 || m.Size() == 0 {
		t.Fatalf("fixture matched nothing (%d proposals)", proposals)
	}
	if c := dtrace.Certify(1, mk, m.ReqPartner, nil, nil); !c.Stable {
		t.Fatalf("Algorithm 1's matching certified unstable: %+v", c.Violations)
	}
	unmatched := stable.NewMatching(mk.NumRequests(), mk.NumTaxis())
	if c := dtrace.Certify(2, mk, unmatched.ReqPartner, nil, nil); c.Stable || len(c.Violations) == 0 || c.Violations[0].TaxiRank < 0 {
		t.Fatalf("the empty matching certified without rank evidence: %+v", c)
	}
	for i := 0; i < mk.NumTaxis(); i++ {
		mk.TaxiRank(i, m.TaxiPartner[i])
	}
	if pref.TaxiRowsSorted(mk) {
		t.Fatal("Algorithm 1, certification or ranking sorted the taxi rows")
	}
	if stable.TaxiOptimal(mk).Size() == 0 || pref.TaxiRowsSorted(mk) {
		t.Fatal("the taxi-proposing mirror matched nothing or sorted the market's taxi rows")
	}
}

// TestTransposeRoundTrip checks Transpose on the tied markets: the
// result is valid, its request rows are the market's taxi rows and its
// taxi rows the market's request rows, each entry with its costs
// swapped, and transposing it again returns the market's rows and
// costs.
func TestTransposeRoundTrip(t *testing.T) {
	swapped := func(row []pref.Entry) []pref.Entry {
		out := make([]pref.Entry, len(row))
		for k, e := range row {
			out[k] = pref.Entry{Partner: e.Partner, ReqCost: e.TaxiCost, TaxiCost: e.ReqCost}
		}
		return out
	}
	for name, m := range tiedMarkets(t) {
		tr := m.Transpose()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: transposed market: %v", name, err)
		}
		if tr.NumRequests() != m.NumTaxis() || tr.NumTaxis() != m.NumRequests() {
			t.Fatalf("%s: transposed %dx%d market is %dx%d", name, m.NumRequests(), m.NumTaxis(), tr.NumRequests(), tr.NumTaxis())
		}
		for i := 0; i < m.NumTaxis(); i++ {
			if got, want := tr.ReqEntries(i), swapped(m.TaxiEntries(i)); !slices.Equal(got, want) {
				t.Fatalf("%s: transposed request %d = %v, want taxi %d's row %v", name, i, got, i, want)
			}
		}
		for j := 0; j < m.NumRequests(); j++ {
			if got, want := tr.TaxiEntries(j), swapped(m.ReqEntries(j)); !slices.Equal(got, want) {
				t.Fatalf("%s: transposed taxi %d = %v, want request %d's row %v", name, j, got, j, want)
			}
		}
		back := tr.Transpose()
		for j := 0; j < m.NumRequests(); j++ {
			if !slices.Equal(back.ReqEntries(j), m.ReqEntries(j)) {
				t.Fatalf("%s: request %d after two transposes = %v, want %v", name, j, back.ReqEntries(j), m.ReqEntries(j))
			}
		}
		for i := 0; i < m.NumTaxis(); i++ {
			if !slices.Equal(back.TaxiEntries(i), m.TaxiEntries(i)) {
				t.Fatalf("%s: taxi %d after two transposes = %v, want %v", name, i, back.TaxiEntries(i), m.TaxiEntries(i))
			}
		}
	}
}
