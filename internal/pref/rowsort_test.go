package pref

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowCosts are the costs the row-order tests draw from: few enough
// values that rows tie often, with −0 beside +0, both infinities,
// negative costs (a taxi's net cost is negative whenever the trip
// outweighs the pickup) and values one rounding step apart.
var rowCosts = []float64{
	0, math.Copysign(0, -1), 1, 2, 3, -1, -2.5, 0.1, 0.2, 0.1 + 0.2, 0.3,
	math.Inf(1), math.Inf(-1), 1e-300, -1e-300, math.MaxFloat64,
}

// order is the reference preference order: a three-way comparison of
// (cost, partner), lower cost first and a tie to the lower partner.
func order(c1 float64, k1 int, c2 float64, k2 int) int {
	switch {
	case c1 < c2:
		return -1
	case c1 > c2:
		return 1
	}
	return k1 - k2
}

// refSort sorts row by slices.SortFunc under order on one side's cost.
func refSort(row []Entry, taxiSide bool) {
	slices.SortFunc(row, func(a, b Entry) int {
		if taxiSide {
			return order(a.TaxiCost, a.Partner, b.TaxiCost, b.Partner)
		}
		return order(a.ReqCost, a.Partner, b.ReqCost, b.Partner)
	})
}

// sameRow reports whether two rows hold the same entries in the same
// order, telling −0 from +0.
func sameRow(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Partner == y.Partner &&
			math.Float64bits(x.ReqCost) == math.Float64bits(y.ReqCost) &&
			math.Float64bits(x.TaxiCost) == math.Float64bits(y.TaxiCost)
	})
}

// checkRowOrder sorts row on both sides with sortRow, and through a
// one-request and a one-taxi market with the market's own sorts, and
// compares every result with refSort. Partners must be distinct.
func checkRowOrder(t *testing.T, row []Entry) {
	t.Helper()
	for _, taxiSide := range []bool{false, true} {
		want := slices.Clone(row)
		refSort(want, taxiSide)
		got := slices.Clone(row)
		sortRow(got, taxiSide)
		if !sameRow(got, want) {
			t.Fatalf("sortRow(taxiSide=%v) of %v = %v, want %v", taxiSide, row, got, want)
		}
	}
	n := 0
	for _, e := range row {
		n = max(n, e.Partner+1)
	}
	reqRow, taxiRow := make([]Pair, len(row)), make([]Pair, len(row))
	for k, e := range row {
		reqRow[k] = Pair{Req: 0, Taxi: e.Partner, ReqCost: e.ReqCost, TaxiCost: e.TaxiCost}
		taxiRow[k] = Pair{Req: e.Partner, Taxi: 0, ReqCost: e.ReqCost, TaxiCost: e.TaxiCost}
	}
	want := slices.Clone(row)
	refSort(want, false)
	if got := NewMarket(1, n, reqRow).ReqEntries(0); !sameRow(got, want) {
		t.Fatalf("request row of %v = %v, want %v", row, got, want)
	}
	refSort(want, true)
	if got := NewMarket(n, 1, taxiRow).TaxiEntries(0); !sameRow(got, want) {
		t.Fatalf("taxi row of %v = %v, want %v", row, got, want)
	}
}

// TestRowOrderMatchesSortFunc checks both sides' rows against
// slices.SortFunc under order for every length 0–300, on rows whose
// costs tie often and whose partners arrive shuffled.
func TestRowOrderMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 3; trial++ {
			palette := rowCosts[:1+rng.Intn(len(rowCosts))]
			row := make([]Entry, n)
			for k, p := range rng.Perm(n) {
				row[k] = Entry{Partner: p, ReqCost: palette[rng.Intn(len(palette))], TaxiCost: palette[rng.Intn(len(palette))]}
			}
			checkRowOrder(t, row)
		}
	}
}

// FuzzRowOrder decodes bytes into a row, one entry per byte (the low
// and high nibbles pick the two costs from rowCosts; partners are a
// permutation seeded by the input), and checks the row sorts as
// slices.SortFunc sorts it under order.
func FuzzRowOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0x11})
	f.Add([]byte("a row of ties, then more ties: 0000000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(len(data))
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		partners := rand.New(rand.NewSource(seed)).Perm(len(data))
		row := make([]Entry, len(data))
		for k, b := range data {
			row[k] = Entry{Partner: partners[k], ReqCost: rowCosts[b&15], TaxiCost: rowCosts[b>>4]}
		}
		checkRowOrder(t, row)
	})
}
