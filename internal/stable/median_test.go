package stable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMedianStableIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.4+rng.Float64()*0.6)
		m := MedianStable(mk, 0)
		if err := IsStable(mk, m); err != nil {
			t.Fatalf("trial %d: median unstable: %v", trial, err)
		}
	}
}

func TestMedianStableBetweenExtremes(t *testing.T) {
	// For every request the median partner is weakly worse than the
	// passenger-optimal partner and weakly better than the
	// taxi-optimal partner.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.6)
		med := MedianStable(mk, 0)
		po := PassengerOptimal(mk)
		to := TaxiOptimal(mk)
		for j := 0; j < r; j++ {
			if worseForReq(mk, j, po.ReqPartner[j], med.ReqPartner[j]) {
				t.Fatalf("trial %d: request %d does better under median than passenger-optimal", trial, j)
			}
			if worseForReq(mk, j, med.ReqPartner[j], to.ReqPartner[j]) {
				t.Fatalf("trial %d: request %d does worse under median than taxi-optimal", trial, j)
			}
		}
	}
}

func TestMedianStableFourRotations(t *testing.T) {
	// The 4-matching lattice from TestAllStableMatchingsLimit: the
	// median must be one of the middle matchings, not an extreme.
	reqCost := [][]float64{
		{1, 2, 3, 4},
		{2, 1, 4, 3},
		{3, 4, 1, 2},
		{4, 3, 2, 1},
	}
	taxiCost := [][]float64{
		{4, 3, 2, 1},
		{3, 4, 1, 2},
		{2, 1, 4, 3},
		{1, 2, 3, 4},
	}
	mk := marketFromCosts(reqCost, taxiCost)
	all := AllStableMatchings(mk, 0)
	if len(all) < 3 {
		t.Fatalf("premise: want >= 3 stable matchings, got %d", len(all))
	}
	med := MedianStable(mk, 0)
	if err := IsStable(mk, med); err != nil {
		t.Fatalf("median unstable: %v", err)
	}
	found := false
	for _, m := range all {
		if m.Equal(med) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("median %v not among the %d stable matchings", med.ReqPartner, len(all))
	}
}

func TestMedianStableTruncatedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		mk := randomMarket(rng, 5, 5, 0.8)
		// A cap of 2 truncates richer lattices; the result must still
		// be stable.
		m := MedianStable(mk, 2)
		if err := IsStable(mk, m); err != nil {
			t.Fatalf("trial %d: truncated median unstable: %v", trial, err)
		}
	}
}

// TestStableQuickProperties drives the core invariants through
// testing/quick: for any random market, Algorithm 1 is stable, idempotent
// and passenger-side rural-hospitals-consistent with the taxi-proposing
// mirror.
func TestStableQuickProperties(t *testing.T) {
	property := func(seed int64, rRaw, tRaw uint8, acceptRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + int(rRaw%7)
		tt := 1 + int(tRaw%7)
		accept := 0.2 + float64(acceptRaw%80)/100
		mk := randomMarket(rng, r, tt, accept)

		po := PassengerOptimal(mk)
		if IsStable(mk, po) != nil {
			return false
		}
		if !po.Equal(PassengerOptimal(mk)) {
			return false
		}
		to := TaxiOptimal(mk)
		if IsStable(mk, to) != nil {
			return false
		}
		// Rural hospitals across the two extremes.
		if po.Size() != to.Size() {
			return false
		}
		for j := 0; j < r; j++ {
			if (po.ReqPartner[j] == Unmatched) != (to.ReqPartner[j] == Unmatched) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompanyOptimalIsStableQuick(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := randomMarket(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.3+rng.Float64()*0.7)
		objective := func(m Matching) float64 {
			total := 0.0
			for j, i := range m.ReqPartner {
				if i != Unmatched {
					rc, tc := pairCosts(mk, j, i)
					total += rc * tc
				}
			}
			return total
		}
		best := CompanyOptimal(mk, objective, 0)
		if IsStable(mk, best) != nil {
			return false
		}
		// The selected matching must indeed minimise the objective
		// over the enumerated set.
		for _, m := range AllStableMatchings(mk, 0) {
			if objective(m) < objective(best)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
