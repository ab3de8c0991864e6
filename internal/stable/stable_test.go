package stable

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stabledispatch/internal/pref"
)

// denseMarket builds a market from dense cost matrices, reqCost[j][i]
// and taxiCost[i][j], keeping the pairs ok accepts (nil keeps all).
func denseMarket(reqCost, taxiCost [][]float64, ok func(j, i int) bool) *pref.Market {
	var pairs []pref.Pair
	for j := range reqCost {
		for i := range taxiCost {
			if ok == nil || ok(j, i) {
				pairs = append(pairs, pref.Pair{Req: j, Taxi: i, ReqCost: reqCost[j][i], TaxiCost: taxiCost[i][j]})
			}
		}
	}
	return pref.NewMarket(len(reqCost), len(taxiCost), pairs)
}

// marketFromCosts builds a fully acceptable market from explicit cost
// matrices: reqCost[j][i] and taxiCost[i][j].
func marketFromCosts(reqCost, taxiCost [][]float64) *pref.Market {
	return denseMarket(reqCost, taxiCost, nil)
}

// randomMarket generates a market with integer-ish costs (to exercise
// tie-breaking) and random one-sided acceptability: each side accepts
// each pair with probability acceptProb, and only pairs both sides
// accept are kept.
func randomMarket(rng *rand.Rand, r, t int, acceptProb float64) *pref.Market {
	reqCost, reqOK := make([][]float64, r), make([][]bool, r)
	for j := 0; j < r; j++ {
		reqCost[j], reqOK[j] = make([]float64, t), make([]bool, t)
		for i := 0; i < t; i++ {
			reqCost[j][i] = float64(rng.Intn(6))
			reqOK[j][i] = rng.Float64() < acceptProb
		}
	}
	taxiCost, taxiOK := make([][]float64, t), make([][]bool, t)
	for i := 0; i < t; i++ {
		taxiCost[i], taxiOK[i] = make([]float64, r), make([]bool, r)
		for j := 0; j < r; j++ {
			taxiCost[i][j] = float64(rng.Intn(6))
			taxiOK[i][j] = rng.Float64() < acceptProb
		}
	}
	return denseMarket(reqCost, taxiCost, func(j, i int) bool { return reqOK[j][i] && taxiOK[i][j] })
}

// TestAlgorithm1PaperExample encodes the worked example of the paper's
// Fig. 2: the first request is accepted by its top choice, the second is
// refused everywhere acceptable and ends unserved, and the third
// displaces the first, which then settles for its second choice.
func TestAlgorithm1PaperExample(t *testing.T) {
	inf := math.Inf(1)
	// Request costs: r0 ranks t0 < t1; r1 accepts only t0; r2 accepts
	// only t0.
	reqCost := [][]float64{
		{1, 2, inf},
		{1, inf, inf},
		{1, inf, inf},
	}
	// Taxi t0 ranks r2 < r0 < r1.
	taxiCost := [][]float64{
		{2, 3, 1},
		{1, 1, 1},
		{1, 1, 1},
	}
	// Encode the "inf" entries as behind the dummy.
	mk := denseMarket(reqCost, taxiCost, func(j, i int) bool { return !math.IsInf(reqCost[j][i], 1) })

	m := PassengerOptimal(mk)
	if err := IsStable(mk, m); err != nil {
		t.Fatalf("IsStable: %v", err)
	}
	want := []int{1, Unmatched, 0} // r0->t1, r1 unserved, r2->t0
	for j, w := range want {
		if m.ReqPartner[j] != w {
			t.Errorf("ReqPartner[%d] = %d, want %d (full: %v)", j, m.ReqPartner[j], w, m.ReqPartner)
		}
	}
}

// TestAlgorithm2PaperExample mirrors the Fig. 3 walk-through: from the
// passenger-optimal matching exactly one further stable matching is
// reachable, and it is the taxi-optimal one.
func TestAlgorithm2PaperExample(t *testing.T) {
	// Crossed preferences: two stable matchings.
	reqCost := [][]float64{
		{1, 2}, // r0: t0 then t1
		{2, 1}, // r1: t1 then t0
	}
	taxiCost := [][]float64{
		{2, 1}, // t0: r1 then r0
		{1, 2}, // t1: r0 then r1
	}
	mk := marketFromCosts(reqCost, taxiCost)

	all := AllStableMatchings(mk, 0)
	if len(all) != 2 {
		t.Fatalf("AllStableMatchings returned %d matchings, want 2: %v", len(all), all)
	}
	po := all[0]
	if po.ReqPartner[0] != 0 || po.ReqPartner[1] != 1 {
		t.Errorf("passenger-optimal = %v, want [0 1]", po.ReqPartner)
	}
	to := all[1]
	if to.ReqPartner[0] != 1 || to.ReqPartner[1] != 0 {
		t.Errorf("second matching = %v, want taxi-optimal [1 0]", to.ReqPartner)
	}
	if got := TaxiOptimal(mk); !got.Equal(to) {
		t.Errorf("TaxiOptimal = %v, want %v", got.ReqPartner, to.ReqPartner)
	}
}

func TestPassengerOptimalEmpty(t *testing.T) {
	mk := marketFromCosts(nil, nil)
	m := PassengerOptimal(mk)
	if len(m.ReqPartner) != 0 || len(m.TaxiPartner) != 0 {
		t.Errorf("empty market matching = %v", m)
	}
	all := AllStableMatchings(mk, 0)
	if len(all) != 1 {
		t.Errorf("empty market has %d stable matchings, want 1 (the empty one)", len(all))
	}
}

func TestNoAcceptablePairs(t *testing.T) {
	mk := randomMarket(rand.New(rand.NewSource(1)), 4, 3, 0 /* nothing acceptable */)
	m := PassengerOptimal(mk)
	if m.Size() != 0 {
		t.Errorf("Size = %d, want 0", m.Size())
	}
	if err := IsStable(mk, m); err != nil {
		t.Errorf("IsStable: %v", err)
	}
}

func TestUnequalSides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ r, t int }{{5, 2}, {2, 5}, {1, 7}, {7, 1}, {6, 6}}
	for _, sh := range shapes {
		mk := randomMarket(rng, sh.r, sh.t, 0.9)
		m := PassengerOptimal(mk)
		if err := IsStable(mk, m); err != nil {
			t.Errorf("%dx%d passenger-optimal unstable: %v", sh.r, sh.t, err)
		}
		mt := TaxiOptimal(mk)
		if err := IsStable(mk, mt); err != nil {
			t.Errorf("%dx%d taxi-optimal unstable: %v", sh.r, sh.t, err)
		}
	}
}

func TestPassengerOptimalStableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		r, tt := 1+rng.Intn(7), 1+rng.Intn(7)
		mk := randomMarket(rng, r, tt, 0.3+rng.Float64()*0.7)
		m := PassengerOptimal(mk)
		if err := IsStable(mk, m); err != nil {
			t.Fatalf("trial %d (%dx%d): %v\nmatching: %v", trial, r, tt, err, m.ReqPartner)
		}
	}
}

func TestEnumerationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.4+rng.Float64()*0.6)

		want, err := BruteForceAll(mk, 8)
		if err != nil {
			t.Fatalf("BruteForceAll: %v", err)
		}
		got := AllStableMatchings(mk, 0)

		wantKeys := make(map[string]bool, len(want))
		for _, m := range want {
			wantKeys[m.Key()] = true
		}
		gotKeys := make(map[string]bool, len(got))
		for _, m := range got {
			if gotKeys[m.Key()] {
				t.Fatalf("trial %d: duplicate matching %v (Theorem 4 violated)", trial, m.ReqPartner)
			}
			gotKeys[m.Key()] = true
		}
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("trial %d (%dx%d): enumeration found %d stable matchings, brute force %d",
				trial, r, tt, len(gotKeys), len(wantKeys))
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Fatalf("trial %d: matching %s missing from enumeration", trial, k)
			}
		}
	}
}

func TestPassengerOptimality(t *testing.T) {
	// Property 2: in Algorithm 1's output every request has its best
	// partner across all stable matchings, and every taxi its worst.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.5+rng.Float64()*0.5)
		all, err := BruteForceAll(mk, 8)
		if err != nil {
			t.Fatalf("BruteForceAll: %v", err)
		}
		po := PassengerOptimal(mk)
		to := TaxiOptimal(mk)
		for _, m := range all {
			for j := 0; j < r; j++ {
				if worseForReq(mk, j, po.ReqPartner[j], m.ReqPartner[j]) {
					t.Fatalf("trial %d: request %d does better in %v than in passenger-optimal %v",
						trial, j, m.ReqPartner, po.ReqPartner)
				}
			}
			for i := 0; i < tt; i++ {
				if worseForTaxi(mk, i, to.TaxiPartner[i], m.TaxiPartner[i]) {
					t.Fatalf("trial %d: taxi %d does better in %v than in taxi-optimal",
						trial, i, m.ReqPartner)
				}
			}
		}
	}
}

// worseForReq reports whether partner got is strictly worse for request j
// than alternative alt (dummies are worst among acceptable options).
func worseForReq(mk *pref.Market, j, got, alt int) bool {
	if got == alt {
		return false
	}
	if got == Unmatched {
		return alt != Unmatched
	}
	if alt == Unmatched {
		return false
	}
	return mk.ReqPrefers(j, alt, got)
}

func worseForTaxi(mk *pref.Market, i, got, alt int) bool {
	if got == alt {
		return false
	}
	if got == Unmatched {
		return alt != Unmatched
	}
	if alt == Unmatched {
		return false
	}
	return mk.TaxiPrefers(i, alt, got)
}

func TestRuralHospitalsProperty(t *testing.T) {
	// Theorem 2 and its mirror: the set of served requests (and of
	// dispatched taxis) is identical across all stable matchings.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.5)
		all := AllStableMatchings(mk, 0)
		base := all[0]
		for _, m := range all[1:] {
			for j := 0; j < r; j++ {
				if (base.ReqPartner[j] == Unmatched) != (m.ReqPartner[j] == Unmatched) {
					t.Fatalf("trial %d: request %d served in one stable matching but not another", trial, j)
				}
			}
			for i := 0; i < tt; i++ {
				if (base.TaxiPartner[i] == Unmatched) != (m.TaxiPartner[i] == Unmatched) {
					t.Fatalf("trial %d: taxi %d dispatched in one stable matching but not another", trial, i)
				}
			}
		}
	}
}

func TestTaxiOptimalMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.6)
		all := AllStableMatchings(mk, 0)
		to := TaxiOptimal(mk)
		if err := IsStable(mk, to); err != nil {
			t.Fatalf("trial %d: taxi-optimal unstable: %v", trial, err)
		}
		// The taxi-proposing matching must be in the enumerated set
		// and weakly best for every taxi.
		found := false
		for _, m := range all {
			if m.Equal(to) {
				found = true
			}
			for i := 0; i < tt; i++ {
				if worseForTaxi(mk, i, to.TaxiPartner[i], m.TaxiPartner[i]) {
					t.Fatalf("trial %d: taxi %d prefers enumerated matching over TaxiOptimal", trial, i)
				}
			}
		}
		if !found {
			t.Fatalf("trial %d: TaxiOptimal %v not among %d enumerated stable matchings",
				trial, to.ReqPartner, len(all))
		}
	}
}

func TestAllStableMatchingsLimit(t *testing.T) {
	// Interleaved crossed preferences yield multiple stable matchings;
	// the limit must cap the result length.
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
		t.Fatalf("expected a rich instance, got %d stable matchings", len(all))
	}
	capped := AllStableMatchings(mk, 2)
	if len(capped) != 2 {
		t.Errorf("limit 2 returned %d matchings", len(capped))
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mk := randomMarket(rng, 6, 6, 0.7)
	m1 := PassengerOptimal(mk)
	m2 := PassengerOptimal(mk)
	if !m1.Equal(m2) {
		t.Error("PassengerOptimal is not deterministic")
	}
	a1 := AllStableMatchings(mk, 0)
	a2 := AllStableMatchings(mk, 0)
	if len(a1) != len(a2) {
		t.Fatal("AllStableMatchings is not deterministic")
	}
	for i := range a1 {
		if !a1[i].Equal(a2[i]) {
			t.Fatal("AllStableMatchings order is not deterministic")
		}
	}
}

func TestIsStableDetectsViolations(t *testing.T) {
	reqCost := [][]float64{
		{1, 2},
		{2, 1},
	}
	taxiCost := [][]float64{
		{1, 2},
		{2, 1},
	}
	mk := marketFromCosts(reqCost, taxiCost)

	// Unique stable matching pairs r0-t0, r1-t1. The swap is blocked.
	bad := NewMatching(2, 2)
	bad.ReqPartner[0], bad.TaxiPartner[1] = 1, 0
	bad.ReqPartner[1], bad.TaxiPartner[0] = 0, 1
	if err := IsStable(mk, bad); err == nil {
		t.Error("IsStable accepted a matching with a blocking pair")
	}

	// Leaving everyone unmatched is also blocked (dummies prefer
	// non-dummies).
	empty := NewMatching(2, 2)
	if err := IsStable(mk, empty); err == nil {
		t.Error("IsStable accepted the empty matching despite mutual acceptability")
	}

	// Inconsistent pairing must be rejected.
	broken := NewMatching(2, 2)
	broken.ReqPartner[0] = 1 // taxi 1 does not point back
	if err := IsStable(mk, broken); err == nil {
		t.Error("IsStable accepted an inconsistent matching")
	}

	// Matching behind a dummy must be rejected.
	mk = denseMarket(reqCost, taxiCost, func(j, i int) bool { return j != 0 || i != 0 })
	irr := NewMatching(2, 2)
	irr.ReqPartner[0], irr.TaxiPartner[0] = 0, 0
	if err := IsStable(mk, irr); err == nil {
		t.Error("IsStable accepted an individually irrational pair")
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

func TestMatchingHelpers(t *testing.T) {
	m := NewMatching(3, 2)
	if m.Size() != 0 {
		t.Errorf("empty Size = %d", m.Size())
	}
	m.ReqPartner[1] = 0
	m.TaxiPartner[0] = 1
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1", m.Size())
	}
	c := m.Clone()
	c.ReqPartner[1] = Unmatched
	if m.ReqPartner[1] != 0 {
		t.Error("Clone aliases the original")
	}
	if m.Equal(c) {
		t.Error("Equal = true for different matchings")
	}
	if m.Key() == c.Key() {
		t.Error("Key collision for different matchings")
	}
	other := NewMatching(2, 2)
	if m.Equal(other) {
		t.Error("Equal = true for different sizes")
	}
}

func TestBruteForceRefusesLargeInstances(t *testing.T) {
	mk := randomMarket(rand.New(rand.NewSource(9)), 10, 3, 0.5)
	if _, err := BruteForceAll(mk, 8); err == nil {
		t.Error("BruteForceAll accepted an oversized instance")
	}
}

func TestBlockingPairsAgreesWithIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		r, tt := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := randomMarket(rng, r, tt, 0.5)

		// A stable matching has no blocking pairs.
		po := PassengerOptimal(mk)
		if pairs := BlockingPairs(mk, po); len(pairs) != 0 {
			t.Fatalf("trial %d: stable matching has blocking pairs %v", trial, pairs)
		}

		// A random (possibly unstable) matching: BlockingPairs is
		// empty exactly when IsStable passes.
		random := NewMatching(r, tt)
		for j := 0; j < r; j++ {
			if rng.Float64() < 0.5 {
				i := rng.Intn(tt)
				if random.TaxiPartner[i] == Unmatched {
					random.ReqPartner[j] = i
					random.TaxiPartner[i] = j
				}
			}
		}
		pairs := BlockingPairs(mk, random)
		stableErr := IsStable(mk, random)
		if (len(pairs) == 0) != (stableErr == nil) {
			t.Fatalf("trial %d: %d blocking pairs but IsStable = %v", trial, len(pairs), stableErr)
		}
	}
}

func TestBlockingPairsDescribesViolation(t *testing.T) {
	reqCost := [][]float64{
		{1, 2},
		{2, 1},
	}
	taxiCost := [][]float64{
		{1, 2},
		{2, 1},
	}
	mk := marketFromCosts(reqCost, taxiCost)
	// Swap against everyone's preference: r0-t1, r1-t0 makes (0,0) and
	// (1,1) blocking.
	bad := NewMatching(2, 2)
	bad.ReqPartner[0], bad.TaxiPartner[1] = 1, 0
	bad.ReqPartner[1], bad.TaxiPartner[0] = 0, 1
	pairs := BlockingPairs(mk, bad)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2", pairs)
	}
	if pairs[0].Request != 0 || pairs[0].Taxi != 0 {
		t.Errorf("first pair = %+v", pairs[0])
	}
	if s := pairs[0].String(); !strings.Contains(s, "r0") || !strings.Contains(s, "t0") {
		t.Errorf("String = %q", s)
	}

	// An irrational pairing is reported too.
	mk = denseMarket(reqCost, taxiCost, func(j, i int) bool { return j != 0 || i != 1 })
	pairs = BlockingPairs(mk, bad)
	found := false
	for _, p := range pairs {
		if p.Request == 0 && p.Taxi == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("irrational pair not reported: %v", pairs)
	}

	// Unmatched partners render as dummy.
	empty := NewMatching(2, 2)
	mk2 := marketFromCosts(reqCost, taxiCost)
	pairs = BlockingPairs(mk2, empty)
	if len(pairs) == 0 || !strings.Contains(pairs[0].String(), "dummy") {
		t.Errorf("dummy rendering missing: %v", pairs)
	}
}
