package stable_test

import (
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

// fuzzMarket decodes a small market from fuzz input: the first two
// bytes size it (1–5 requests, 1–5 taxis), then one byte per cell gives
// both costs from four levels each, so ties are common, and one
// acceptability bit per side, so acceptability is often one-sided. Only
// pairs both sides accept are kept. The remaining bytes pick a partial
// matching (taxi b%(T+1)−1 for each request, skipping taken taxis),
// which may be unstable or sit behind a dummy.
func fuzzMarket(data []byte) (*pref.Market, stable.Matching, bool) {
	if len(data) < 2 {
		return nil, stable.Matching{}, false
	}
	r, t := 1+int(data[0]%5), 1+int(data[1]%5)
	data = data[2:]
	if len(data) < r*t {
		return nil, stable.Matching{}, false
	}
	var pairs []pref.Pair
	for j := 0; j < r; j++ {
		for i := 0; i < t; i++ {
			b := data[j*t+i]
			if b&16 != 0 && b&32 != 0 {
				pairs = append(pairs, pref.Pair{Req: j, Taxi: i, ReqCost: float64(b & 3), TaxiCost: float64(b >> 2 & 3)})
			}
		}
	}
	data = data[r*t:]
	m := stable.NewMatching(r, t)
	for j := 0; j < r && j < len(data); j++ {
		if i := int(data[j])%(t+1) - 1; i != stable.Unmatched && m.TaxiPartner[i] == stable.Unmatched {
			m.ReqPartner[j], m.TaxiPartner[i] = i, j
		}
	}
	return pref.NewMarket(r, t, pairs), m, true
}

// denseBlockingCount is Definition 1 checked cell by cell, the O(R·T)
// scan the sparse one replaced: irrational pairings plus every mutually
// acceptable unmatched cell both sides prefer over their partners.
func denseBlockingCount(mk *pref.Market, m stable.Matching) int {
	n := 0
	for j, i := range m.ReqPartner {
		if i != stable.Unmatched && !mk.MutualOK(j, i) {
			n++
		}
	}
	for j := 0; j < mk.NumRequests(); j++ {
		for i := 0; i < mk.NumTaxis(); i++ {
			if m.ReqPartner[j] == i || !mk.MutualOK(j, i) {
				continue
			}
			jWants := m.ReqPartner[j] == stable.Unmatched || mk.ReqPrefers(j, i, m.ReqPartner[j])
			iWants := m.TaxiPartner[i] == stable.Unmatched || mk.TaxiPrefers(i, j, m.TaxiPartner[i])
			if jWants && iWants {
				n++
			}
		}
	}
	return n
}

// bestFor builds the matching that gives every member of one side its
// most preferred partner across the stable matchings. prefers(a, x, y)
// reports that a prefers partner x over y.
func bestFor(all []stable.Matching, side func(stable.Matching) []int, prefers func(a, x, y int) bool) []int {
	best := append([]int(nil), side(all[0])...)
	for _, m := range all[1:] {
		for a, p := range side(m) {
			if p != stable.Unmatched && (best[a] == stable.Unmatched || prefers(a, p, best[a])) {
				best[a] = p
			}
		}
	}
	return best
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// FuzzStableCore checks the matching core against brute force on small
// markets: the proposing algorithms return the side-optimal stable
// matchings, Algorithm 2 enumerates exactly the stable set, and the
// O(P) blocking-pair scan, the certificate and the cell-by-cell
// definition agree on any matching.
func FuzzStableCore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mk, random, ok := fuzzMarket(data)
		if !ok {
			return
		}
		if err := mk.Validate(); err != nil {
			t.Fatalf("decoded market invalid: %v", err)
		}
		brute, err := stable.BruteForceAll(mk, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(brute) == 0 {
			t.Fatal("brute force found no stable matching")
		}

		po, to := stable.PassengerOptimal(mk), stable.TaxiOptimal(mk)
		reqBest := bestFor(brute, func(m stable.Matching) []int { return m.ReqPartner }, mk.ReqPrefers)
		if !equalInts(po.ReqPartner, reqBest) {
			t.Fatalf("PassengerOptimal = %v, brute-force request-best = %v", po.ReqPartner, reqBest)
		}
		taxiBest := bestFor(brute, func(m stable.Matching) []int { return m.TaxiPartner }, mk.TaxiPrefers)
		if !equalInts(to.TaxiPartner, taxiBest) {
			t.Fatalf("TaxiOptimal = %v, brute-force taxi-best = %v", to.TaxiPartner, taxiBest)
		}

		all := stable.AllStableMatchings(mk, 0)
		want := map[string]bool{}
		for _, m := range brute {
			want[m.Key()] = true
		}
		got := map[string]bool{}
		for _, m := range all {
			if got[m.Key()] {
				t.Fatalf("AllStableMatchings repeats %s", m.Key())
			}
			got[m.Key()] = true
		}
		if len(got) != len(want) {
			t.Fatalf("AllStableMatchings found %d matchings, brute force %d", len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("AllStableMatchings misses %s", k)
			}
		}

		for _, m := range []stable.Matching{po, to, random} {
			bps := stable.BlockingPairs(mk, m)
			if dense := denseBlockingCount(mk, m); len(bps) != dense {
				t.Fatalf("matching %v: BlockingPairs found %d, the cell-by-cell scan %d", m.ReqPartner, len(bps), dense)
			}
			c := dtrace.Certify(0, mk, m.ReqPartner, nil, nil)
			if c.ViolationsTotal != len(bps) || c.Stable != (len(bps) == 0) {
				t.Fatalf("matching %v: certificate counts %d violations (stable=%v), BlockingPairs %d",
					m.ReqPartner, c.ViolationsTotal, c.Stable, len(bps))
			}
			if (stable.IsStable(mk, m) == nil) != (len(bps) == 0) {
				t.Fatalf("matching %v: IsStable disagrees with %d blocking pairs", m.ReqPartner, len(bps))
			}
		}
	})
}
