package stable

import (
	"fmt"
	"slices"

	"stabledispatch/internal/pref"
)

// BlockingPair is one stability violation: a request and taxi that both
// prefer each other over their partners in the matching.
type BlockingPair struct {
	Request int
	Taxi    int
	// ReqPartner and TaxiPartner are the violating parties' current
	// partners (Unmatched for a dummy).
	ReqPartner  int
	TaxiPartner int
}

// String implements fmt.Stringer.
func (b BlockingPair) String() string {
	return fmt.Sprintf("(r%d, t%d) blocks: r%d has %s, t%d has %s",
		b.Request, b.Taxi,
		b.Request, partnerName(b.ReqPartner, "t"),
		b.Taxi, partnerName(b.TaxiPartner, "r"))
}

func partnerName(p int, side string) string {
	if p == Unmatched {
		return "dummy"
	}
	return fmt.Sprintf("%s%d", side, p)
}

// Irrational reports whether the violation is an individually
// irrational pairing rather than a blocking pair: a matched pair sitting
// behind a dummy, reported with both partners set to the offending match.
func (b BlockingPair) Irrational() bool { return b.ReqPartner == b.Taxi }

// BlockingPairs returns every stability violation of the matching, in
// the order EachBlockingPair visits them — the full diagnostic behind
// IsStable, which stops at the first.
func BlockingPairs(mk *pref.Market, m Matching) []BlockingPair {
	var out []BlockingPair
	EachBlockingPair(mk, m, func(b BlockingPair) bool {
		out = append(out, b)
		return true
	})
	return out
}

// EachBlockingPair calls fn on every stability violation of the
// matching until fn returns false. Individually irrational pairings
// (someone matched behind their dummy) come first, in request order,
// as a pair blocking with the dummy itself: (j, i) with both partners
// set to the offending match. Blocking pairs follow in (request, taxi)
// index order. A partner behind a dummy, like the dummy itself, ranks
// after every acceptable counterparty. The scan walks the stored pairs
// only: O(P) for P mutually acceptable pairs, plus a sort of each
// request's blocking taxis. A matching of the wrong size has no
// violations to report.
func EachBlockingPair(mk *pref.Market, m Matching, fn func(BlockingPair) bool) {
	r, t := mk.NumRequests(), mk.NumTaxis()
	if len(m.ReqPartner) != r || len(m.TaxiPartner) != t {
		return
	}
	for j, i := range m.ReqPartner {
		if i != Unmatched && !mk.MutualOK(j, i) {
			if !fn(BlockingPair{Request: j, Taxi: i, ReqPartner: i, TaxiPartner: j}) {
				return
			}
		}
	}
	// held[i] is taxi i's cost of its partner, read off the partner's
	// request row, so the taxi rows are never sorted; heldOK[i] is false
	// when the taxi is free or its partner sits behind its dummy, so that
	// every acceptable request beats it.
	held := make([]float64, t)
	heldOK := make([]bool, t)
	for i, j := range m.TaxiPartner {
		if j < 0 || j >= r {
			continue
		}
		if k := mk.ReqRank(j, i); k >= 0 {
			held[i], heldOK[i] = mk.ReqEntries(j)[k].TaxiCost, true
		}
	}
	var blocking []int
	for j, p := range m.ReqPartner {
		blocking = blocking[:0]
		for _, e := range mk.ReqEntries(j) {
			if e.Partner == p {
				break // j prefers its partner over the rest of its list
			}
			i := e.Partner
			if !heldOK[i] || pref.Better(e.TaxiCost, j, held[i], m.TaxiPartner[i]) {
				blocking = append(blocking, i)
			}
		}
		slices.Sort(blocking)
		for _, i := range blocking {
			if !fn(BlockingPair{Request: j, Taxi: i, ReqPartner: p, TaxiPartner: m.TaxiPartner[i]}) {
				return
			}
		}
	}
}
