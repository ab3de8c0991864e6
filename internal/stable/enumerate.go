package stable

import (
	"math"

	"stabledispatch/internal/pref"
)

// AllStableMatchings implements Algorithm 2 (Non-Sharing Taxi Dispatch,
// All Schedules): starting from the passenger-optimal stable matching it
// recursively applies BreakDispatch under Rules 1–3, producing every
// stable matching exactly once (Theorems 3 and 4). The passenger-optimal
// matching is always first in the result.
//
// The number of stable matchings can be exponential in adversarial
// instances; limit caps how many are returned (0 or negative means no
// cap). A frame's market built from a metric has exactly one stable
// matching (DESIGN.md, "One stable matching per frame"), so the cap
// guards only arbitrary markets built with pref.NewMarket.
func AllStableMatchings(mk *pref.Market, limit int) []Matching {
	if limit <= 0 {
		limit = math.MaxInt
	}
	state := passengerOptimalState(mk, nil)
	e := &enumerator{mk: mk, limit: limit}
	e.results = append(e.results, state.match.Clone())
	e.explore(state, 0)
	return e.results
}

type enumerator struct {
	mk      *pref.Market
	results []Matching
	limit   int
}

// explore recursively breaks dispatches with non-decreasing request
// index, which is what makes each stable matching appear exactly once
// (Theorem 4): two different break sequences first diverge at some
// request, and Rule 2 stops the later sequence from re-routing the
// earlier request.
func (e *enumerator) explore(s gsState, minJ int) {
	if len(e.results) >= e.limit {
		return
	}
	for j := minJ; j < e.mk.NumRequests(); j++ {
		// Rule 3: breaking an unserved request can never succeed
		// (Theorem 2 — a request unserved in the passenger-optimal
		// matching is unserved in every stable matching).
		if s.match.ReqPartner[j] == Unmatched {
			continue
		}
		if next, ok := e.breakDispatch(s, j); ok {
			e.results = append(e.results, next.match.Clone())
			if len(e.results) >= e.limit {
				return
			}
			e.explore(next, j)
		}
	}
}

// breakDispatch is the paper's BreakDispatch sub-algorithm: it frees the
// pair (r_j, t) where t = S(r_j) and re-runs the proposal cascade with
// r_j proposing to its next entry. Per Rule 1 the freed taxi t only
// accepts a request it strictly prefers over r_j — accepting anyone worse
// would leave (r_j, t) blocking — and the operation succeeds exactly when
// t is re-matched this way. Per Rule 2 the cascade fails if it would
// displace a request with index < j. The cascade also fails if any
// request falls off the end of its preference list (re-matched to a
// dummy; the freed taxi would stay undispatched and block).
func (e *enumerator) breakDispatch(s gsState, j int) (gsState, bool) {
	t := s.match.ReqPartner[j]
	lost := s.held[t] // the freed taxi's cost of r_j
	ns := s.clone()
	ns.match.ReqPartner[j] = Unmatched
	ns.match.TaxiPartner[t] = Unmatched

	active := j
	for {
		list := e.mk.ReqEntries(active)
		if ns.next[active] >= len(list) {
			// active reached its dummy entry: no stable matching
			// down this branch (the freed taxi stays single).
			return gsState{}, false
		}
		en := list[ns.next[active]]
		ns.next[active]++

		i := en.Partner
		if i == t {
			// Rule 1: the freed taxi holds out for a strictly
			// better request than the one it lost.
			if pref.Better(en.TaxiCost, active, lost, j) {
				ns.match.TaxiPartner[i] = active
				ns.match.ReqPartner[active] = i
				ns.held[i] = en.TaxiCost
				return ns, true
			}
			continue
		}
		cur := ns.match.TaxiPartner[i]
		if cur == Unmatched {
			// A taxi unmatched in the current stable matching is
			// unmatched in all of them (the taxi-side mirror of
			// Theorem 2); letting it absorb the cascade would
			// strand the freed taxi, so this branch is dead.
			return gsState{}, false
		}
		if pref.Better(en.TaxiCost, active, ns.held[i], cur) {
			if cur < j {
				// Rule 2: requests before r_j may not be moved.
				return gsState{}, false
			}
			ns.match.TaxiPartner[i] = active
			ns.match.ReqPartner[active] = i
			ns.match.ReqPartner[cur] = Unmatched
			ns.held[i] = en.TaxiCost
			active = cur
			continue
		}
	}
}
