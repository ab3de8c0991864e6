// Package stable implements the paper's matching core: Algorithm 1
// (non-sharing taxi dispatch via passenger-proposing deferred acceptance
// with dummy partners), Algorithm 2 (enumerating all stable matchings via
// BreakDispatch under Rules 1–3), and the taxi-optimal matching, which
// is Algorithm 1 run on the transposed market.
//
// Terminology follows the paper: passengers play the proposing side of
// the Gale–Shapley procedure, so Algorithm 1 yields the passenger-optimal
// stable matching (Property 2). Dummy partners (Theorem 1) are encoded by
// leaving the pair out of pref.Market altogether — a pair behind either
// dummy is simply never proposed to and never accepted, and every
// algorithm here walks the stored pairs only.
package stable

import (
	"fmt"
	"slices"

	"stabledispatch/internal/pref"
)

// Unmatched marks a request or taxi with a dummy partner (no dispatch).
const Unmatched = -1

// Matching is a taxi dispatch schedule S: a partial matching between
// requests and taxis.
type Matching struct {
	// ReqPartner[j] is the taxi dispatched to request j, or Unmatched.
	ReqPartner []int
	// TaxiPartner[i] is the request taxi i serves, or Unmatched.
	TaxiPartner []int
}

// NewMatching returns an empty matching for r requests and t taxis.
func NewMatching(r, t int) Matching {
	return Matching{ReqPartner: fill(nil, r, Unmatched), TaxiPartner: fill(nil, t, Unmatched)}
}

// Clone returns a deep copy of the matching.
func (m Matching) Clone() Matching {
	c := Matching{
		ReqPartner:  make([]int, len(m.ReqPartner)),
		TaxiPartner: make([]int, len(m.TaxiPartner)),
	}
	copy(c.ReqPartner, m.ReqPartner)
	copy(c.TaxiPartner, m.TaxiPartner)
	return c
}

// Size returns the number of matched request-taxi pairs.
func (m Matching) Size() int {
	n := 0
	for _, p := range m.ReqPartner {
		if p != Unmatched {
			n++
		}
	}
	return n
}

// Equal reports whether two matchings pair everyone identically.
func (m Matching) Equal(o Matching) bool {
	if len(m.ReqPartner) != len(o.ReqPartner) {
		return false
	}
	for j := range m.ReqPartner {
		if m.ReqPartner[j] != o.ReqPartner[j] {
			return false
		}
	}
	return true
}

// Key returns a canonical string identity for deduplication in tests.
func (m Matching) Key() string {
	return fmt.Sprint(m.ReqPartner)
}

// gsState is the deferred-acceptance state shared by Algorithm 1 and
// Algorithm 2. next[j] is the position on request j's list
// (pref.Market.ReqEntries) of the entry j will propose to next: entries
// before it have already refused j or been left by j. held[i] is taxi
// i's cost of its tentative partner, so a proposal is decided by one
// comparison of the proposer's entry against it.
type gsState struct {
	match Matching
	next  []int
	held  []float64
}

func (s gsState) clone() gsState {
	return gsState{match: s.match.Clone(), next: slices.Clone(s.next), held: slices.Clone(s.held)}
}

// PassengerOptimal runs Algorithm 1 (Non-Sharing Taxi Dispatch) and
// returns the passenger-optimal stable matching: every request gets its
// best partner among all stable matchings, every taxi its worst
// (Property 2). Requests and taxis whose preference order starts with the
// dummy are never dispatched (Property 1).
func PassengerOptimal(mk *pref.Market) Matching {
	return PassengerOptimalObserved(mk, nil)
}

// passengerOptimalState runs Algorithm 1 and returns the full proposal
// state, which Algorithm 2 continues from. o may be nil.
func passengerOptimalState(mk *pref.Market, o *Observer) gsState {
	var s gsState
	s.run(mk, o)
	return s
}

// run resets s to the empty matching of mk, reusing its arrays, and
// runs Algorithm 1 on it. o may be nil.
func (s *gsState) run(mk *pref.Market, o *Observer) {
	r, t := mk.NumRequests(), mk.NumTaxis()
	s.match.ReqPartner = fill(s.match.ReqPartner, r, Unmatched)
	s.match.TaxiPartner = fill(s.match.TaxiPartner, t, Unmatched)
	s.next = fill(s.next, r, 0)
	// held[i] is read only while taxi i holds a partner, and set when
	// it takes one, so it needs no reset.
	s.held = slices.Grow(s.held[:0], t)[:t]
	for j := 0; j < r; j++ {
		propose(mk, s, j, o)
	}
}

// fill returns s with length n and every element v, reusing its array
// when it is large enough.
func fill(s []int, n, v int) []int {
	s = slices.Grow(s[:0], n)[:n]
	for k := range s {
		s[k] = v
	}
	return s
}

// Solver runs Algorithm 1 in arrays it keeps from run to run: the
// proposal state and the matching. A run's Matching sits in those
// arrays, so it is valid only until the solver's next run; a caller
// that keeps it must Clone it. The zero Solver is ready to use, and a
// Solver must not run two markets at once.
type Solver struct{ s gsState }

// PassengerOptimal is PassengerOptimalObserved in the solver's arrays.
func (v *Solver) PassengerOptimal(mk *pref.Market, o *Observer) Matching {
	v.s.run(mk, o)
	return v.s.match
}

// TaxiOptimal is TaxiOptimalObserved in the solver's arrays.
func (v *Solver) TaxiOptimal(mk *pref.Market, o *Observer) Matching {
	v.s.run(mk.Transpose(), o)
	return Matching{ReqPartner: v.s.match.TaxiPartner, TaxiPartner: v.s.match.ReqPartner}
}

// propose is the paper's Proposal/Refusal pair: request j proposes down
// its preference list; a displaced request immediately re-proposes
// (iteratively rather than recursively). o may be nil.
func propose(mk *pref.Market, s *gsState, j int, o *Observer) {
	active := j
	for {
		list := mk.ReqEntries(active)
		if s.next[active] >= len(list) {
			// Next entry is the dummy: active stays unserved.
			s.match.ReqPartner[active] = Unmatched
			o.exhausted(active)
			return
		}
		e := list[s.next[active]]
		s.next[active]++

		i := e.Partner
		cur := s.match.TaxiPartner[i]
		if cur == Unmatched {
			// Refusal, lines 10-11: an undispatched taxi accepts
			// any request ahead of its dummy (the list holds only
			// mutually acceptable pairs).
			s.match.TaxiPartner[i] = active
			s.match.ReqPartner[active] = i
			s.held[i] = e.TaxiCost
			o.proposal(active, i, Unmatched, "accepted")
			return
		}
		if pref.Better(e.TaxiCost, active, s.held[i], cur) {
			// Refusal, lines 12-14: the taxi upgrades and the
			// displaced request goes back to proposing.
			s.match.TaxiPartner[i] = active
			s.match.ReqPartner[active] = i
			s.match.ReqPartner[cur] = Unmatched
			s.held[i] = e.TaxiCost
			o.proposal(active, i, cur, "displaced")
			active = cur
			continue
		}
		// Refusal, line 16: taxi keeps its partner; active proposes
		// to its next entry.
		o.proposal(active, i, cur, "refused")
	}
}

// TaxiOptimal returns the taxi-optimal stable matching: among all stable
// matchings every taxi gets its best partner and every request its worst.
// It runs Algorithm 1 on the transposed market (pref.Market.Transpose),
// so the taxis propose, which by the lattice structure of stable
// matchings (and confirmed against the Algorithm 2 enumeration in tests)
// is exactly the matching the paper calls NSTD-T.
func TaxiOptimal(mk *pref.Market) Matching {
	return TaxiOptimalObserved(mk, nil)
}

// IsStable reports whether the matching is stable under Definition 1,
// returning a descriptive error naming the first violation found:
// either an individually irrational pair (someone matched behind their
// dummy) or a blocking pair — a request and taxi that both prefer each
// other over their current partners, where dummies prefer any acceptable
// non-dummy.
func IsStable(mk *pref.Market, m Matching) error {
	r, t := mk.NumRequests(), mk.NumTaxis()
	if len(m.ReqPartner) != r || len(m.TaxiPartner) != t {
		return fmt.Errorf("stable: matching sized %dx%d, want %dx%d",
			len(m.ReqPartner), len(m.TaxiPartner), r, t)
	}
	for j := 0; j < r; j++ {
		i := m.ReqPartner[j]
		if i == Unmatched {
			continue
		}
		if i < 0 || i >= t {
			return fmt.Errorf("stable: request %d matched to invalid taxi %d", j, i)
		}
		if m.TaxiPartner[i] != j {
			return fmt.Errorf("stable: request %d and taxi %d disagree on pairing", j, i)
		}
		if !mk.MutualOK(j, i) {
			return fmt.Errorf("stable: pair (r%d, t%d) is behind a dummy (individually irrational)", j, i)
		}
	}
	var blocking error
	EachBlockingPair(mk, m, func(b BlockingPair) bool {
		blocking = fmt.Errorf("stable: (r%d, t%d) is a blocking pair", b.Request, b.Taxi)
		return false
	})
	return blocking
}
