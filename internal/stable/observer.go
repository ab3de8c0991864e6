package stable

import "stabledispatch/internal/pref"

// Observer receives the causal decisions of one deferred-acceptance run.
// It exists for decision-provenance tracing (internal/dtrace): package
// stable works on market indices and knows nothing about fleet IDs, so
// the dispatcher layer supplies callbacks that translate and record.
//
// Callbacks run synchronously inside the matching loop; they must be
// cheap and must not call back into the matching. A nil *Observer (or a
// nil callback field) is silently skipped, keeping the untraced path
// allocation-free.
type Observer struct {
	// Proposal is invoked once per proposal. proposer is the proposing-
	// side index (a request under Algorithm 1, a taxi under the
	// taxi-proposing mirror), target the receiving-side index, and rival
	// the receiver's tentative partner before the proposal (Unmatched if
	// it was free). outcome is "accepted" (free receiver), "displaced"
	// (accepted, evicting rival), or "refused" (receiver kept rival).
	Proposal func(proposer, target, rival int, outcome string)
	// Exhausted is invoked when a proposer runs off the end of its
	// preference list and settles for its dummy partner (stays
	// unmatched this run).
	Exhausted func(proposer int)
}

// proposal reports one proposal to the observer if set.
func (o *Observer) proposal(proposer, target, rival int, outcome string) {
	if o != nil && o.Proposal != nil {
		o.Proposal(proposer, target, rival, outcome)
	}
}

// exhausted reports a proposer reaching its dummy if set.
func (o *Observer) exhausted(proposer int) {
	if o != nil && o.Exhausted != nil {
		o.Exhausted(proposer)
	}
}

// PassengerOptimalObserved is PassengerOptimal with per-decision
// callbacks; a nil observer makes it identical to PassengerOptimal.
func PassengerOptimalObserved(mk *pref.Market, o *Observer) Matching {
	return new(Solver).PassengerOptimal(mk, o)
}

// TaxiOptimalObserved is TaxiOptimal with per-decision callbacks; the
// proposing side is the taxis, so Observer.Proposal receives taxi
// indices as proposer and request indices as target.
func TaxiOptimalObserved(mk *pref.Market, o *Observer) Matching {
	return new(Solver).TaxiOptimal(mk, o)
}
