package dispatch

import (
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// Decision tracing for the matching stage. Package stable reports
// decisions in market indices; frameTracer translates them into fleet
// IDs and preference ranks and records them on each affected request's
// trace. A rank is a position on a market preference list, looked up
// per event. Everything here runs only when the frame carries a
// recorder; the untraced path pays one nil check in newFrameTracer.

// traceTopCandidates bounds the per-request shortlist recorded at
// preference-build time.
const traceTopCandidates = 3

// frameTracer translates one frame's matching decisions into dtrace
// events. memberIDs[j] holds the fleet request IDs behind proposer-side
// index j — one ID for the non-sharing dispatchers, the group members
// for the sharing ones.
type frameTracer struct {
	rec       *dtrace.Recorder
	frame     int
	mk        *pref.Market
	memberIDs [][]int
	taxiIDs   []int
}

// newFrameTracer returns a tracer for the frame's market mk over taxis,
// or nil when the frame carries no recorder. units are the sharing
// dispatchers' proposers; nil means one proposer per frame request. The
// ID tables are built only for a live recorder, so an untraced frame
// allocates nothing here. Building the tracer records each request's
// candidate shortlist (the dummy-partner threshold check: who is ahead
// of the dummy, and by how much).
func newFrameTracer(f *sim.Frame, mk *pref.Market, units []share.Unit, taxis []fleet.Taxi) *frameTracer {
	if f.Tracer == nil {
		return nil
	}
	memberIDs := singleIDs(f.Requests)
	if units != nil {
		memberIDs = unitMemberIDs(units, f.Requests)
	}
	t := &frameTracer{
		rec:       f.Tracer,
		frame:     f.Number,
		mk:        mk,
		memberIDs: memberIDs,
		taxiIDs:   fleetIDs(taxis),
	}
	t.recordCandidates()
	return t
}

// membersOf returns the fleet request IDs behind proposer-side index j.
func (t *frameTracer) membersOf(j int) []int {
	if j < 0 || j >= len(t.memberIDs) {
		return nil
	}
	return t.memberIDs[j]
}

// firstMember returns the lead request ID of side index j, or -1.
func (t *frameTracer) firstMember(j int) int {
	if ids := t.membersOf(j); len(ids) > 0 {
		return ids[0]
	}
	return -1
}

// taxiID translates a market taxi index, tolerating Unmatched.
func (t *frameTracer) taxiID(i int) int {
	if i < 0 || i >= len(t.taxiIDs) {
		return -1
	}
	return t.taxiIDs[i]
}

// record stamps the frame and writes the event on every member of side
// index j.
func (t *frameTracer) record(j int, e dtrace.Event) {
	e.Frame = t.frame
	ids := t.membersOf(j)
	if len(ids) > 1 && e.Members == nil {
		e.Members = ids
	}
	for _, id := range ids {
		t.rec.Record(id, e)
	}
}

// recordCandidates writes each request's dummy-partner threshold check:
// how many taxis sit ahead of its dummy and the top few with both costs.
// This guarantees every traced request has at least one alternatives
// event for the explain surface even if its first proposal is accepted.
func (t *frameTracer) recordCandidates() {
	pool := t.mk.NumTaxis()
	for j := 0; j < t.mk.NumRequests(); j++ {
		list := t.mk.ReqEntries(j)
		e := dtrace.Ev(dtrace.KindCandidates)
		e.Acceptable = len(list)
		e.Pool = pool
		e.Outcome = "acceptable"
		if len(list) == 0 {
			e.Outcome = "no_acceptable_taxi"
		}
		top := list
		if len(top) > traceTopCandidates {
			top = top[:traceTopCandidates]
		}
		for rank, c := range top {
			e.Candidates = append(e.Candidates, dtrace.Candidate{
				TaxiID:   t.taxiID(c.Partner),
				Rank:     rank,
				PickupKm: c.ReqCost,
				NetKm:    c.TaxiCost,
			})
		}
		t.record(j, e)
	}
}

// observer returns the stable.Observer recording this frame's
// deferred-acceptance decisions. taxiProposing selects the taxi-optimal
// mirror, where proposer indices are taxis. A nil tracer returns a nil
// observer (tracing disabled).
func (t *frameTracer) observer(taxiProposing bool) *stable.Observer {
	if t == nil {
		return nil
	}
	if taxiProposing {
		// A taxi settling for its dummy is not a request-side event.
		return &stable.Observer{Proposal: t.taxiProposal}
	}
	return &stable.Observer{
		Proposal:  t.reqProposal,
		Exhausted: t.reqExhausted,
	}
}

// taxiRank returns request j's position on taxi i's preference list, or
// -1. The tracer ranks two requests per proposal, so it reads the sorted
// rows (one sort per traced market) and stops at the pair, which sits
// near the front: a taxi holds the best proposer so far.
// pref.Market.TaxiRank, which never sorts, reads the whole build-order
// row on every call instead.
func (t *frameTracer) taxiRank(i, j int) int {
	for k, e := range t.mk.TaxiEntries(i) {
		if e.Partner == j {
			return k
		}
	}
	return -1
}

// reqProposal records one passenger-proposing step: request j proposes
// to taxi i whose tentative partner was rival (another request index).
func (t *frameTracer) reqProposal(j, i, rival int, outcome string) {
	e := dtrace.Ev(dtrace.KindPropose)
	e.TaxiID = t.taxiID(i)
	e.ReqRank = t.mk.ReqRank(j, i)
	e.TaxiRank = t.taxiRank(i, j)
	e.Outcome = outcome
	if rival != stable.Unmatched {
		e.RivalID = t.firstMember(rival)
		e.RivalRank = t.taxiRank(i, rival)
	}
	t.record(j, e)

	// The loser's trace gets the mirror event so its timeline explains
	// why it went back to proposing.
	if outcome == "displaced" && rival != stable.Unmatched {
		d := dtrace.Ev(dtrace.KindDisplaced)
		d.TaxiID = e.TaxiID
		d.ReqRank = t.mk.ReqRank(rival, i)
		d.TaxiRank = e.RivalRank
		d.RivalID = t.firstMember(j)
		d.RivalRank = e.TaxiRank
		d.Outcome = "displaced"
		t.record(rival, d)
	}
}

// reqExhausted records request j running out of acceptable taxis.
func (t *frameTracer) reqExhausted(j int) {
	e := dtrace.Ev(dtrace.KindPropose)
	e.Outcome = "exhausted"
	t.record(j, e)
}

// taxiProposal records one taxi-proposing step from the receiving
// request's perspective: taxi i proposed to request j whose tentative
// taxi was rival (a taxi index).
func (t *frameTracer) taxiProposal(i, j, rival int, outcome string) {
	e := dtrace.Ev(dtrace.KindPropose)
	e.TaxiProposing = true
	e.TaxiID = t.taxiID(i)
	e.ReqRank = t.mk.ReqRank(j, i)
	e.TaxiRank = t.taxiRank(i, j)
	if rival != stable.Unmatched {
		e.RivalID = t.taxiID(rival)
		e.RivalRank = t.mk.ReqRank(j, rival)
	}
	switch outcome {
	case "accepted":
		e.Outcome = "accepted"
	case "displaced":
		e.Outcome = "upgraded"
	case "refused":
		e.Outcome = "refused_taxi"
	}
	t.record(j, e)
}

// singleIDs builds the one-request-per-proposer member table for the
// non-sharing dispatchers.
func singleIDs(reqs []fleet.Request) [][]int {
	ids := make([][]int, len(reqs))
	for j, r := range reqs {
		ids[j] = []int{r.ID}
	}
	return ids
}

// unitMemberIDs builds the member table for the sharing dispatchers:
// proposer-side index k is a share unit, whose events land on every
// member's trace.
func unitMemberIDs(units []share.Unit, reqs []fleet.Request) [][]int {
	ids := make([][]int, len(units))
	for k, u := range units {
		ids[k] = u.RequestIDs(reqs)
	}
	return ids
}

// fleetIDs extracts the taxi IDs aligned with the market's taxi indices.
func fleetIDs(taxis []fleet.Taxi) []int {
	ids := make([]int, len(taxis))
	for i, tx := range taxis {
		ids[i] = tx.ID
	}
	return ids
}
