package dtrace

import (
	"fmt"

	"stabledispatch/internal/pref"
	"stabledispatch/internal/stable"
)

// MaxViolations caps the violating pairs stored in one certificate; the
// total count is still reported. A destabilized frame can have O(R·T)
// blocking pairs and one example with evidence is what an operator acts
// on, not ten thousand.
const MaxViolations = 64

// BlockingPair is one stability violation with its rank evidence: a
// request and taxi that both prefer each other over their realized
// partners (Definition 1), or a pair whose realized match is
// individually irrational (behind a dummy).
type BlockingPair struct {
	RequestID int `json:"requestId"`
	TaxiID    int `json:"taxiId"`
	// Reason is "blocking_pair" or "irrational".
	Reason string `json:"reason"`
	// ReqRank is the taxi's rank on the request's preference list and
	// ReqPartnerRank the rank of the request's realized partner
	// (-1 = unmatched, i.e. the dummy). A blocking pair always has
	// ReqRank < ReqPartnerRank or an unmatched request.
	ReqRank        int `json:"reqRank"`
	ReqPartnerRank int `json:"reqPartnerRank"`
	// TaxiRank / TaxiPartnerRank are the mirror evidence on the taxi's
	// list.
	TaxiRank        int `json:"taxiRank"`
	TaxiPartnerRank int `json:"taxiPartnerRank"`
	// Detail spells the evidence out for humans.
	Detail string `json:"detail"`
}

// Certificate is the stability audit of one committed frame: a full
// blocking-pair scan (the same Definition 1 test as stable.IsStable)
// over the realized matching restricted to the frame's participants.
type Certificate struct {
	Frame  int  `json:"frame"`
	Stable bool `json:"stable"`
	// Requests and Taxis are the scan dimensions; Matched counts the
	// realized pairs among them.
	Requests int `json:"requests"`
	Taxis    int `json:"taxis"`
	Matched  int `json:"matched"`
	// Violations holds up to MaxViolations violating pairs with
	// evidence; ViolationsTotal is the uncapped count.
	Violations      []BlockingPair `json:"violations,omitempty"`
	ViolationsTotal int            `json:"violationsTotal"`
	// Notes carries frame-level annotations (degraded dispatch, no
	// pending requests, …).
	Notes []string `json:"notes,omitempty"`
}

// Trivial returns the certificate of a frame with nothing to match (no
// pending requests or no available taxis): vacuously stable.
func Trivial(frame, requests, taxis int, note string) *Certificate {
	c := &Certificate{Frame: frame, Stable: true, Requests: requests, Taxis: taxis}
	if note != "" {
		c.Notes = []string{note}
	}
	return c
}

// Certify runs the blocking-pair scan over a realized matching.
// reqPartner[j] is the market index of the taxi matched to request j
// (or -1), exactly the shape of stable.Matching.ReqPartner; reqIDs and
// taxiIDs map market indices to fleet IDs for the evidence. The scan is
// stable.EachBlockingPair, the Definition 1 test behind stable.IsStable:
// an unmatched side (dummy partner) prefers any mutually acceptable
// counterparty. It walks the market's stored pairs only.
func Certify(frame int, mk *pref.Market, reqPartner, reqIDs, taxiIDs []int) *Certificate {
	r, t := mk.NumRequests(), mk.NumTaxis()
	c := &Certificate{Frame: frame, Stable: true, Requests: r, Taxis: t}
	m := stable.NewMatching(r, t)
	for j, i := range reqPartner {
		if i != stable.Unmatched {
			c.Matched++
			m.ReqPartner[j] = i
			m.TaxiPartner[i] = j
		}
	}
	stable.EachBlockingPair(mk, m, func(b stable.BlockingPair) bool {
		c.addViolation(mk, b, reqIDs, taxiIDs)
		return true
	})
	return c
}

// addViolation records one violating pair with its rank evidence: each
// side's position of the other and of its realized partner on its
// preference list, -1 for a pair behind a dummy or an unmatched side.
func (c *Certificate) addViolation(mk *pref.Market, b stable.BlockingPair, reqIDs, taxiIDs []int) {
	c.Stable = false
	c.ViolationsTotal++
	if len(c.Violations) >= MaxViolations {
		return
	}
	j, i := b.Request, b.Taxi
	bp := BlockingPair{
		RequestID:       idOf(reqIDs, j),
		TaxiID:          idOf(taxiIDs, i),
		Reason:          "blocking_pair",
		ReqRank:         mk.ReqRank(j, i),
		ReqPartnerRank:  mk.ReqRank(j, b.ReqPartner),
		TaxiRank:        mk.TaxiRank(i, j),
		TaxiPartnerRank: mk.TaxiRank(i, b.TaxiPartner),
	}
	if b.Irrational() {
		bp.Reason = "irrational"
		bp.Detail = fmt.Sprintf("request %d and taxi %d are matched but behind a dummy partner (individually irrational)",
			bp.RequestID, bp.TaxiID)
	} else {
		bp.Detail = fmt.Sprintf("request %d ranks taxi %d at %s (current partner at %s) and taxi %d ranks the request at %s (current partner at %s): both prefer each other",
			bp.RequestID, bp.TaxiID, rankWord(bp.ReqRank), rankWord(bp.ReqPartnerRank),
			bp.TaxiID, rankWord(bp.TaxiRank), rankWord(bp.TaxiPartnerRank))
	}
	c.Violations = append(c.Violations, bp)
}

func idOf(ids []int, idx int) int {
	if idx >= 0 && idx < len(ids) {
		return ids[idx]
	}
	return idx
}

func rankWord(rank int) string {
	if rank < 0 {
		return "dummy (unmatched)"
	}
	return fmt.Sprintf("#%d", rank)
}
