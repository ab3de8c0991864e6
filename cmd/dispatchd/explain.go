package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/sim"
)

// Decision-provenance surface: /v1/explain/{id} folds a request's causal
// timeline into a "why this taxi" answer with ranks and rejected
// alternatives, and /v1/frames/{n}/stability serves the frame's
// blocking-pair certificate. Both read the simulator's own trace
// recorder (Simulator.Tracer), which newServer always attaches.

// getStability serves the stability certificate of one committed frame.
func (s *server) getStability(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad frame number %q", r.PathValue("n")))
		return
	}
	c, ok := s.sim.Tracer().Certificate(n)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no certificate for frame %d (not yet committed, or evicted)", n))
		return
	}
	writeJSON(w, http.StatusOK, c)
}

// explainOut is the compact human-readable answer to "why did request X
// get taxi Y".
type explainOut struct {
	RequestID int    `json:"requestId"`
	Status    string `json:"status"`
	TaxiID    int    `json:"taxiId"`
	// RequestRank is the assigned taxi's rank on the request's
	// preference list (0 = the request's first choice); TaxiRank is the
	// request's rank on the taxi's list. −1 when unassigned.
	RequestRank int `json:"requestRank"`
	TaxiRank    int `json:"taxiRank"`
	// AssignFrame is the frame the decisive dispatch happened in (−1
	// when unassigned).
	AssignFrame int `json:"assignFrame"`
	// SharedWith lists co-riders when the request rides in a share
	// group.
	SharedWith []int  `json:"sharedWith,omitempty"`
	Summary    string `json:"summary"`
	// Alternatives are the taxis the request did not get, best-ranked
	// first, each with the reason.
	Alternatives []alternativeOut `json:"alternatives"`
	// Proposals counts the deferred-acceptance proposals the request's
	// side made in the decisive frame.
	Proposals int `json:"proposals"`
}

// alternativeOut is one rejected (or forgone) taxi with its reason.
type alternativeOut struct {
	TaxiID int `json:"taxiId"`
	// RequestRank is the taxi's rank on the request's list.
	RequestRank int    `json:"requestRank"`
	Reason      string `json:"reason"`
}

// getExplain folds a request's trace into the compact explanation.
func (s *server) getExplain(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tr, ok := s.sim.Tracer().Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for request %d", id))
		return
	}
	var o sim.RequestOutcome
	var known bool
	s.locked(func() { o, known = s.sim.RequestOutcome(id) })
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("request %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, buildExplain(tr, o))
}

// buildExplain derives the explanation from the causal timeline plus the
// engine's lifecycle record. The decisive frame is the one holding the
// request's last assignment (all matching events of a dispatch land in
// the same frame); for unassigned requests it is the last frame with
// matching events.
func buildExplain(tr dtrace.Trace, o sim.RequestOutcome) explainOut {
	out := explainOut{
		RequestID:   tr.RequestID,
		Status:      requestStatus(o),
		TaxiID:      o.TaxiID,
		RequestRank: -1,
		TaxiRank:    -1,
		AssignFrame: -1,
	}

	// Locate the decisive frame: the last assignment's frame wins.
	for _, e := range tr.Events {
		if e.Kind == "assign" {
			out.AssignFrame = e.Frame
		}
	}
	decisive := out.AssignFrame
	if decisive < 0 {
		for _, e := range tr.Events {
			if e.Kind == dtrace.KindPropose || e.Kind == dtrace.KindCandidates {
				decisive = e.Frame
			}
		}
	}

	var candidates *dtrace.Event
	altByTaxi := map[int]alternativeOut{}
	exhausted := false
	for k := range tr.Events {
		e := &tr.Events[k]
		if e.Frame != decisive {
			continue
		}
		switch e.Kind {
		case dtrace.KindCandidates:
			candidates = e
		case dtrace.KindPropose:
			out.Proposals++
			switch e.Outcome {
			case "accepted", "displaced", "upgraded":
				if e.TaxiID == o.TaxiID {
					out.RequestRank = e.ReqRank
					out.TaxiRank = e.TaxiRank
				}
			case "refused":
				altByTaxi[e.TaxiID] = alternativeOut{
					TaxiID:      e.TaxiID,
					RequestRank: e.ReqRank,
					Reason: fmt.Sprintf("taxi %d refused: it prefers request %d (its rank #%d) over this request (its rank #%d)",
						e.TaxiID, e.RivalID, e.RivalRank, e.TaxiRank),
				}
			case "refused_taxi":
				altByTaxi[e.TaxiID] = alternativeOut{
					TaxiID:      e.TaxiID,
					RequestRank: e.ReqRank,
					Reason: fmt.Sprintf("request declined: taxi %d (rank #%d) proposed but the request held taxi %d (rank #%d)",
						e.TaxiID, e.ReqRank, e.RivalID, e.RivalRank),
				}
			case "exhausted":
				exhausted = true
			}
		case dtrace.KindDisplaced:
			altByTaxi[e.TaxiID] = alternativeOut{
				TaxiID:      e.TaxiID,
				RequestRank: e.ReqRank,
				Reason: fmt.Sprintf("displaced: held taxi %d until request %d (the taxi's rank #%d, vs #%d for this request) took it",
					e.TaxiID, e.RivalID, e.RivalRank, e.TaxiRank),
			}
		}
	}
	// Share-group membership shows on matching events.
	if out.SharedWith == nil {
		for k := range tr.Events {
			e := &tr.Events[k]
			if e.Frame == decisive && e.Kind == dtrace.KindPropose && len(e.Members) > 1 {
				for _, m := range e.Members {
					if m != tr.RequestID {
						out.SharedWith = append(out.SharedWith, m)
					}
				}
				break
			}
		}
	}

	// Forgone candidates: taxis the request ranked below its assigned
	// one never saw a proposal — the request preferred what it got. They
	// complete the alternatives list so even a first-choice match
	// explains what was left on the table.
	if candidates != nil {
		for _, c := range candidates.Candidates {
			if c.TaxiID == o.TaxiID {
				continue
			}
			if _, seen := altByTaxi[c.TaxiID]; seen {
				continue
			}
			reason := fmt.Sprintf("not needed: the request ranked it #%d and was matched at rank #%d before proposing to it",
				c.Rank, out.RequestRank)
			if out.TaxiID < 0 {
				reason = fmt.Sprintf("ranked #%d by the request (%.2f km pickup) but the matching ended before a proposal was decided",
					c.Rank, c.PickupKm)
			} else if out.RequestRank >= 0 && c.Rank < out.RequestRank {
				// A better-ranked taxi with no refusal on record (e.g.
				// under NSTD-T or STD-T, where a taxi that never
				// proposed to the request leaves no event).
				reason = fmt.Sprintf("ranked #%d by the request but matched elsewhere in the chosen stable matching", c.Rank)
			}
			altByTaxi[c.TaxiID] = alternativeOut{TaxiID: c.TaxiID, RequestRank: c.Rank, Reason: reason}
		}
	}
	for _, a := range altByTaxi {
		out.Alternatives = append(out.Alternatives, a)
	}
	sort.Slice(out.Alternatives, func(a, b int) bool {
		ra, rb := out.Alternatives[a].RequestRank, out.Alternatives[b].RequestRank
		if ra < 0 {
			ra = 1 << 30
		}
		if rb < 0 {
			rb = 1 << 30
		}
		if ra != rb {
			return ra < rb
		}
		return out.Alternatives[a].TaxiID < out.Alternatives[b].TaxiID
	})

	out.Summary = explainSummary(out, candidates, exhausted)
	return out
}

// explainSummary renders the one-line human answer.
func explainSummary(out explainOut, candidates *dtrace.Event, exhausted bool) string {
	if out.TaxiID >= 0 {
		shared := ""
		if len(out.SharedWith) > 0 {
			shared = fmt.Sprintf(" sharing the ride with %d other request(s)", len(out.SharedWith))
		}
		return fmt.Sprintf("matched to taxi %d — the request's #%d choice, and the taxi ranks it #%d%s; %d better-or-considered alternative(s) explained below",
			out.TaxiID, out.RequestRank, out.TaxiRank, shared, len(out.Alternatives))
	}
	switch {
	case candidates != nil && candidates.Acceptable == 0:
		return fmt.Sprintf("unserved: all %d taxis in the frame sat behind a dummy partner (too far, or the trip does not pay)", candidates.Pool)
	case exhausted:
		return "unserved: every acceptable taxi refused in favour of a request it ranks higher; the request settled for its dummy partner"
	case out.AssignFrame < 0 && len(out.Alternatives) == 0:
		return "no dispatch decision traced yet (the request has not been through a dispatch frame)"
	default:
		return "unserved so far: see alternatives for the taxis that went elsewhere"
	}
}
