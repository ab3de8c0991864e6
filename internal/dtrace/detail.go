package dtrace

import (
	"fmt"
	"strings"
)

// Detail renders the event's facts as the sentence a reader of the
// trace sees, or "" for an event with nothing to add. It is the only
// place the trace's prose is written, and it runs only when a trace is
// read (WriteChromeTrace), never while one is recorded. Set packing's
// local search has two moves, named by the pack_swap outcome: "added"
// is the (0,1)-addition, "swapped_out" and "swapped_in" the 1-for-2 swap.
func (e Event) Detail() string {
	var g GroupFacts
	if e.Group != nil {
		g = *e.Group
	}
	switch e.Kind {
	case KindCandidates:
		if e.Outcome == "no_acceptable_taxi" {
			return fmt.Sprintf("all %d taxis sit behind a dummy partner (too far, or the trip does not pay)", e.Pool)
		}
		return fmt.Sprintf("%d of %d taxis ahead of the dummy partner", e.Acceptable, e.Pool)
	case KindPropose:
		switch e.Outcome {
		case "accepted":
			if e.TaxiProposing {
				return fmt.Sprintf("taxi %d proposed and the request was free (request rank #%d, taxi rank #%d)", e.TaxiID, e.ReqRank, e.TaxiRank)
			}
			return fmt.Sprintf("taxi %d was free and the pair is mutually acceptable (request rank #%d, taxi rank #%d)",
				e.TaxiID, e.ReqRank, e.TaxiRank)
		case "displaced":
			return fmt.Sprintf("taxi %d upgraded: ranks this request #%d, displacing request %d ranked #%d",
				e.TaxiID, e.TaxiRank, e.RivalID, e.RivalRank)
		case "refused":
			return fmt.Sprintf("taxi %d refused: prefers its tentative request %d (rank #%d) over this one (rank #%d)",
				e.TaxiID, e.RivalID, e.RivalRank, e.TaxiRank)
		case "exhausted":
			return "every acceptable taxi refused; the request settles for its dummy partner (unserved this frame)"
		case "upgraded":
			return fmt.Sprintf("taxi %d proposed and the request upgraded from taxi %d (rank #%d) to it (rank #%d)",
				e.TaxiID, e.RivalID, e.RivalRank, e.ReqRank)
		case "refused_taxi":
			return fmt.Sprintf("taxi %d proposed but the request kept taxi %d (rank #%d vs #%d)", e.TaxiID, e.RivalID, e.RivalRank, e.ReqRank)
		}
	case KindDisplaced:
		return fmt.Sprintf("lost taxi %d to request %d, which the taxi ranks #%d (this request ranked #%d); resuming proposals",
			e.TaxiID, e.RivalID, e.RivalRank, e.TaxiRank)
	case KindGroupFormed:
		return fmt.Sprintf("shared route %.2f km keeps every detour within θ=%.2f km, saving %.2f km vs solo trips",
			g.RouteKm, g.Theta, g.SoloKm-g.RouteKm)
	case KindGroupRejected:
		switch {
		case e.Outcome == "route_error":
			return fmt.Sprintf("no feasible shared route: share: no feasible stop order for %d requests", len(e.Members))
		case e.Outcome == "no_savings" && g.Pruned:
			return fmt.Sprintf("pickup gap ≥ the first rider's solo trip either way (r%d first: %.2f ≥ %.2f km; r%d first: %.2f ≥ %.2f km): no shared route saves driving",
				e.Members[0], g.GapKm[0], g.TripKm[0], e.Members[1], g.GapKm[1], g.TripKm[1])
		case e.Outcome == "no_savings":
			return fmt.Sprintf("shared route %.2f km saves nothing over %.2f km of solo trips (chain)", g.RouteKm, g.SoloKm)
		case e.Outcome == "detour_exceeded" && g.Pruned:
			var bounds []string
			for k, saves := range g.Saves {
				if saves {
					bounds = append(bounds, fmt.Sprintf("rider r%d detour ≥ %.2f km", e.Members[k], g.BoundKm[k]))
				}
			}
			scope := "on every shared route"
			if len(bounds) == 2 {
				scope = "on every shared route the rider boards first"
			}
			return fmt.Sprintf("%s %s, θ=%.2f km", strings.Join(bounds, ", "), scope, g.Theta)
		case e.Outcome == "detour_exceeded":
			return fmt.Sprintf("rider r%d detour %.2f km exceeds θ=%.2f km on the best shared route", e.Members[g.Rider], g.DetourKm, g.Theta)
		}
	case KindPackPick:
		return fmt.Sprintf("group packed: shared route %.2f km within θ=%.2f km, %d riders share one taxi", g.RouteKm, g.Theta, len(e.Members))
	case KindPackSwap:
		switch e.Outcome {
		case "swapped_out":
			return fmt.Sprintf("set packing swap move replaced this group with %d disjoint group(s)", g.Added)
		case "swapped_in":
			return "set packing swap move brought this group into the packing"
		case "added":
			return "set packing add move brought this group into the packing"
		}
	case "request":
		return "entered the pending queue"
	case "assign":
		return fmt.Sprintf("dispatched: taxi %d committed to this request", e.TaxiID)
	case "pickup":
		return fmt.Sprintf("boarded taxi %d", e.TaxiID)
	case "dropoff":
		return fmt.Sprintf("dropped off by taxi %d", e.TaxiID)
	case "abandon":
		return "gave up waiting (patience exceeded)"
	case "cancel":
		return "assignment or request withdrawn before pickup"
	case "requeue":
		return "assignment revoked; re-entered the pending queue"
	case "rescue":
		return "orphaned by a breakdown; re-entered the queue from the breakdown position"
	}
	return ""
}
