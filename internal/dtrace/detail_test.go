package dtrace

import "testing"

// TestEventDetail pins the sentence of every (kind, outcome, proposer
// side) the pipeline records. Each want is the text the record sites
// formatted before the prose moved behind Event.Detail.
func TestEventDetail(t *testing.T) {
	ev := func(kind Kind, outcome string, set func(*Event)) Event {
		e := Ev(kind)
		e.Outcome = outcome
		if set != nil {
			set(&e)
		}
		return e
	}
	ranks := func(e *Event) { e.TaxiID, e.ReqRank, e.TaxiRank, e.RivalID, e.RivalRank = 7, 1, 2, 40, 0 }
	taxiSide := func(e *Event) { ranks(e); e.TaxiProposing = true; e.RivalID = 8 }
	group := func(members []int, g GroupFacts) func(*Event) {
		return func(e *Event) { e.Members, e.Group = members, &g }
	}
	pair := []int{11, 12}
	cases := []struct {
		name string
		e    Event
		want string
	}{
		{"candidates/acceptable", ev(KindCandidates, "acceptable", func(e *Event) { e.Acceptable, e.Pool = 3, 20 }),
			"3 of 20 taxis ahead of the dummy partner"},
		{"candidates/none", ev(KindCandidates, "no_acceptable_taxi", func(e *Event) { e.Pool = 20 }),
			"all 20 taxis sit behind a dummy partner (too far, or the trip does not pay)"},
		{"propose/passenger/accepted", ev(KindPropose, "accepted", ranks),
			"taxi 7 was free and the pair is mutually acceptable (request rank #1, taxi rank #2)"},
		{"propose/passenger/displaced", ev(KindPropose, "displaced", ranks),
			"taxi 7 upgraded: ranks this request #2, displacing request 40 ranked #0"},
		{"propose/passenger/refused", ev(KindPropose, "refused", ranks),
			"taxi 7 refused: prefers its tentative request 40 (rank #0) over this one (rank #2)"},
		{"propose/passenger/exhausted", ev(KindPropose, "exhausted", nil),
			"every acceptable taxi refused; the request settles for its dummy partner (unserved this frame)"},
		{"propose/taxi/accepted", ev(KindPropose, "accepted", taxiSide),
			"taxi 7 proposed and the request was free (request rank #1, taxi rank #2)"},
		{"propose/taxi/upgraded", ev(KindPropose, "upgraded", taxiSide),
			"taxi 7 proposed and the request upgraded from taxi 8 (rank #0) to it (rank #1)"},
		{"propose/taxi/refused_taxi", ev(KindPropose, "refused_taxi", taxiSide),
			"taxi 7 proposed but the request kept taxi 8 (rank #0 vs #1)"},
		{"displaced", ev(KindDisplaced, "displaced", ranks),
			"lost taxi 7 to request 40, which the taxi ranks #0 (this request ranked #2); resuming proposals"},
		{"request", ev("request", "", nil), "entered the pending queue"},
		{"assign", ev("assign", "", func(e *Event) { e.TaxiID = 7 }), "dispatched: taxi 7 committed to this request"},
		{"pickup", ev("pickup", "", func(e *Event) { e.TaxiID = 7 }), "boarded taxi 7"},
		{"dropoff", ev("dropoff", "", func(e *Event) { e.TaxiID = 7 }), "dropped off by taxi 7"},
		{"abandon", ev("abandon", "", nil), "gave up waiting (patience exceeded)"},
		{"cancel", ev("cancel", "", nil), "assignment or request withdrawn before pickup"},
		{"requeue", ev("requeue", "", nil), "assignment revoked; re-entered the pending queue"},
		{"rescue", ev("rescue", "", nil), "orphaned by a breakdown; re-entered the queue from the breakdown position"},
		{"group_rejected/route_error", ev(KindGroupRejected, "route_error", group([]int{11, 12, 13}, GroupFacts{})),
			"no feasible shared route: share: no feasible stop order for 3 requests"},
		{"group_rejected/detour_exceeded/route", ev(KindGroupRejected, "detour_exceeded",
			group([]int{11, 12, 13}, GroupFacts{Theta: 5, DetourKm: 5.25, Rider: 2})),
			"rider r13 detour 5.25 km exceeds θ=5.00 km on the best shared route"},
		{"group_rejected/detour_exceeded/pruned_one", ev(KindGroupRejected, "detour_exceeded",
			group(pair, GroupFacts{Theta: 5, Pruned: true, Saves: [2]bool{false, true}, BoundKm: [2]float64{0, 6.5}})),
			"rider r12 detour ≥ 6.50 km on every shared route, θ=5.00 km"},
		{"group_rejected/detour_exceeded/pruned_both", ev(KindGroupRejected, "detour_exceeded",
			group(pair, GroupFacts{Theta: 5, Pruned: true, Saves: [2]bool{true, true}, BoundKm: [2]float64{3.444, 6}})),
			"rider r11 detour ≥ 3.44 km, rider r12 detour ≥ 6.00 km on every shared route the rider boards first, θ=5.00 km"},
		{"group_rejected/no_savings/route", ev(KindGroupRejected, "no_savings",
			group(pair, GroupFacts{Theta: 5, RouteKm: 9.5, SoloKm: 9.25})),
			"shared route 9.50 km saves nothing over 9.25 km of solo trips (chain)"},
		{"group_rejected/no_savings/pruned", ev(KindGroupRejected, "no_savings",
			group(pair, GroupFacts{Theta: 5, Pruned: true, GapKm: [2]float64{4, 3.5}, TripKm: [2]float64{2, 1.25}})),
			"pickup gap ≥ the first rider's solo trip either way (r11 first: 4.00 ≥ 2.00 km; r12 first: 3.50 ≥ 1.25 km): no shared route saves driving"},
		{"group_formed", ev(KindGroupFormed, "feasible", group(pair, GroupFacts{Theta: 5, RouteKm: 7, SoloKm: 9.5})),
			"shared route 7.00 km keeps every detour within θ=5.00 km, saving 2.50 km vs solo trips"},
		{"pack_pick", ev(KindPackPick, "packed", group([]int{11, 12, 13}, GroupFacts{Theta: 5, RouteKm: 7})),
			"group packed: shared route 7.00 km within θ=5.00 km, 3 riders share one taxi"},
		{"pack_swap/swapped_out", ev(KindPackSwap, "swapped_out", group(pair, GroupFacts{Added: 2})),
			"set packing swap move replaced this group with 2 disjoint group(s)"},
		{"pack_swap/swapped_in", ev(KindPackSwap, "swapped_in", group(pair, GroupFacts{})),
			"set packing swap move brought this group into the packing"},
		{"pack_swap/added", ev(KindPackSwap, "added", group(pair, GroupFacts{})),
			"set packing add move brought this group into the packing"},
	}
	for _, tc := range cases {
		if got := tc.e.Detail(); got != tc.want {
			t.Errorf("%s: Detail() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
