package share

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/setpack"
)

// Group is a feasible subset c_k of requests that can share one taxi:
// every member's detour stays within θ on the group's optimal route.
type Group struct {
	// Members are indices into the request slice the group was built
	// from, in ascending order.
	Members []int
	// Plan is the group's optimal shared route.
	Plan RoutePlan
}

// PackConfig controls feasible-group generation and packing.
type PackConfig struct {
	// Theta is the paper's θ: the maximum extra on-board distance (km)
	// any member may suffer relative to riding alone. The evaluation
	// uses θ = 5.
	Theta float64
	// MaxGroupSize caps |c_k|; the paper uses 3. Values outside
	// [2, MaxGroupSize] are rejected.
	MaxGroupSize int
	// PairRadius optionally prunes the O(R³) exhaustive search: only
	// requests whose pickups are within PairRadius of each other are
	// considered for sharing. Zero disables pruning (the paper's exact
	// exhaustive search). The prune is a heuristic, not a sound bound:
	// one rider can be picked up along the other's trip, so a feasible
	// pair's pickups may lie farther apart than 2θ. On 150 sampled
	// frames of the New York STD-P day, 180 of 6,706 feasible pairs
	// (2.7%) had pickups more than 10 km apart (ROADMAP item 2).
	PairRadius float64
	// Tracer, when non-nil, records every feasible-group and packing
	// decision on the members' traces. Dispatchers set it per frame
	// from sim.Frame.Tracer.
	Tracer *dtrace.Recorder
}

// DefaultPackConfig returns the paper's evaluation settings: θ = 5 km,
// groups of at most 3, with pruning at 2θ.
func DefaultPackConfig() PackConfig {
	return PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}
}

// Validate reports configuration errors.
func (c PackConfig) Validate() error {
	switch {
	case c.Theta < 0:
		return fmt.Errorf("share: theta must be non-negative, got %v", c.Theta)
	case c.MaxGroupSize < 2 || c.MaxGroupSize > MaxGroupSize:
		return fmt.Errorf("share: max group size must be in [2, %d], got %d", MaxGroupSize, c.MaxGroupSize)
	case c.PairRadius < 0:
		return fmt.Errorf("share: pair radius must be non-negative, got %v", c.PairRadius)
	}
	return nil
}

// FeasibleGroupsPlane computes the set C of all feasible subsets of
// the first n of the plane's requests that can share a taxi (Algorithm
// 3, line 1): for each subset of size 2 to cfg.MaxGroupSize, the
// optimal shared route must keep every member's detour within θ and be
// strictly shorter than the members' solo trips combined. A chain, one
// rider alighting before the next boards, meets θ trivially but saves
// no driving, so it is not a share. Singletons are never emitted — they
// do not help the packing objective and are dispatched individually
// afterwards.
//
// Pickup-pair distances and solo trips come from the plane. The packing
// batch is a prefix of the frame queue, so plane indices align, and
// with PairRadius pruning the plane's pair rows must cover the batch
// (costplane.Config.PairRows ≥ n, or 0); a pair-pruned cell reads +Inf,
// which fails the PairRadius prefilter exactly like its true distance
// would. Route search reads a per-group leg table filled from the
// plane's metric — route permutations visit point pairs no frame-wide
// matrix holds.
//
// A pair inside PairRadius runs the route search only if it passes two
// sound bounds first (DESIGN.md, "Sound pair bounds"), which drop no
// pair the route search would accept on a metric that obeys the
// triangle inequality: Euclid, Manhattan and roadnet.Metric do. A pair
// that fails them is traced as no_savings or detour_exceeded.
//
// Triples are only explored when all three member pairs are themselves
// feasible; combined with the PairRadius prefilter this keeps line 1
// tractable when rush-hour queues grow. The triple prune is not sound:
// on 150 sampled frames of the New York STD-P day it found only 2,257 of
// the 37,223 triples that pass the route search's own tests, most of the
// missed ones a rider overlapping two riders who would chain (ROADMAP
// items 1–2).
func FeasibleGroupsPlane(n int, pl *costplane.Plane, cfg PackConfig) ([]Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 || n > len(pl.Requests) {
		return nil, fmt.Errorf("share: batch of %d requests on a plane of %d", n, len(pl.Requests))
	}
	// With fewer than two batched requests no pair is ever consulted, so
	// a plane without the pair matrix is fine (dispatchers skip building
	// it for singleton batches).
	if cfg.PairRadius > 0 && n >= 2 && n > pl.PairRows() {
		return nil, fmt.Errorf("share: pair-radius pruning over %d requests needs a plane with pair rows for them, got %d", n, pl.PairRows())
	}
	reqs, m := pl.Requests[:n], pl.Metric()
	var groups []Group
	rec := cfg.Tracer

	// One route search serves every candidate. A rejected candidate is
	// judged from the search's fixed arrays and allocates nothing; only
	// a feasible group gets its RoutePlan.
	var s routeSearch
	tryGroup := func(members []int) (Group, bool) {
		var buf [MaxGroupSize]fleet.Request
		sub := buf[:len(members)]
		for g, idx := range members {
			sub[g] = reqs[idx]
		}
		s.run(sub, m)
		if !s.found() {
			traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "route_error", dtrace.GroupFacts{})
			return Group{}, false
		}
		_, onBoard, _ := s.walk(sub)
		soloSum := 0.0
		for g, idx := range members {
			soloTrip := pl.Trip(idx)
			if d := onBoard[g] - soloTrip; d > cfg.Theta {
				traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "detour_exceeded",
					dtrace.GroupFacts{Theta: cfg.Theta, DetourKm: d, Rider: g})
				return Group{}, false
			}
			soloSum += soloTrip
		}
		facts := dtrace.GroupFacts{Theta: cfg.Theta, RouteKm: s.length, SoloKm: soloSum}
		if s.length >= soloSum-1e-9 {
			// The "shared" route saves nothing over driving the
			// trips one after another: a chain, not a share.
			traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "no_savings", facts)
			return Group{}, false
		}
		traceGroup(rec, reqs, members, dtrace.KindGroupFormed, "feasible", facts)
		return Group{Members: append([]int(nil), members...), Plan: s.plan(sub)}, true
	}

	// gap returns D(x^s, y^s): the plane's cell when it holds one, the
	// metric otherwise (a batch past the pair rows, possible without
	// PairRadius, or a cell the plane pruned, which reads +Inf).
	pairRows := pl.PairRows()
	gap := func(x, y int) float64 {
		if x < pairRows && y < pairRows {
			if d := pl.PairDist(x, y); !math.IsInf(d, 1) {
				return d
			}
		}
		return m.Distance(reqs[x].Pickup, reqs[y].Pickup)
	}
	// A pair that saves driving is no chain, so one rider x boards first
	// and the other, y, boards while x rides. Then every such route is at
	// least gap(x, y) + trip_y long and carries x at least
	// lead = gap(x, y) + D(y^s, x^d), which bounds the pair by savings,
	// gap(x, y) < trip_x, and by x's detour, lead − trip_x ≤ θ. bound
	// returns lead if the savings test passes (no metric call when it
	// fails, one when it passes); boardsFirst adds the detour test. Both
	// are rounded outward (costplane.Radius), so float rounding never
	// drops a pair the route search accepts.
	bound := func(x, y int) (lead float64, saves bool) {
		d := gap(x, y)
		if d > costplane.Radius(0, -pl.Trip(x)) {
			return 0, false
		}
		return d + m.Distance(reqs[y].Pickup, reqs[x].Dropoff), true
	}
	boardsFirst := func(x, y int) bool {
		lead, saves := bound(x, y)
		return saves && lead <= costplane.Radius(cfg.Theta, -pl.Trip(x))
	}
	// tracePruned explains a pair that failed both orientations: no
	// savings when neither rider's solo trip exceeds the gap to the
	// other's pickup, otherwise the detour bound of every orientation
	// that could save.
	tracePruned := func(a, b int) {
		f := dtrace.GroupFacts{Theta: cfg.Theta, Pruned: true,
			GapKm: [2]float64{gap(a, b), gap(b, a)}, TripKm: [2]float64{pl.Trip(a), pl.Trip(b)}}
		if f.GapKm[0] >= f.TripKm[0] && f.GapKm[1] >= f.TripKm[1] {
			traceGroup(rec, reqs, []int{a, b}, dtrace.KindGroupRejected, "no_savings", f)
			return
		}
		for k, o := range [2][2]int{{a, b}, {b, a}} {
			if lead, saves := bound(o[0], o[1]); saves {
				f.Saves[k], f.BoundKm[k] = true, lead-f.TripKm[k]
			}
		}
		traceGroup(rec, reqs, []int{a, b}, dtrace.KindGroupRejected, "detour_exceeded", f)
	}

	// Pairs, and the feasible-pair graph reused to prune triples: a
	// triple is only explored when all three member pairs are
	// feasible. The graph is kept as ascending adjacency lists —
	// request a's feasible partners b > a are adj[first[a]:first[a+1]]
	// — so the enumeration order, and with it set packing's
	// index-ordered tie-breaks, is a function of the input alone.
	first := make([]int, len(reqs)+1)
	var adj []int
	for a := 0; a < len(reqs); a++ {
		first[a] = len(adj)
		for b := a + 1; b < len(reqs); b++ {
			if cfg.PairRadius > 0 && pl.PairDist(a, b) > cfg.PairRadius {
				continue
			}
			if !boardsFirst(a, b) && !boardsFirst(b, a) {
				if rec != nil {
					tracePruned(a, b)
				}
				continue
			}
			if g, ok := tryGroup([]int{a, b}); ok {
				groups = append(groups, g)
				adj = append(adj, b)
			}
		}
	}
	first[len(reqs)] = len(adj)
	if cfg.MaxGroupSize >= 3 {
		// Triples are grown from feasible pairs: a triangle
		// enumeration of the feasible-pair graph instead of the O(R³)
		// scan, which keeps Algorithm 3 frame-rate under rush-hour
		// queue build-up. It misses triples whose pairs are not all
		// feasible (see the function comment).
		for a := 0; a < len(reqs); a++ {
			na := adj[first[a]:first[a+1]]
			for bi, b := range na {
				nb := adj[first[b]:first[b+1]]
				for _, c := range na[bi+1:] {
					if _, ok := slices.BinarySearch(nb, c); !ok {
						continue
					}
					if g, ok := tryGroup([]int{a, b, c}); ok {
						groups = append(groups, g)
					}
				}
			}
		}
	}
	return groups, nil
}

// PackResult is the outcome of the packing stage: the chosen disjoint
// groups and the requests left to ride alone.
type PackResult struct {
	Groups []Group
	// Singles are the request indices not packed into any chosen group.
	Singles []int
}

// PackPlane runs Algorithm 3's first stage on the first n of the
// plane's requests: enumerate feasible groups, then solve the maximum
// set packing problem with the (k+2)/3 local-search approximation.
// Every batched request appears in exactly one chosen group or in
// Singles.
func PackPlane(n int, pl *costplane.Plane, cfg PackConfig) (PackResult, error) {
	groups, err := FeasibleGroupsPlane(n, pl, cfg)
	if err != nil {
		return PackResult{}, err
	}
	return pack(pl.Requests[:n], groups, cfg), nil
}

// Pack is PackPlane over every request, on a taxi-less plane it builds
// from metric m with the pair rows cfg.PairRadius prunes.
func Pack(reqs []fleet.Request, m geo.Metric, cfg PackConfig) (PackResult, error) {
	pl := costplane.Build(reqs, nil, m, costplane.Config{Pairs: true, PairRadius: cfg.PairRadius})
	return PackPlane(len(reqs), pl, cfg)
}

// pack solves the maximum set packing over the enumerated groups.
func pack(reqs []fleet.Request, groups []Group, cfg PackConfig) PackResult {
	problem := setpack.Problem{N: len(reqs), Sets: make([][]int, len(groups))}
	for k, g := range groups {
		problem.Sets[k] = g.Members
	}
	rec := cfg.Tracer
	chosen := setpack.LocalSearchObserved(problem, packObserver(rec, reqs, groups))

	res := PackResult{Groups: make([]Group, 0, len(chosen))}
	packed := make([]bool, len(reqs))
	for _, k := range chosen {
		res.Groups = append(res.Groups, groups[k])
		traceGroup(rec, reqs, groups[k].Members, dtrace.KindPackPick, "packed",
			dtrace.GroupFacts{Theta: cfg.Theta, RouteKm: groups[k].Plan.Length})
		for _, idx := range groups[k].Members {
			packed[idx] = true
		}
	}
	for idx := range reqs {
		if !packed[idx] {
			res.Singles = append(res.Singles, idx)
		}
	}
	sort.Slice(res.Groups, func(a, b int) bool {
		return res.Groups[a].Members[0] < res.Groups[b].Members[0]
	})
	return res
}

// traceGroup records one group decision on every member's trace (a
// passenger asking "why did I ride alone" needs the rejection of the
// groups they were considered for), with the distances behind it. It is
// a no-op without a live recorder, and the facts reach the heap only
// with one, so an untraced frame's thousands of candidate groups
// allocate nothing here.
func traceGroup(rec *dtrace.Recorder, reqs []fleet.Request, members []int, kind dtrace.Kind, outcome string, facts dtrace.GroupFacts) {
	if rec == nil {
		return
	}
	ids := Unit{Members: members}.RequestIDs(reqs)
	shared := new(dtrace.GroupFacts)
	*shared = facts
	for _, id := range ids {
		e := dtrace.Ev(kind)
		e.Members = ids
		e.Outcome = outcome
		e.Group = shared
		rec.Record(id, e)
	}
}

// packObserver adapts setpack's move callbacks into pack_swap events on
// the affected members' traces.
func packObserver(rec *dtrace.Recorder, reqs []fleet.Request, groups []Group) func(move string, removed, added []int) {
	if rec == nil {
		return nil
	}
	return func(move string, removed, added []int) {
		for _, k := range removed {
			traceGroup(rec, reqs, groups[k].Members, dtrace.KindPackSwap, "swapped_out", dtrace.GroupFacts{Added: len(added)})
		}
		for _, k := range added {
			out := "swapped_in"
			if move == "add" {
				out = "added"
			}
			traceGroup(rec, reqs, groups[k].Members, dtrace.KindPackSwap, out, dtrace.GroupFacts{})
		}
	}
}
