package share

import (
	"fmt"
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
	// exhaustive search). Pruning is safe for the packing objective —
	// a group of mutually distant pickups always violates θ anyway
	// once PairRadius ≥ 2θ.
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
// Triples are only explored when all three member pairs are themselves
// feasible (adding a rider to a route almost never shortens the others'
// on-board legs); combined with the PairRadius prefilter this keeps
// line 1 tractable when rush-hour queues grow, at the cost of a
// vanishingly rare missed triple — well within the algorithm's
// approximation regime.
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
		// Trace details are formatted only with a live recorder: an
		// untraced frame tries thousands of candidate groups.
		if !s.found() {
			if rec != nil {
				traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "route_error",
					fmt.Sprintf("no feasible shared route: %v", errNoOrder(len(members))))
			}
			return Group{}, false
		}
		_, onBoard, _ := s.walk(sub)
		soloSum := 0.0
		for g, idx := range members {
			soloTrip := pl.Trip(idx)
			if d := onBoard[g] - soloTrip; d > cfg.Theta {
				if rec != nil {
					traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "detour_exceeded",
						fmt.Sprintf("rider r%d detour %.2f km exceeds θ=%.2f km on the best shared route", reqs[idx].ID, d, cfg.Theta))
				}
				return Group{}, false
			}
			soloSum += soloTrip
		}
		if s.length >= soloSum-1e-9 {
			// The "shared" route saves nothing over driving the
			// trips one after another: a chain, not a share.
			if rec != nil {
				traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "no_savings",
					fmt.Sprintf("shared route %.2f km saves nothing over %.2f km of solo trips (chain)", s.length, soloSum))
			}
			return Group{}, false
		}
		if rec != nil {
			traceGroup(rec, reqs, members, dtrace.KindGroupFormed, "feasible",
				fmt.Sprintf("shared route %.2f km keeps every detour within θ=%.2f km, saving %.2f km vs solo trips",
					s.length, cfg.Theta, soloSum-s.length))
		}
		return Group{Members: append([]int(nil), members...), Plan: s.plan(sub)}, true
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
			if g, ok := tryGroup([]int{a, b}); ok {
				groups = append(groups, g)
				adj = append(adj, b)
			}
		}
	}
	first[len(reqs)] = len(adj)
	if cfg.MaxGroupSize >= 3 {
		// Triples are grown from feasible pairs: adding a rider can
		// only lengthen the others' on-board legs, so a triple whose
		// pairs already violate θ cannot become feasible. This turns
		// the O(R³) scan into a triangle enumeration of the feasible-
		// pair graph, which is what keeps Algorithm 3 frame-rate under
		// rush-hour queue build-up.
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
		tracePick(rec, reqs, groups[k], cfg.Theta)
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
