package share

import (
	"fmt"
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
	// ExactPacking solves the maximum set packing stage exactly by
	// branch-and-bound (with ExactNodeBudget) instead of the (k+2)/3
	// local-search approximation. Feasible-group sets at frame scale
	// are small enough that the exact solve usually completes; past the
	// budget the incumbent (at least as good as local search) is used.
	ExactPacking bool
	// ExactNodeBudget caps the branch-and-bound search when
	// ExactPacking is set; 0 means 200000 nodes.
	ExactNodeBudget int
	// AllowChaining admits groups whose optimal route is a sequential
	// chain (one rider alights before the next boards). Chains satisfy
	// the paper's θ constraint trivially — the on-board detour is
	// zero — but save no driving and make the feasible-group graph
	// dense. By default a group is feasible only when its shared route
	// is strictly shorter than the members' solo trips combined, i.e.
	// when sharing actually saves distance.
	AllowChaining bool
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

// FeasibleGroups computes the set C of all feasible subsets of requests
// that can share a taxi (Algorithm 3, line 1): for each subset of size 2
// to cfg.MaxGroupSize, the optimal shared route must keep every member's
// detour within θ. Singletons are never emitted — they do not help the
// packing objective and are dispatched individually afterwards.
//
// Triples are only explored when all three member pairs are themselves
// feasible (adding a rider to a route almost never shortens the others'
// on-board legs); combined with the PairRadius prefilter this keeps
// line 1 tractable when rush-hour queues grow, at the cost of a
// vanishingly rare missed triple — well within the algorithm's
// approximation regime.
func FeasibleGroups(reqs []fleet.Request, m geo.Metric, cfg PackConfig) ([]Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	near := func(a, b int) bool {
		if cfg.PairRadius <= 0 {
			return true
		}
		return m.Distance(reqs[a].Pickup, reqs[b].Pickup) <= cfg.PairRadius
	}
	solo := func(idx int) float64 { return reqs[idx].TripDistance(m) }
	return feasibleGroups(reqs, m, cfg, near, solo), nil
}

// FeasibleGroupsPlane is FeasibleGroups reading pickup-pair distances
// and solo trips from a per-frame cost plane instead of querying the
// metric. It considers the first n of the plane's requests (the packing
// batch is a prefix of the frame queue, so plane indices align). The
// result is identical to FeasibleGroups: a pair-pruned plane cell reads
// +Inf, which fails the PairRadius prefilter exactly like its true
// distance would. Route search still uses the plane's metric — route
// permutations visit point pairs no frame-wide matrix can hold.
func FeasibleGroupsPlane(n int, pl *costplane.Plane, cfg PackConfig) ([]Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// With fewer than two batched requests no pair is ever consulted, so
	// a plane without the pair matrix is fine (dispatchers skip building
	// it for singleton batches).
	if cfg.PairRadius > 0 && n >= 2 && !pl.HasPairs() {
		return nil, fmt.Errorf("share: pair-radius pruning needs a plane built with Pairs")
	}
	reqs := pl.Requests[:n]
	near := func(a, b int) bool {
		if cfg.PairRadius <= 0 {
			return true
		}
		return pl.PairDist(a, b) <= cfg.PairRadius
	}
	return feasibleGroups(reqs, pl.Metric(), cfg, near, pl.Trip), nil
}

// feasibleGroups is the shared enumeration core: near prunes candidate
// pairs, solo returns a request's solo trip distance.
func feasibleGroups(reqs []fleet.Request, m geo.Metric, cfg PackConfig, near func(a, b int) bool, solo func(idx int) float64) []Group {
	var groups []Group
	rec := cfg.Tracer

	tryGroup := func(members []int) (Group, bool) {
		sub := make([]fleet.Request, len(members))
		for g, idx := range members {
			sub[g] = reqs[idx]
		}
		// Trace details are formatted only with a live recorder: an
		// untraced frame tries thousands of candidate groups.
		plan, err := BestRoute(sub, m)
		if err != nil {
			if rec != nil {
				traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "route_error",
					fmt.Sprintf("no feasible shared route: %v", err))
			}
			return Group{}, false
		}
		soloSum := 0.0
		for g, idx := range members {
			soloTrip := solo(idx)
			if d := plan.Detour(g, soloTrip); d > cfg.Theta {
				if rec != nil {
					traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "detour_exceeded",
						fmt.Sprintf("rider r%d detour %.2f km exceeds θ=%.2f km on the best shared route", reqs[idx].ID, d, cfg.Theta))
				}
				return Group{}, false
			}
			soloSum += soloTrip
		}
		if !cfg.AllowChaining && plan.Length >= soloSum-1e-9 {
			// The "shared" route saves nothing over driving the
			// trips one after another: a chain, not a share.
			if rec != nil {
				traceGroup(rec, reqs, members, dtrace.KindGroupRejected, "no_savings",
					fmt.Sprintf("shared route %.2f km saves nothing over %.2f km of solo trips (chain)", plan.Length, soloSum))
			}
			return Group{}, false
		}
		if rec != nil {
			traceGroup(rec, reqs, members, dtrace.KindGroupFormed, "feasible",
				fmt.Sprintf("shared route %.2f km keeps every detour within θ=%.2f km, saving %.2f km vs solo trips",
					plan.Length, cfg.Theta, soloSum-plan.Length))
		}
		return Group{Members: append([]int(nil), members...), Plan: plan}, true
	}

	// Pairs, and the pair feasibility matrix reused to prune triples: a
	// triple is only explored when all three pickups are mutually near.
	pairOK := make(map[[2]int]bool)
	for a := 0; a < len(reqs); a++ {
		for b := a + 1; b < len(reqs); b++ {
			if !near(a, b) {
				continue
			}
			if g, ok := tryGroup([]int{a, b}); ok {
				groups = append(groups, g)
				pairOK[[2]int{a, b}] = true
			}
		}
	}
	if cfg.MaxGroupSize >= 3 {
		// Triples are grown from feasible pairs: adding a rider can
		// only lengthen the others' on-board legs, so a triple whose
		// pairs already violate θ cannot become feasible. This turns
		// the O(R³) scan into a triangle enumeration of the feasible-
		// pair graph, which is what keeps Algorithm 3 frame-rate under
		// rush-hour queue build-up.
		neighbors := make(map[int][]int)
		for key := range pairOK {
			neighbors[key[0]] = append(neighbors[key[0]], key[1])
		}
		for a := 0; a < len(reqs); a++ {
			na := neighbors[a]
			for bi := 0; bi < len(na); bi++ {
				for ci := bi + 1; ci < len(na); ci++ {
					b, c := na[bi], na[ci]
					if b > c {
						b, c = c, b
					}
					if !pairOK[[2]int{b, c}] {
						continue
					}
					if g, ok := tryGroup([]int{a, b, c}); ok {
						groups = append(groups, g)
					}
				}
			}
		}
	}
	return groups
}

// PackResult is the outcome of the packing stage: the chosen disjoint
// groups and the requests left to ride alone.
type PackResult struct {
	Groups []Group
	// Singles are the request indices not packed into any chosen group.
	Singles []int
}

// Pack runs Algorithm 3's first stage: enumerate feasible groups, then
// solve the maximum set packing problem with the local-search
// approximation. Every request appears in exactly one chosen group or in
// Singles.
func Pack(reqs []fleet.Request, m geo.Metric, cfg PackConfig) (PackResult, error) {
	groups, err := FeasibleGroups(reqs, m, cfg)
	if err != nil {
		return PackResult{}, err
	}
	return pack(reqs, groups, cfg), nil
}

// PackPlane is Pack reading distances from a per-frame cost plane; it
// packs the first n of the plane's requests.
func PackPlane(n int, pl *costplane.Plane, cfg PackConfig) (PackResult, error) {
	groups, err := FeasibleGroupsPlane(n, pl, cfg)
	if err != nil {
		return PackResult{}, err
	}
	return pack(pl.Requests[:n], groups, cfg), nil
}

// pack solves the maximum set packing over the enumerated groups.
func pack(reqs []fleet.Request, groups []Group, cfg PackConfig) PackResult {
	problem := setpack.Problem{N: len(reqs), Sets: make([][]int, len(groups))}
	for k, g := range groups {
		problem.Sets[k] = g.Members
	}
	rec := cfg.Tracer
	var chosen []int
	if cfg.ExactPacking {
		budget := cfg.ExactNodeBudget
		if budget <= 0 {
			budget = 200000
		}
		chosen, _ = setpack.Exact(problem, budget)
	} else {
		chosen = setpack.LocalSearchObserved(problem, packObserver(rec, reqs, groups))
	}

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
