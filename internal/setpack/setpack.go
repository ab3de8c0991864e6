// Package setpack solves the Maximum Set Packing Problem (MSPP) of
// Algorithm 3 (Eqs. 1–3): given feasible subsets of passenger requests,
// pick a maximum number of pairwise-disjoint subsets.
//
// Three solvers are provided:
//
//   - Greedy: a maximal packing, scanning sets in a deterministic order.
//   - LocalSearch: greedy followed by (0,1)- and (1,2)-exchange
//     improvements. This is the local-improvement approximation the
//     paper cites ([21]), with guarantee (max_k |c_k| + 2)/3 — for the
//     paper's |c_k| ≤ 3 that is a 5/3-approximation, which the paper
//     deems acceptable.
//   - Exact: branch-and-bound with a node budget, used by tests to
//     validate approximation quality and by the ILP carpool baseline.
//
// Elements are request indices 0..N-1; sets never contain duplicates.
package setpack

import (
	"fmt"
	"sort"
)

// Problem is an MSPP instance over the universe {0, …, N-1}.
type Problem struct {
	N    int
	Sets [][]int
}

// Validate reports malformed instances: out-of-range or duplicate
// elements within a set.
func (p Problem) Validate() error {
	if p.N < 0 {
		return fmt.Errorf("setpack: negative universe size %d", p.N)
	}
	for k, s := range p.Sets {
		seen := make(map[int]bool, len(s))
		for _, e := range s {
			if e < 0 || e >= p.N {
				return fmt.Errorf("setpack: set %d contains out-of-range element %d", k, e)
			}
			if seen[e] {
				return fmt.Errorf("setpack: set %d contains duplicate element %d", k, e)
			}
			seen[e] = true
		}
	}
	return nil
}

// MaxSetSize returns max_k |c_k| (0 for an empty instance).
func (p Problem) MaxSetSize() int {
	m := 0
	for _, s := range p.Sets {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// IsPacking reports whether the chosen set indices form a valid packing
// (pairwise disjoint, each index valid and distinct).
func (p Problem) IsPacking(chosen []int) error {
	usedSet := make(map[int]bool, len(chosen))
	usedElem := make(map[int]int, len(chosen)*3)
	for _, k := range chosen {
		if k < 0 || k >= len(p.Sets) {
			return fmt.Errorf("setpack: chosen index %d out of range", k)
		}
		if usedSet[k] {
			return fmt.Errorf("setpack: set %d chosen twice", k)
		}
		usedSet[k] = true
		for _, e := range p.Sets[k] {
			if prev, clash := usedElem[e]; clash {
				return fmt.Errorf("setpack: element %d in both set %d and set %d", e, prev, k)
			}
			usedElem[e] = k
		}
	}
	return nil
}

// Greedy returns a maximal packing: sets are scanned smallest-first
// (ties by index) and taken whenever disjoint from everything chosen so
// far. Smallest-first blocks the fewest elements per chosen set, which
// for MSPP's cardinality objective (Eq. 1) is the natural greedy order.
func Greedy(p Problem) []int {
	order := make([]int, len(p.Sets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := p.Sets[order[a]], p.Sets[order[b]]
		if len(sa) != len(sb) {
			return len(sa) < len(sb)
		}
		return order[a] < order[b]
	})
	used := make([]bool, p.N)
	var chosen []int
	for _, k := range order {
		if disjointFromUsed(p.Sets[k], used) {
			chosen = append(chosen, k)
			mark(p.Sets[k], used, true)
		}
	}
	sort.Ints(chosen)
	return chosen
}

// Observer receives each accepted local-search move for decision
// tracing: move is "add" for a (0,1)-addition or "swap" for a
// (1,2)-exchange; removed and added hold the set indices leaving and
// entering the packing. Callbacks run inside the search loop and must be
// cheap; a nil Observer is free.
type Observer func(move string, removed, added []int)

// LocalSearch improves a greedy packing with exchange moves until a fixed
// point: (0,1)-moves add any set disjoint from the packing; (1,2)-moves
// remove one chosen set and add two disjoint sets that only conflicted
// with it. The result is a packing of size at least 3/(max|c_k|+2) times
// the optimum.
func LocalSearch(p Problem) []int {
	return LocalSearchObserved(p, nil)
}

// LocalSearchObserved is LocalSearch reporting each accepted exchange
// move to o (which may be nil).
func LocalSearchObserved(p Problem, o Observer) []int {
	chosen := Greedy(p)
	inPacking := make([]bool, len(p.Sets))
	used := make([]int, p.N) // chosen set index occupying the element, or -1
	for i := range used {
		used[i] = -1
	}
	for _, k := range chosen {
		inPacking[k] = true
		for _, e := range p.Sets[k] {
			used[e] = k
		}
	}

	improved := true
	for improved {
		improved = false

		// conflictsOf returns the distinct chosen sets overlapping s.
		conflictsOf := func(s []int) []int {
			var out []int
			for _, e := range s {
				if k := used[e]; k != -1 && !contains(out, k) {
					out = append(out, k)
				}
			}
			return out
		}

		// (0,1)-moves: free additions.
		for k := range p.Sets {
			if inPacking[k] || len(conflictsOf(p.Sets[k])) != 0 {
				continue
			}
			inPacking[k] = true
			for _, e := range p.Sets[k] {
				used[e] = k
			}
			improved = true
			if o != nil {
				o("add", nil, []int{k})
			}
		}

		// (1,2)-moves: for each chosen set c, collect candidate sets
		// whose only conflict is c, then look for a disjoint pair.
		// Candidates are gathered per chosen set in index order so the
		// search stays deterministic.
		candidatesByChosen := make(map[int][]int)
		var chosenOrder []int
		for k := range p.Sets {
			if inPacking[k] {
				continue
			}
			conf := conflictsOf(p.Sets[k])
			if len(conf) == 1 {
				c := conf[0]
				if _, seen := candidatesByChosen[c]; !seen {
					chosenOrder = append(chosenOrder, c)
				}
				candidatesByChosen[c] = append(candidatesByChosen[c], k)
			}
		}
		sort.Ints(chosenOrder)
		for _, c := range chosenOrder {
			if !inPacking[c] {
				continue // already swapped out this pass
			}
			// Earlier swaps in this pass may have added sets that now
			// conflict with a candidate; keep only candidates whose
			// sole conflict is still c.
			var cands []int
			for _, k := range candidatesByChosen[c] {
				if inPacking[k] {
					continue
				}
				conf := conflictsOf(p.Sets[k])
				if len(conf) == 1 && conf[0] == c {
					cands = append(cands, k)
				}
			}
			a, b, ok := findDisjointPair(p, cands)
			if !ok {
				continue
			}
			inPacking[c] = false
			for _, e := range p.Sets[c] {
				used[e] = -1
			}
			for _, k := range [2]int{a, b} {
				inPacking[k] = true
				for _, e := range p.Sets[k] {
					used[e] = k
				}
			}
			improved = true
			if o != nil {
				o("swap", []int{c}, []int{a, b})
			}
		}
	}

	var out []int
	for k, in := range inPacking {
		if in {
			out = append(out, k)
		}
	}
	return out
}

// Exact solves MSPP by branch-and-bound. It explores at most maxNodes
// search nodes (0 means unlimited) and reports whether the returned
// packing is provably optimal.
func Exact(p Problem, maxNodes int) (chosen []int, optimal bool) {
	if maxNodes <= 0 {
		maxNodes = int(^uint(0) >> 1)
	}
	// Seed the incumbent with local search so pruning bites early.
	best := LocalSearch(p)
	used := make([]bool, p.N)
	nodes := 0
	exhausted := true
	var cur []int

	// Order sets by size so small sets (cheap, low-conflict) come
	// first; the simple bound below is count-based.
	order := make([]int, len(p.Sets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := p.Sets[order[a]], p.Sets[order[b]]
		if len(sa) != len(sb) {
			return len(sa) < len(sb)
		}
		return order[a] < order[b]
	})

	var rec func(pos int)
	rec = func(pos int) {
		nodes++
		if nodes > maxNodes {
			exhausted = false
			return
		}
		// Bound: even taking every remaining set cannot beat best.
		if len(cur)+(len(order)-pos) <= len(best) {
			return
		}
		if pos == len(order) {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return
		}
		k := order[pos]
		if disjointFromUsed(p.Sets[k], used) {
			mark(p.Sets[k], used, true)
			cur = append(cur, k)
			rec(pos + 1)
			cur = cur[:len(cur)-1]
			mark(p.Sets[k], used, false)
		}
		rec(pos + 1)
	}
	rec(0)
	sort.Ints(best)
	return best, exhausted
}

func disjointFromUsed(s []int, used []bool) bool {
	for _, e := range s {
		if used[e] {
			return false
		}
	}
	return true
}

func mark(s []int, used []bool, v bool) {
	for _, e := range s {
		used[e] = v
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func findDisjointPair(p Problem, cands []int) (int, int, bool) {
	for ai := 0; ai < len(cands); ai++ {
		for bi := ai + 1; bi < len(cands); bi++ {
			if setsDisjoint(p.Sets[cands[ai]], p.Sets[cands[bi]]) {
				return cands[ai], cands[bi], true
			}
		}
	}
	return 0, 0, false
}

func setsDisjoint(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}
