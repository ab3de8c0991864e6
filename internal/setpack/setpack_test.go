package setpack

import (
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Problem
		wantErr bool
	}{
		{name: "empty", p: Problem{}},
		{name: "valid", p: Problem{N: 4, Sets: [][]int{{0, 1}, {2, 3}}}},
		{name: "negative universe", p: Problem{N: -1}, wantErr: true},
		{name: "out of range", p: Problem{N: 2, Sets: [][]int{{0, 5}}}, wantErr: true},
		{name: "duplicate element", p: Problem{N: 3, Sets: [][]int{{1, 1}}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestIsPacking(t *testing.T) {
	p := Problem{N: 5, Sets: [][]int{{0, 1}, {1, 2}, {3, 4}}}
	if err := p.IsPacking([]int{0, 2}); err != nil {
		t.Errorf("valid packing rejected: %v", err)
	}
	if err := p.IsPacking([]int{0, 1}); err == nil {
		t.Error("overlapping packing accepted")
	}
	if err := p.IsPacking([]int{0, 0}); err == nil {
		t.Error("duplicate set accepted")
	}
	if err := p.IsPacking([]int{9}); err == nil {
		t.Error("out-of-range set accepted")
	}
}

func TestGreedyMaximal(t *testing.T) {
	p := Problem{N: 6, Sets: [][]int{{0, 1, 2}, {0, 3}, {4, 5}, {1, 4}}}
	chosen := Greedy(p)
	if err := p.IsPacking(chosen); err != nil {
		t.Fatalf("greedy produced invalid packing: %v", err)
	}
	// Maximality: no remaining set is disjoint from the packing.
	used := make([]bool, p.N)
	inPacking := make(map[int]bool)
	for _, k := range chosen {
		inPacking[k] = true
		for _, e := range p.Sets[k] {
			used[e] = true
		}
	}
	for k, s := range p.Sets {
		if inPacking[k] {
			continue
		}
		if disjointFromUsed(s, used) {
			t.Errorf("greedy is not maximal: set %d could be added", k)
		}
	}
}

func TestExactKnown(t *testing.T) {
	// Optimal is {0,3} and {1,2} and {4,5}: 3 sets; the big set blocks
	// two of them.
	p := Problem{N: 6, Sets: [][]int{
		{0, 1, 2, 3},
		{0, 3},
		{1, 2},
		{4, 5},
	}}
	chosen, optimal := Exact(p, 0)
	if !optimal {
		t.Fatal("Exact did not prove optimality on a tiny instance")
	}
	if len(chosen) != 3 {
		t.Errorf("Exact chose %d sets (%v), want 3", len(chosen), chosen)
	}
	if err := p.IsPacking(chosen); err != nil {
		t.Errorf("Exact packing invalid: %v", err)
	}
}

func TestLocalSearchImprovesGreedy(t *testing.T) {
	// Greedy (smallest-first, then index) takes {1,2} first and blocks
	// both {0,1} and {2,3}; local search swaps it out for the pair.
	p := Problem{N: 4, Sets: [][]int{{1, 2}, {0, 1}, {2, 3}}}
	greedy := Greedy(p)
	if len(greedy) != 1 {
		t.Fatalf("test premise broken: greedy = %v", greedy)
	}
	ls := LocalSearch(p)
	if err := p.IsPacking(ls); err != nil {
		t.Fatalf("local search invalid: %v", err)
	}
	if len(ls) != 2 {
		t.Errorf("local search chose %d sets (%v), want 2", len(ls), ls)
	}
}

func randomProblem(rng *rand.Rand, n, numSets, maxSize int) Problem {
	p := Problem{N: n}
	for k := 0; k < numSets; k++ {
		size := 2 + rng.Intn(maxSize-1)
		perm := rng.Perm(n)
		set := append([]int(nil), perm[:size]...)
		p.Sets = append(p.Sets, set)
	}
	return p
}

func TestLocalSearchRatioAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(9)
		p := randomProblem(rng, n, 2+rng.Intn(14), 3)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator bug: %v", err)
		}

		ls := LocalSearch(p)
		if err := p.IsPacking(ls); err != nil {
			t.Fatalf("trial %d: invalid local-search packing: %v", trial, err)
		}
		opt, optimal := Exact(p, 0)
		if !optimal {
			t.Fatalf("trial %d: exact did not finish", trial)
		}
		// Guarantee: |LS| >= 3/(k+2) * OPT with k = 3.
		if 5*len(ls) < 3*len(opt) {
			t.Fatalf("trial %d: local search %d vs optimum %d violates 3/5 bound",
				trial, len(ls), len(opt))
		}
	}
}

func TestExactMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		p := randomProblem(rng, n, 1+rng.Intn(8), 3)
		opt, optimal := Exact(p, 0)
		if !optimal {
			t.Fatalf("trial %d: exact did not finish", trial)
		}
		want := bruteForceOptimum(p)
		if len(opt) != want {
			t.Fatalf("trial %d: exact = %d, brute force = %d (sets %v)",
				trial, len(opt), want, p.Sets)
		}
	}
}

// bruteForceOptimum enumerates all subsets of sets.
func bruteForceOptimum(p Problem) int {
	best := 0
	var rec func(k int, used []bool, count int)
	rec = func(k int, used []bool, count int) {
		if count > best {
			best = count
		}
		if k == len(p.Sets) {
			return
		}
		rec(k+1, used, count)
		if disjointFromUsed(p.Sets[k], used) {
			mark(p.Sets[k], used, true)
			rec(k+1, used, count+1)
			mark(p.Sets[k], used, false)
		}
	}
	rec(0, make([]bool, p.N), 0)
	return best
}

func TestExactNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := randomProblem(rng, 30, 60, 3)
	chosen, optimal := Exact(p, 5)
	if optimal {
		t.Error("Exact claimed optimality with a 5-node budget on a large instance")
	}
	if err := p.IsPacking(chosen); err != nil {
		t.Errorf("budgeted Exact returned invalid packing: %v", err)
	}
	// Budgeted result is still at least the local-search incumbent.
	if len(chosen) < len(LocalSearch(p)) {
		t.Error("budgeted Exact returned worse than its local-search seed")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := Problem{N: 0}
	if got := Greedy(p); len(got) != 0 {
		t.Errorf("Greedy(empty) = %v", got)
	}
	if got := LocalSearch(p); len(got) != 0 {
		t.Errorf("LocalSearch(empty) = %v", got)
	}
	got, optimal := Exact(p, 0)
	if len(got) != 0 || !optimal {
		t.Errorf("Exact(empty) = %v, %v", got, optimal)
	}
}

func TestMaxSetSize(t *testing.T) {
	if got := (Problem{}).MaxSetSize(); got != 0 {
		t.Errorf("MaxSetSize(empty) = %d", got)
	}
	p := Problem{N: 5, Sets: [][]int{{0}, {1, 2, 3}, {0, 4}}}
	if got := p.MaxSetSize(); got != 3 {
		t.Errorf("MaxSetSize = %d, want 3", got)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := randomProblem(rng, 12, 20, 3)
	a := LocalSearch(p)
	b := LocalSearch(p)
	if len(a) != len(b) {
		t.Fatal("LocalSearch not deterministic in size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LocalSearch not deterministic in selection")
		}
	}
}

// TestLocalSearchPacksNoTriangleTriple pins DESIGN.md's "Algorithm 3
// packs pairs only": when every triple's three pairs are in the family,
// as Algorithm 3's triangle enumeration makes them, Greedy leaves a
// maximal pair packing and no exchange move can add a triple, so
// LocalSearch never picks one.
func TestLocalSearchPacksNoTriangleTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	triples := 0
	for trial := 0; trial < 20000; trial++ {
		p := Problem{N: 3 + rng.Intn(10)}
		density := rng.Float64()
		edge := make([][]bool, p.N)
		for a := range edge {
			edge[a] = make([]bool, p.N)
			for b := 0; b < a; b++ {
				if rng.Float64() < density {
					edge[a][b], edge[b][a] = true, true
					p.Sets = append(p.Sets, []int{b, a})
				}
			}
		}
		for a := 0; a < p.N; a++ {
			for b := a + 1; b < p.N; b++ {
				for c := b + 1; c < p.N; c++ {
					if edge[a][b] && edge[b][c] && edge[a][c] && rng.Intn(2) == 0 {
						p.Sets = append(p.Sets, []int{a, b, c})
						triples++
					}
				}
			}
		}
		rng.Shuffle(len(p.Sets), func(i, j int) { p.Sets[i], p.Sets[j] = p.Sets[j], p.Sets[i] })
		for _, k := range LocalSearch(p) {
			if len(p.Sets[k]) == 3 {
				t.Fatalf("trial %d: LocalSearch picked triple %v from %v", trial, p.Sets[k], p.Sets)
			}
		}
	}
	if triples == 0 {
		t.Fatal("no trial offered a triple")
	}
	t.Logf("%d triples offered, none picked", triples)
}
