package roadnet

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stabledispatch/internal/geo"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(3)
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 3, Y: 0})
	g.AddNode(geo.Point{X: 0, Y: 4})
	mustEdge(t, g, 0, 1, 3)
	mustEdge(t, g, 1, 2, 5)
	mustEdge(t, g, 0, 2, 4)
	return g
}

// numEdges counts g's undirected road segments.
func numEdges(g *Graph) int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

func mustEdge(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d, %d, %v): %v", u, v, w, err)
	}
}

func TestGraphBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if n := numEdges(g); n != 3 {
		t.Errorf("edges = %d, want 3", n)
	}
	if d := len(g.adj[0]); d != 2 {
		t.Errorf("degree of node 0 = %d, want 2", d)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(2)
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 1})
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("AddEdge out of range: want error")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("AddEdge negative weight: want error")
	}
	if err := g.AddRoad(0, 9); err == nil {
		t.Error("AddRoad out of range: want error")
	}
}

func TestShortestDistances(t *testing.T) {
	g := buildTriangle(t)
	dist := g.ShortestDistances(0)
	want := []float64{0, 3, 4}
	for i, w := range want {
		if math.Abs(dist[i]-w) > 1e-9 {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestShortestPath(t *testing.T) {
	// Path graph 0-1-2-3 with a shortcut 0-3 that is longer.
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(geo.Point{X: float64(i)})
	}
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	mustEdge(t, g, 2, 3, 1)
	mustEdge(t, g, 0, 3, 10)

	path, dist, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if dist != 3 {
		t.Errorf("dist = %v, want 3", dist)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := buildTriangle(t)
	path, dist, err := g.ShortestPath(1, 1)
	if err != nil || dist != 0 || len(path) != 1 || path[0] != 1 {
		t.Errorf("ShortestPath(1,1) = %v, %v, %v", path, dist, err)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := NewGraph(2)
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 1})
	if _, _, err := g.ShortestPath(0, 1); !errors.Is(err, ErrDisconnected) {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
	dist := g.ShortestDistances(0)
	if !math.IsInf(dist[1], 1) {
		t.Errorf("dist to disconnected node = %v, want +Inf", dist[1])
	}
}

func TestDijkstraAgainstFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			g.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
		}
		// Random edges; about 2.5 per node.
		fw := make([][]float64, n)
		for i := range fw {
			fw[i] = make([]float64, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = math.Inf(1)
				}
			}
		}
		for e := 0; e < n*5/2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := rng.Float64() * 10
			mustEdge(t, g, u, v, w)
			if w < fw[u][v] {
				fw[u][v], fw[v][u] = w, w
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if alt := fw[i][k] + fw[k][j]; alt < fw[i][j] {
						fw[i][j] = alt
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			dist := g.ShortestDistances(src)
			for dst := 0; dst < n; dst++ {
				if math.IsInf(fw[src][dst], 1) != math.IsInf(dist[dst], 1) {
					t.Fatalf("trial %d: reachability mismatch %d->%d", trial, src, dst)
				}
				if !math.IsInf(dist[dst], 1) && math.Abs(dist[dst]-fw[src][dst]) > 1e-9 {
					t.Fatalf("trial %d: dist %d->%d = %v, want %v", trial, src, dst, dist[dst], fw[src][dst])
				}
			}
		}
	}
}

func TestGridConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     GridConfig
		wantErr bool
	}{
		{name: "valid", cfg: GridConfig{Rows: 3, Cols: 3, Spacing: 1}, wantErr: false},
		{name: "zero rows", cfg: GridConfig{Rows: 0, Cols: 3, Spacing: 1}, wantErr: true},
		{name: "zero spacing", cfg: GridConfig{Rows: 3, Cols: 3, Spacing: 0}, wantErr: true},
		{name: "jitter too large", cfg: GridConfig{Rows: 3, Cols: 3, Spacing: 1, Jitter: 0.6}, wantErr: true},
		{name: "drop prob 1", cfg: GridConfig{Rows: 3, Cols: 3, Spacing: 1, DropProb: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewGridConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, err := NewGrid(GridConfig{
			Rows: 8, Cols: 10, Spacing: 0.5, Jitter: 0.2, DropProb: 0.3, Seed: seed,
		})
		if err != nil {
			t.Fatalf("NewGrid: %v", err)
		}
		if g.NumNodes() != 80 {
			t.Fatalf("NumNodes = %d, want 80", g.NumNodes())
		}
		dist := g.ShortestDistances(0)
		for i, d := range dist {
			if math.IsInf(d, 1) {
				t.Fatalf("seed %d: node %d unreachable; grid must stay connected", seed, i)
			}
		}
	}
}

func TestNewGridNoDropKeepsAllEdges(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 4, Cols: 5, Spacing: 1})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	// A full r x c grid has r(c-1) + c(r-1) edges.
	want := 4*4 + 5*3
	if n := numEdges(g); n != want {
		t.Errorf("edges = %d, want %d", n, want)
	}
}

func TestMetricBasics(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 5, Cols: 5, Spacing: 1})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMetric(g, 16)

	// Distance between two intersections equals grid shortest path.
	a := g.Node(0)  // (0, 0)
	b := g.Node(24) // (4, 4)
	if got := m.Distance(a, b); math.Abs(got-8) > 1e-9 {
		t.Errorf("Distance corner-to-corner = %v, want 8", got)
	}
	if got := m.Distance(a, a); got != 0 {
		t.Errorf("Distance(a, a) = %v, want 0", got)
	}
}

func TestMetricSymmetricAndTriangleOnGrid(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 6, Cols: 6, Spacing: 1, Jitter: 0.1, DropProb: 0.2, Seed: 3})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMetric(g, 8)
	rng := rand.New(rand.NewSource(4))
	sample := func() geo.Point {
		return geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}
	}
	for i := 0; i < 50; i++ {
		a, b, c := sample(), sample(), sample()
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("asymmetric: d(a,b)=%v d(b,a)=%v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		// Node-snapped distances satisfy the triangle inequality up
		// to the walk-in/walk-out slack of the middle point.
		slack := 2 * geo.Euclid(b, g.Node(m.Snap(b)))
		if m.Distance(a, c) > dab+m.Distance(b, c)+slack+1e-9 {
			t.Fatalf("triangle violated beyond snapping slack")
		}
	}
}

func TestMetricCacheEviction(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 4, Cols: 4, Spacing: 1})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMetric(g, 2)
	// Query from more sources than the cache holds; results must stay
	// correct after eviction.
	pts := []geo.Point{g.Node(0), g.Node(5), g.Node(10), g.Node(15), g.Node(0)}
	for _, p := range pts {
		for _, q := range pts {
			d1 := m.Distance(p, q)
			d2 := m.Distance(p, q)
			if d1 != d2 {
				t.Fatalf("unstable distance %v vs %v", d1, d2)
			}
		}
	}
}

func TestMetricPath(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 3, Cols: 3, Spacing: 1})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMetric(g, 4)
	path, err := m.Path(g.Node(0), g.Node(8))
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(path) != 5 { // 4 grid hops
		t.Errorf("path length = %d nodes, want 5", len(path))
	}
	if path[0] != g.Node(0) || path[len(path)-1] != g.Node(8) {
		t.Errorf("path endpoints wrong: %v", path)
	}
}

func TestMetricConcurrentUse(t *testing.T) {
	g, err := NewGrid(GridConfig{Rows: 6, Cols: 6, Spacing: 1, Seed: 1})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMetric(g, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				a := geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}
				b := geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}
				if d := m.Distance(a, b); d < 0 {
					t.Errorf("negative distance %v", d)
					return
				}
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
