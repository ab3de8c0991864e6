// Package roadnet implements the road-network substrate the paper's
// distance function D(·,·) is defined over: a weighted undirected graph
// of road intersections with shortest-path queries.
//
// The package provides a perturbed-grid city generator (Manhattan-style
// street grids with randomly missing segments and jittered intersections),
// a binary-heap Dijkstra, path extraction for taxi movement, and an
// adapter that exposes the network as a geo.Metric, snapping arbitrary
// points to their nearest intersection through a uniform cell grid.
package roadnet

import (
	"errors"
	"fmt"
	"math"

	"stabledispatch/internal/geo"
)

// ErrDisconnected is returned when no path exists between two nodes.
var ErrDisconnected = errors.New("roadnet: nodes are disconnected")

type edge struct {
	to     int
	weight float64
}

// Graph is an undirected road network. Nodes are intersections with
// planar coordinates; edges are road segments weighted by length.
type Graph struct {
	nodes []geo.Point
	adj   [][]edge
}

// NewGraph returns an empty graph with capacity for n nodes.
func NewGraph(n int) *Graph {
	return &Graph{
		nodes: make([]geo.Point, 0, n),
		adj:   make([][]edge, 0, n),
	}
}

// AddNode inserts an intersection and returns its index.
func (g *Graph) AddNode(p geo.Point) int {
	g.nodes = append(g.nodes, p)
	g.adj = append(g.adj, nil)
	return len(g.nodes) - 1
}

// AddEdge inserts an undirected road segment between nodes u and v with
// the given length. It returns an error if either endpoint is out of
// range or the weight is negative.
func (g *Graph) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		return fmt.Errorf("roadnet: edge (%d, %d) out of range [0, %d)", u, v, len(g.nodes))
	}
	if weight < 0 {
		return fmt.Errorf("roadnet: negative edge weight %v", weight)
	}
	g.adj[u] = append(g.adj[u], edge{to: v, weight: weight})
	g.adj[v] = append(g.adj[v], edge{to: u, weight: weight})
	return nil
}

// AddRoad inserts an edge weighted by the Euclidean distance between the
// two intersections.
func (g *Graph) AddRoad(u, v int) error {
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		return fmt.Errorf("roadnet: road (%d, %d) out of range [0, %d)", u, v, len(g.nodes))
	}
	return g.AddEdge(u, v, geo.Euclid(g.nodes[u], g.nodes[v]))
}

// NumNodes returns the number of intersections.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the coordinates of intersection i.
func (g *Graph) Node(i int) geo.Point { return g.nodes[i] }

// ShortestDistances runs Dijkstra from src and returns the distance to
// every node (math.Inf(1) for unreachable nodes).
func (g *Graph) ShortestDistances(src int) []float64 {
	dist, _ := g.dijkstra(src, -1)
	return dist
}

// ShortestPath returns the node sequence of a shortest path from src to
// dst, inclusive of both endpoints, and its total length.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, error) {
	if src == dst {
		return []int{src}, 0, nil
	}
	dist, prev := g.dijkstra(src, dst)
	if math.IsInf(dist[dst], 1) {
		return nil, 0, ErrDisconnected
	}
	var rev []int
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
	}
	path := make([]int, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, dist[dst], nil
}

// dijkstra computes single-source shortest paths. If dst >= 0 the search
// stops as soon as dst is settled.
func (g *Graph) dijkstra(src, dst int) (dist []float64, prev []int) {
	n := len(g.nodes)
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	h := &minHeap{}
	h.push(heapItem{node: src, dist: 0})
	settled := make([]bool, n)
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == dst {
			return dist, prev
		}
		for _, e := range g.adj[u] {
			if alt := dist[u] + e.weight; alt < dist[e.to] {
				dist[e.to] = alt
				prev[e.to] = u
				h.push(heapItem{node: e.to, dist: alt})
			}
		}
	}
	return dist, prev
}

type heapItem struct {
	node int
	dist float64
}

// minHeap is a binary heap of (node, dist) keyed on dist. A hand-rolled
// heap avoids the interface boxing of container/heap on this hot path.
type minHeap struct {
	items []heapItem
}

func (h *minHeap) len() int { return len(h.items) }

func (h *minHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *minHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].dist < h.items[smallest].dist {
			smallest = l
		}
		if r < last && h.items[r].dist < h.items[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
