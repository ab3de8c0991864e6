package roadnet

import (
	"sync"

	"stabledispatch/internal/geo"
)

// maxCacheShards bounds the shard fan-out; sixteen shards is enough to
// take lock contention off the profile for any worker count the cost
// plane runs (Workers defaults to GOMAXPROCS).
const maxCacheShards = 16

// cacheShard is one slice of the Dijkstra memo: a source-node → distance
// table map with its own lock, FIFO order, and counters. Sources are
// assigned to shards by node id (u & shardMask), so concurrent queries
// from different sources rarely contend on the same lock.
type cacheShard struct {
	mu       sync.Mutex
	tables   map[int][]float64
	order    []int // FIFO eviction order of cached sources
	capacity int

	hits, misses, evictions uint64 // guarded by mu
}

// Metric adapts a Graph to the geo.Metric interface. Arbitrary points are
// snapped to their nearest intersection; the travel distance is the walk
// to the snap node, the shortest path between snap nodes, and the walk
// from the destination snap node.
//
// Single-source Dijkstra results are memoised per source node, so a batch
// of distance queries from the same origin (the common pattern when
// building preference lists) costs one graph traversal. The memo is
// sharded by source node — each shard has its own mutex and FIFO order —
// so concurrent readers (the cost-plane worker pool) do not serialise on
// a single lock. Lookups use only the forward table of the query's own
// source: a reverse-table shortcut (reading cache[v][u]) would return a
// value whose floating-point rounding depends on which tables happen to
// be resident, breaking the bit-determinism contract that distances are
// independent of cache state.
type Metric struct {
	graph *Graph
	snap  *snapGrid

	shards    []cacheShard
	shardMask int
}

// CacheStats is a point-in-time view of the Dijkstra memo: cumulative
// hits/misses/evictions and the current number of cached source tables,
// summed across shards.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// CacheStats returns the metric's cache counters. Same-node queries
// short-circuit before the cache and are not counted.
func (m *Metric) CacheStats() CacheStats {
	var s CacheStats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Size += len(sh.tables)
		sh.mu.Unlock()
	}
	return s
}

var (
	_ geo.Metric      = (*Metric)(nil)
	_ geo.BatchMetric = (*Metric)(nil)
)

// shardCountFor returns the number of cache shards for a given table
// capacity: the largest power of two that is ≤ capacity and ≤
// maxCacheShards. A capacity-1 cache gets a single shard so FIFO
// behaviour degenerates to the unsharded design.
func shardCountFor(capacity int) int {
	n := 1
	for n*2 <= capacity && n*2 <= maxCacheShards {
		n *= 2
	}
	return n
}

// NewMetric returns a Metric over g caching up to cacheSources
// single-source shortest-path tables (minimum 1). The budget is split
// across power-of-two shards; shards earlier in index order absorb the
// remainder so the total capacity is exactly cacheSources.
func NewMetric(g *Graph, cacheSources int) *Metric {
	if cacheSources < 1 {
		cacheSources = 1
	}
	n := shardCountFor(cacheSources)
	shards := make([]cacheShard, n)
	base, extra := cacheSources/n, cacheSources%n
	for i := range shards {
		budget := base
		if i < extra {
			budget++
		}
		shards[i] = cacheShard{
			tables:   make(map[int][]float64, budget),
			capacity: budget,
		}
	}
	return &Metric{
		graph:     g,
		snap:      newSnapIndex(g),
		shards:    shards,
		shardMask: n - 1,
	}
}

// Graph returns the underlying road network.
func (m *Metric) Graph() *Graph { return m.graph }

// Snap returns the nearest intersection to p, or -1 for an empty graph.
func (m *Metric) Snap(p geo.Point) int {
	return m.snap.nearest(p)
}

// Distance implements geo.Metric.
func (m *Metric) Distance(a, b geo.Point) float64 {
	u := m.Snap(a)
	v := m.Snap(b)
	if u < 0 || v < 0 {
		return geo.Euclid(a, b)
	}
	walkIn := geo.Euclid(a, m.graph.Node(u))
	walkOut := geo.Euclid(m.graph.Node(v), b)
	return walkIn + m.nodeDistance(u, v) + walkOut
}

// DistancesFrom implements geo.BatchMetric: the distance from src to
// every destination, bit-identical to calling Distance per pair, at the
// cost of a single cache probe (one Dijkstra traversal on a miss) for
// the whole batch.
func (m *Metric) DistancesFrom(src geo.Point, dsts []geo.Point) []float64 {
	out := make([]float64, len(dsts))
	u := m.Snap(src)
	if u < 0 {
		for i, d := range dsts {
			out[i] = geo.Euclid(src, d)
		}
		return out
	}
	walkIn := geo.Euclid(src, m.graph.Node(u))
	var table []float64 // fetched on the first destination that needs it
	for i, d := range dsts {
		v := m.Snap(d)
		if v < 0 {
			out[i] = geo.Euclid(src, d)
			continue
		}
		walkOut := geo.Euclid(m.graph.Node(v), d)
		nd := 0.0
		if v != u {
			if table == nil {
				table = m.sourceTable(u)
			}
			nd = table[v]
		}
		out[i] = walkIn + nd + walkOut
	}
	return out
}

// Path returns the intersection sequence of a shortest path between the
// snap nodes of a and b.
func (m *Metric) Path(a, b geo.Point) ([]geo.Point, error) {
	u := m.Snap(a)
	v := m.Snap(b)
	nodes, _, err := m.graph.ShortestPath(u, v)
	if err != nil {
		return nil, err
	}
	pts := make([]geo.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = m.graph.Node(n)
	}
	return pts, nil
}

func (m *Metric) nodeDistance(u, v int) float64 {
	if u == v {
		return 0
	}
	return m.sourceTable(u)[v]
}

// sourceTable returns the full shortest-distance table from u, memoised
// in u's shard. The Dijkstra run happens under the shard lock so a
// source is never computed twice; other shards stay available
// throughout. Cached tables are never mutated after insertion, so the
// returned slice is safe to read after the lock is released — even if
// the entry is evicted in the meantime.
func (m *Metric) sourceTable(u int) []float64 {
	sh := &m.shards[u&m.shardMask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d, ok := sh.tables[u]; ok {
		sh.hits++
		return d
	}
	sh.misses++
	dist := m.graph.ShortestDistances(u)
	if len(sh.tables) >= sh.capacity {
		oldest := sh.order[0]
		sh.order = sh.order[1:]
		delete(sh.tables, oldest)
		sh.evictions++
	}
	sh.tables[u] = dist
	sh.order = append(sh.order, u)
	return dist
}
