// Package graph provides the in-memory graph representation shared by the
// sequential and parallel edge-switch algorithms: simple undirected graphs
// stored as reduced adjacency lists (each edge (u,v) with u < v appears
// once, in the list of u), with order-statistic adjacency sets and
// Fenwick-tree degree indices for O(log) uniform edge sampling.
package graph

import (
	"fmt"
	"sort"
)

// Vertex is a vertex label. Labels are dense integers 0..n-1.
type Vertex int32

// Edge is an undirected edge. A normalized edge has U < V.
type Edge struct {
	U, V Vertex
}

// Norm returns the edge with endpoints ordered so that U < V.
func (e Edge) Norm() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// IsLoop reports whether the edge is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph with reduced adjacency lists.
// adj[u] holds exactly the neighbours v of u with v > u, so each edge is
// stored once and "edge (a,b) exists" is always answered by probing
// min(a,b)'s list. The Graph maintains a Fenwick tree over reduced degrees
// so that a uniform random edge can be drawn in O(log n).
//
// Graph is not safe for concurrent mutation; the parallel engine gives
// each rank exclusive ownership of a Partition instead.
type Graph struct {
	n   int
	m   int64
	adj []AdjSet
	deg *Fenwick // reduced degree of each vertex

	originals int64 // edges still carrying the original flag
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{
		n:   n,
		adj: make([]AdjSet, n),
		deg: NewFenwick(n),
	}
}

// FromEdges builds a graph on n vertices from the given edge list. All
// edges are flagged original. It returns an error if any edge is a loop,
// a duplicate, or out of range.
func FromEdges(n int, edges []Edge, r randSource) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.addChecked(e, true, r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// randSource is the subset of rng.RNG the graph package needs; declared
// locally to keep the dependency direction explicit.
type randSource interface {
	Uint32() uint32
	Int64n(int64) int64
	Intn(int) int
}

func (g *Graph) addChecked(e Edge, original bool, r randSource) error {
	e = e.Norm()
	if e.IsLoop() {
		return fmt.Errorf("graph: self-loop %v", e)
	}
	if e.U < 0 || int(e.V) >= g.n {
		return fmt.Errorf("graph: edge %v out of range [0,%d)", e, g.n)
	}
	if !g.insert(e, original, r) {
		return fmt.Errorf("graph: duplicate edge %v", e)
	}
	return nil
}

// insert adds a normalized edge; reports false if it already exists.
func (g *Graph) insert(e Edge, original bool, r randSource) bool {
	if !g.adj[e.U].Insert(e.V, original, r.Uint32()) {
		return false
	}
	g.m++
	g.deg.Add(int(e.U), 1)
	if original {
		g.originals++
	}
	return true
}

// AddEdge inserts edge e (normalized internally) flagged as original.
// It reports false if the edge already exists. Loops are rejected with a
// panic since they indicate a programming error upstream.
func (g *Graph) AddEdge(e Edge, r randSource) bool {
	e = e.Norm()
	if e.IsLoop() {
		panic("graph: AddEdge with self-loop")
	}
	return g.insert(e, true, r)
}

// AddModified inserts edge e flagged as modified (created by a switch).
func (g *Graph) AddModified(e Edge, r randSource) bool {
	e = e.Norm()
	if e.IsLoop() {
		panic("graph: AddModified with self-loop")
	}
	return g.insert(e, false, r)
}

// InsertUnindexed inserts a normalized edge into U's adjacency set only,
// leaving the Fenwick degree index and the edge/original counters stale.
// It is the sharded bulk-load primitive: callers that partition the
// vertex space (each U value touched by exactly one goroutine) may call
// it concurrently, then call Reindex once after every shard finishes.
// The caller must pass a normalized (U < V), in-range edge; duplicates
// are reported with false, as with AddEdge.
func (g *Graph) InsertUnindexed(e Edge, original bool, prio uint32) bool {
	return g.adj[e.U].Insert(e.V, original, prio)
}

// ensureN grows the vertex space to at least n labels, leaving the
// Fenwick degree index stale like InsertUnindexed does — the streaming
// loaders grow as labels appear and Reindex once at the end.
func (g *Graph) ensureN(n int) {
	if n <= g.n {
		return
	}
	if n > cap(g.adj) {
		grown := make([]AdjSet, n, max(n, 2*cap(g.adj)))
		copy(grown, g.adj)
		g.adj = grown
	}
	g.adj = g.adj[:n]
	g.n = n
}

// Reindex rebuilds the Fenwick degree index and the edge and original
// counters from the adjacency sets in O(n), completing a bulk load done
// through InsertUnindexed.
func (g *Graph) Reindex() {
	vals := make([]int64, g.n)
	var m, origs int64
	for u := range g.adj {
		l := int64(g.adj[u].Len())
		vals[u] = l
		m += l
		origs += int64(g.adj[u].Originals())
	}
	g.deg = NewFenwickFrom(vals)
	g.m = m
	g.originals = origs
}

// RemoveEdge deletes edge e. It reports whether the edge existed and
// whether it was an original edge.
func (g *Graph) RemoveEdge(e Edge) (found, original bool) {
	e = e.Norm()
	found, original = g.adj[e.U].Delete(e.V)
	if found {
		g.m--
		g.deg.Add(int(e.U), -1)
		if original {
			g.originals--
		}
	}
	return found, original
}

// HasEdge reports whether edge e exists.
func (g *Graph) HasEdge(e Edge) bool {
	e = e.Norm()
	if e.IsLoop() {
		return false
	}
	return g.adj[e.U].Contains(e.V)
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// M reports the number of edges.
func (g *Graph) M() int64 { return g.m }

// Originals reports how many edges are still flagged original; the visit
// rate is 1 - Originals()/M₀ where M₀ is the initial edge count.
func (g *Graph) Originals() int64 { return g.originals }

// ReducedDegree reports |{v > u : (u,v) ∈ E}|.
func (g *Graph) ReducedDegree(u Vertex) int { return g.adj[u].Len() }

// Degree reports the full degree of u. O(m/n) on average is not available
// from reduced lists alone, so this is O(n log d) if called for all
// vertices; use Degrees for bulk queries.
func (g *Graph) Degree(u Vertex) int {
	d := g.adj[u].Len()
	for w := Vertex(0); w < u; w++ {
		if g.adj[w].Contains(u) {
			d++
		}
	}
	return d
}

// Degrees returns the full degree of every vertex in O(m + n).
func (g *Graph) Degrees() []int {
	deg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		g.adj[u].Walk(func(v Vertex, _ bool) bool {
			deg[u]++
			deg[v]++
			return true
		})
	}
	return deg
}

// RandomEdge returns a uniform random edge (normalized). It panics on an
// empty graph.
func (g *Graph) RandomEdge(r randSource) Edge {
	if g.m == 0 {
		panic("graph: RandomEdge on empty graph")
	}
	slot, offset := g.deg.FindByPrefix(r.Int64n(g.m))
	v, _ := g.adj[slot].Kth(int(offset))
	return Edge{Vertex(slot), v}
}

// Edges returns all edges in normalized form, ordered by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		g.adj[u].Walk(func(v Vertex, _ bool) bool {
			out = append(out, Edge{Vertex(u), v})
			return true
		})
	}
	return out
}

// Neighbors returns the full neighbour set of u in ascending order,
// reconstructed from the reduced lists in O(n log d) worst case; intended
// for metrics and tests, not hot paths. For bulk access use FullAdjacency.
func (g *Graph) Neighbors(u Vertex) []Vertex {
	var out []Vertex
	for w := Vertex(0); w < u; w++ {
		if g.adj[w].Contains(u) {
			out = append(out, w)
		}
	}
	out = append(out, g.adj[u].Keys()...)
	return out
}

// WalkReduced calls fn for each reduced-adjacency entry of u (neighbours
// v > u) in ascending order with its original flag; returning false stops
// the walk.
func (g *Graph) WalkReduced(u Vertex, fn func(v Vertex, original bool) bool) {
	g.adj[u].Walk(fn)
}

// FullAdjacency materializes the full (non-reduced) adjacency structure in
// O(m + n), sorted per vertex. Used by metrics (clustering, BFS).
func (g *Graph) FullAdjacency() [][]Vertex {
	full := make([][]Vertex, g.n)
	deg := g.Degrees()
	for u := range full {
		full[u] = make([]Vertex, 0, deg[u])
	}
	for u := 0; u < g.n; u++ {
		g.adj[u].Walk(func(v Vertex, _ bool) bool {
			full[u] = append(full[u], v)
			full[v] = append(full[v], Vertex(u))
			return true
		})
	}
	for u := range full {
		sort.Slice(full[u], func(i, j int) bool { return full[u][i] < full[u][j] })
	}
	return full
}

// Clone returns a deep copy of the graph, preserving original flags.
func (g *Graph) Clone(r randSource) *Graph {
	ng := New(g.n)
	for u := 0; u < g.n; u++ {
		g.adj[u].Walk(func(v Vertex, original bool) bool {
			ng.insert(Edge{Vertex(u), v}, original, r)
			return true
		})
	}
	return ng
}

// CheckSimple verifies the structural invariants: no loops, no duplicate
// entries (the sets enforce these by construction), edge count matching
// the Fenwick total. It returns an error describing the first violation.
func (g *Graph) CheckSimple() error {
	var count int64
	for u := 0; u < g.n; u++ {
		prev := Vertex(-1)
		ok := true
		g.adj[u].Walk(func(v Vertex, _ bool) bool {
			if v <= Vertex(u) || v <= prev || int(v) >= g.n {
				ok = false
				return false
			}
			prev = v
			count++
			return true
		})
		if !ok {
			return fmt.Errorf("graph: adjacency of %d violates reduced-list order", u)
		}
		if int64(g.adj[u].Len()) != g.deg.Get(u) {
			return fmt.Errorf("graph: Fenwick degree mismatch at %d", u)
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d != recorded %d", count, g.m)
	}
	if g.deg.Total() != g.m {
		return fmt.Errorf("graph: Fenwick total %d != m %d", g.deg.Total(), g.m)
	}
	return nil
}
