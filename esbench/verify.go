package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// input fingerprints a workload's input graph: what every result is
// checked against.
type input struct {
	n    int
	m    int64
	deg  []int32  // full degree of every vertex
	keys []uint64 // sorted edge keys u<<32|v with u < v
}

func edgeKey(u, v graph.Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// inputFromGen enumerates the spec's edge set (pergen may repeat a
// contact edge; the set collapses repeats, as every bootstrap does).
func inputFromGen(gn *pergen.Gen) *input {
	var keys []uint64
	gn.Edges(func(e graph.Edge) { keys = append(keys, edgeKey(e.U, e.V)) })
	slices.Sort(keys)
	keys = slices.Compact(keys)
	in := &input{n: gn.N(), m: int64(len(keys)), deg: make([]int32, gn.N()), keys: keys}
	for _, k := range keys {
		in.deg[k>>32]++
		in.deg[uint32(k)]++
	}
	return in
}

// offsets indexes keys by minimum endpoint: the reduced adjacency of u
// is keys[off[u]:off[u+1]].
func (in *input) offsets() []int64 {
	off := make([]int64, in.n+1)
	for _, k := range in.keys {
		off[k>>32+1]++
	}
	for u := 0; u < in.n; u++ {
		off[u+1] += off[u]
	}
	return off
}

// adjSets builds every vertex's reduced adjacency as the engine stores
// it: a treap per vertex, from one arena.
func (in *input) adjSets(a *graph.NodeArena, r *rng.RNG) []graph.AdjSet {
	adj := make([]graph.AdjSet, in.n)
	off := in.offsets()
	var vs []graph.Vertex
	var prios []uint32
	for u := range adj {
		vs, prios = vs[:0], prios[:0]
		for _, k := range in.keys[off[u]:off[u+1]] {
			vs = append(vs, graph.Vertex(uint32(k)))
			prios = append(prios, r.Uint32())
		}
		adj[u].BuildSorted(a, vs, prios, true)
	}
	return adj
}

func (in *input) has(k uint64) bool {
	_, ok := slices.BinarySearch(in.keys, k)
	return ok
}

// visitSlack is how far below x an edge-switching run's visit rate may
// land and still count as reaching it. OpsForVisitRate sets t to the
// expected number of operations for x, so the achieved rate scatters
// around x: the count of unvisited edges is close to binomial, with
// standard deviation sqrt(x(1-x)/m) in the rate (§3.1 observes the
// scatter well below 0.1% at these sizes). The slack is four of those.
// Curveball stops at the first round boundary at or above x and gets
// no slack.
func visitSlack(m int64) float64 { return 4 * math.Sqrt(targetX*(1-targetX)/float64(m)) }

// verifyGraph checks a gathered result against the input: the written
// file holds a simple graph with the input's n, m and exact degree
// sequence, every edge the result flags as original is an input edge,
// and the visit rate those flags give reaches x.
func verifyGraph(in *input, res *core.Result, written string, slack float64) error {
	if res == nil || res.Graph == nil {
		return fmt.Errorf("no result graph")
	}
	if err := verifyFile(in, written); err != nil {
		return fmt.Errorf("written result: %w", err)
	}
	g := res.Graph
	if g.N() != in.n || g.M() != in.m {
		return fmt.Errorf("result has n=%d m=%d, input n=%d m=%d", g.N(), g.M(), in.n, in.m)
	}
	var origs int64
	var bad error
	for u := 0; u < g.N() && bad == nil; u++ {
		g.WalkReduced(graph.Vertex(u), func(v graph.Vertex, orig bool) bool {
			if orig {
				if !in.has(edgeKey(graph.Vertex(u), v)) {
					bad = fmt.Errorf("edge (%d,%d) flagged original is not an input edge", u, v)
					return false
				}
				origs++
			}
			return true
		})
	}
	if bad != nil {
		return bad
	}
	return verifyVisitRate(core.VisitRate(origs, in.m), res.VisitRate, slack)
}

// verifyVisitRate checks that the rate recounted from the result reaches
// x (less slack) and agrees with what the engine reported.
func verifyVisitRate(recounted, reported, slack float64) error {
	if recounted != reported {
		return fmt.Errorf("visit rate recounted %.6f, engine reported %.6f", recounted, reported)
	}
	if recounted < targetX-slack {
		return fmt.Errorf("visit rate %.6f below target %.3f", recounted, targetX)
	}
	return nil
}

// verifyFile parses a graph.WriteBinary file independently of the graph
// package and checks it holds a simple graph with the input's vertex
// count, edge count and degree sequence.
func verifyFile(in *input, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 16 || binary.LittleEndian.Uint32(data) != 0x45535747 {
		return fmt.Errorf("not a binary edge list")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	m := int64(binary.LittleEndian.Uint64(data[8:]))
	if n != in.n || m != in.m || int64(len(data)-16) != 8*m {
		return fmt.Errorf("header n=%d m=%d (%d bytes), input n=%d m=%d", n, m, len(data), in.n, in.m)
	}
	keys := make([]uint64, m)
	deg := make([]int32, n)
	for i := range keys {
		u := binary.LittleEndian.Uint32(data[16+8*i:])
		v := binary.LittleEndian.Uint32(data[20+8*i:])
		if u == v || int(u) >= n || int(v) >= n {
			return fmt.Errorf("edge %d: (%d,%d) is a loop or out of range", i, u, v)
		}
		keys[i] = edgeKey(graph.Vertex(u), graph.Vertex(v))
		deg[u]++
		deg[v]++
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("parallel edge (%d,%d)", keys[i]>>32, uint32(keys[i]))
		}
	}
	if i := firstDiff(deg, in.deg); i >= 0 {
		return fmt.Errorf("degree of %d is %d, input has %d", i, deg[i], in.deg[i])
	}
	return nil
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// verifyFingerprint checks a SkipResult run against the verified
// in-memory reference of the same seed, whose visit rate reached x: the
// tiered store is documented to be bit-identical to in-memory storage
// wherever the run is deterministic, which global curveball is.
func verifyFingerprint(res *core.Result, ref *core.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.EdgeHash != ref.EdgeHash {
		return fmt.Errorf("edge hash %#x differs from the in-memory reference %#x", res.EdgeHash, ref.EdgeHash)
	}
	if res.Steps != ref.Steps || res.VisitRate != ref.VisitRate {
		return fmt.Errorf("%d rounds to visit rate %.6f, reference %d rounds to %.6f", res.Steps, res.VisitRate, ref.Steps, ref.VisitRate)
	}
	return nil
}
