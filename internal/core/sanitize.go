package core

import (
	"fmt"
	"strings"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
)

// The invariant sanitizer: the dynamic counterpart of the esvet static
// checks. Edge switching must preserve exactly three structural
// invariants — the graph stays simple (no self-loops, no parallel
// edges), the degree sequence never moves, and every edge is owned by
// exactly one partition. A violated invariant does not crash the engine;
// it silently biases every statistic computed from the shuffled graph,
// which is why checked runs (Config.CheckInvariants) re-verify the
// engine's state instead of trusting the protocol. Every step boundary
// re-verifies, in full, each storage slot written during the step and
// checks that the step's degree deltas cancel across ranks; every slot
// and the whole degree sequence are re-verified after load or restore,
// after a store compaction, at every checkpoint and at run end (see the
// engine-integration section below and stepsync.go). See Sanitize,
// SanitizeGraph and SanitizeDistribution for the standalone checkers.

// ViolationKind classifies a sanitizer finding.
type ViolationKind string

// The invariant classes the sanitizer distinguishes.
const (
	// VSelfLoop: an edge (v, v). Algorithm 1 must reject switches that
	// would create one.
	VSelfLoop ViolationKind = "self-loop"
	// VParallelEdge: the same edge stored twice.
	VParallelEdge ViolationKind = "parallel-edge"
	// VVertexRange: an endpoint outside [0, n).
	VVertexRange ViolationKind = "vertex-range"
	// VDegreeDrift: a vertex degree differing from the recorded baseline.
	VDegreeDrift ViolationKind = "degree-drift"
	// VEdgeCount: the total edge count differing from the baseline.
	VEdgeCount ViolationKind = "edge-count"
	// VOwnership: an edge held by a rank that does not own it, or an
	// unnormalized edge (which would escape ownership-by-min-endpoint).
	VOwnership ViolationKind = "ownership"
)

// Violation is one invariant breach with an actionable description.
type Violation struct {
	Kind    ViolationKind
	Message string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Kind, v.Message) }

// maxViolations bounds how many violations a single check reports; a
// corrupted graph can breach an invariant at every vertex, and the first
// few findings are what a human acts on.
const maxViolations = 16

// Baseline is the invariant fingerprint a graph is checked against:
// vertex count, edge count and the full degree sequence, recorded before
// switching starts.
type Baseline struct {
	N       int
	M       int64
	Degrees []int64 // full (not reduced) degree per vertex
}

// NewBaseline records the invariant fingerprint of g.
func NewBaseline(g *graph.Graph) *Baseline {
	deg := g.Degrees()
	d64 := make([]int64, len(deg))
	for i, d := range deg {
		d64[i] = int64(d)
	}
	return &Baseline{N: g.N(), M: g.M(), Degrees: d64}
}

// BaselineOfEdges records the fingerprint of an explicit edge list over
// n vertices (no simplicity checks; run Sanitize for those).
func BaselineOfEdges(n int, edges []graph.Edge) *Baseline {
	b := &Baseline{N: n, M: int64(len(edges)), Degrees: make([]int64, n)}
	for _, e := range edges {
		if 0 <= e.U && int(e.U) < n {
			b.Degrees[e.U]++
		}
		if 0 <= e.V && int(e.V) < n && e.U != e.V {
			b.Degrees[e.V]++
		}
	}
	return b
}

// Sanitize checks an edge multiset over n vertices against the
// simple-graph invariants and, when base is non-nil, against the
// recorded baseline. It returns every violation found (capped at
// maxViolations per kind), nil when clean. Edges may appear in either
// orientation; orientation is normalized before duplicate detection.
func Sanitize(n int, edges []graph.Edge, base *Baseline) []Violation {
	var vs violations
	seen := make(map[graph.Edge]int, len(edges))
	deg := make([]int64, n)
	for _, e := range edges {
		if e.IsLoop() {
			vs.addf(VSelfLoop, "edge (%d,%d) is a self-loop: switch rejection rules must forbid u==v", e.U, e.V)
			continue
		}
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			vs.addf(VVertexRange, "edge (%d,%d) has an endpoint outside [0,%d)", e.U, e.V, n)
			continue
		}
		ne := e.Norm()
		seen[ne]++
		if seen[ne] == 2 { // report once per duplicated edge
			vs.addf(VParallelEdge, "edge (%d,%d) appears more than once: a switch committed a replacement edge that already existed", ne.U, ne.V)
		}
		deg[ne.U]++
		deg[ne.V]++
	}
	if base != nil {
		checkBaseline(&vs, n, int64(len(edges)), deg, base)
	}
	return vs.list
}

// SanitizeGraph checks a *graph.Graph (internal consistency via
// CheckSimple, then the baseline comparison). The graph type's own API
// prevents loops and duplicates, so the interesting findings here are
// degree drift and edge-count drift against base.
func SanitizeGraph(g *graph.Graph, base *Baseline) []Violation {
	var vs violations
	if err := g.CheckSimple(); err != nil {
		vs.addf(VParallelEdge, "internal structure check failed: %v", err)
	}
	if base != nil {
		deg := g.Degrees()
		d64 := make([]int64, len(deg))
		for i, d := range deg {
			d64[i] = int64(d)
		}
		checkBaseline(&vs, g.N(), g.M(), d64, base)
	}
	return vs.list
}

// SanitizeDistribution checks the exactly-once edge-ownership invariant
// across partitions: parts[r] is rank r's claimed (normalized, reduced)
// edge set; every edge must live in exactly the part of
// pt.Owner(edge.U), no edge may appear in two parts, and the union must
// satisfy Sanitize against base.
func SanitizeDistribution(pt partition.Partitioner, n int, parts [][]graph.Edge, base *Baseline) []Violation {
	var vs violations
	union := make([]graph.Edge, 0)
	holders := make(map[graph.Edge]int)
	for rank, edges := range parts {
		for _, e := range edges {
			if e.U > e.V {
				vs.addf(VOwnership, "rank %d stores unnormalized edge (%d,%d): reduced adjacency must key edges by their min endpoint", rank, e.U, e.V)
				e = e.Norm()
			}
			if !e.IsLoop() && e.U >= 0 && int(e.V) < n {
				if owner := pt.Owner(e.U); owner != rank {
					vs.addf(VOwnership, "rank %d stores edge (%d,%d) owned by rank %d: every edge must live in exactly its owner's partition", rank, e.U, e.V, owner)
				}
			}
			if prev, dup := holders[e]; dup {
				vs.addf(VOwnership, "edge (%d,%d) held by both rank %d and rank %d: edges must be owned exactly once", e.U, e.V, prev, rank)
			} else {
				holders[e] = rank
			}
			union = append(union, e)
		}
	}
	vs.list = append(vs.list, Sanitize(n, union, base)...)
	return vs.list
}

// checkBaseline appends degree/edge-count drift violations.
func checkBaseline(vs *violations, n int, m int64, deg []int64, base *Baseline) {
	if n != base.N {
		vs.addf(VVertexRange, "vertex count %d != baseline %d", n, base.N)
		return
	}
	if m != base.M {
		vs.addf(VEdgeCount, "edge count %d != baseline %d: a switch lost or invented an edge", m, base.M)
	}
	for v := 0; v < n; v++ {
		if deg[v] != base.Degrees[v] {
			vs.addf(VDegreeDrift, "degree of vertex %d is %d, baseline %d: edge switching must preserve the degree sequence exactly", v, deg[v], base.Degrees[v])
		}
	}
}

// violations accumulates findings with a per-kind cap.
type violations struct {
	list   []Violation
	byKind map[ViolationKind]int
}

func (vs *violations) addf(kind ViolationKind, format string, args ...any) {
	if vs.byKind == nil {
		vs.byKind = make(map[ViolationKind]int)
	}
	vs.byKind[kind]++
	switch {
	case vs.byKind[kind] < maxViolations:
		vs.list = append(vs.list, Violation{Kind: kind, Message: fmt.Sprintf(format, args...)})
	case vs.byKind[kind] == maxViolations:
		vs.list = append(vs.list, Violation{Kind: kind, Message: fmt.Sprintf("further %s violations suppressed", kind)})
	}
}

// ---- engine integration (Config.CheckInvariants) ----

// The engine-side contract. Every slot the run writes passes through
// takeLocal, insertLocal or drainLocal, which mark it dirty; a step
// boundary re-verifies exactly the dirty slots, each in full, so a
// sanitized boundary costs O(slots and vertices touched in the step)
// rather than O(n + m/p). Every slot is re-verified at the first
// boundary after load or restore (the baseline pass), at the boundary
// after any store compaction, at every checkpoint (the pass that
// computes the manifest's degree checksum, compared against the
// baseline before the checkpoint may commit) and at run end. A write
// that bypasses the helpers is therefore caught at the next of those
// points at the latest.

// slotScan is the state of one scan's adjacency walk; its visit method
// is the Walk callback, bound once per scan so the walk allocates
// nothing per slot.
type slotScan struct {
	vs      violations
	rank, n int
	u, prev graph.Vertex
	deg     []int64
}

func (s *slotScan) visit(v graph.Vertex, _ bool) bool {
	u := s.u
	switch {
	case v == u:
		s.vs.addf(VSelfLoop, "edge (%d,%d) is a self-loop", u, v)
	case v < u:
		s.vs.addf(VOwnership, "rank %d stores unnormalized entry (%d,%d): reduced adjacency must only hold neighbours > %d", s.rank, u, v, u)
	case int(v) >= s.n:
		s.vs.addf(VVertexRange, "edge (%d,%d) has an endpoint outside [0,%d)", u, v, s.n)
	case v <= s.prev:
		s.vs.addf(VParallelEdge, "adjacency of vertex %d is not strictly ascending at %d", u, v)
	}
	s.prev = v
	if s.deg != nil && v >= 0 && int(v) < s.n {
		s.deg[u]++
		s.deg[v]++
	}
	return true
}

// scanSlots re-verifies slots in full: the partitioner owns the slot's
// vertex, every entry is no self-loop, normalized (neighbour > owner),
// in range and strictly ascending, and the Fenwick degree equals the
// entry count. It scans every slot when all is set and otherwise the
// dirty ones, and either way leaves the dirty set empty — everything
// written so far is now verified. A non-nil deg (length > n) also
// accumulates this rank's share of the global degree vector: each
// stored reduced edge (u,v) adds one to both endpoints, so summing the
// shares over all ranks yields the full degree sequence iff every edge
// is stored exactly once.
func (e *rankEngine) scanSlots(all bool, deg []int64) []Violation {
	s := &slotScan{rank: e.c.Rank(), n: e.n, deg: deg}
	visit := s.visit
	scan := func(li int) {
		u := e.verts[li]
		if owner := e.pt.Owner(u); owner != s.rank {
			s.vs.addf(VOwnership, "rank %d holds vertex %d owned by rank %d", s.rank, u, owner)
		}
		s.u, s.prev = u, -1
		e.adj.Walk(li, visit)
		if int64(e.adj.Len(li)) != e.deg.Get(li) {
			s.vs.addf(VEdgeCount, "Fenwick degree of vertex %d is %d, adjacency holds %d", u, e.deg.Get(li), e.adj.Len(li))
		}
	}
	if all {
		for li := range e.verts {
			scan(li)
		}
		// A full scan covers every compaction before it.
		e.compactions = e.adj.Stats().Compactions
	} else {
		e.dirty.sort()
		for _, li := range e.dirty.list {
			scan(int(li))
		}
	}
	e.dirty.reset()
	return s.vs.list
}

// boundaryScan is a sanitized step boundary's structural check: the
// dirty slots, widened to every slot when the store compacted since the
// last full scan (a compaction rewrites every slot's storage). The
// first boundary after load or restore also reports the findings of
// the baseline pass, recordBaseline's full scan.
func (e *rankEngine) boundaryScan() []Violation {
	all := e.adj.Stats().Compactions != e.compactions
	vs := append(e.pending, e.scanSlots(all, nil)...)
	e.pending = nil
	return vs
}

// fullScan re-verifies every slot and allreduces the global degree
// vector, with the global edge count appended at index n: the one
// whole-partition pass behind the baseline record, checkpoints and the
// end-of-run verification. All ranks enter its allreduce symmetrically.
func (e *rankEngine) fullScan() ([]int64, []Violation, error) {
	deg := make([]int64, e.n+1)
	vs := e.scanSlots(true, deg)
	deg[e.n] = e.deg.Total()
	glob, err := e.c.AllreduceInt64s(deg, mpi.OpSum)
	if err != nil {
		return nil, nil, err
	}
	return glob, vs, nil
}

// recordBaseline captures the global degree sequence right after the
// partitions are loaded or restored (one O(n) allreduce; all ranks enter
// it symmetrically before the first step). Its full scan is the first
// boundary's: nothing mutates in between, so the findings are held for
// that boundary's exchange to report.
func (e *rankEngine) recordBaseline() error {
	glob, vs, err := e.fullScan()
	if err != nil {
		return err
	}
	if glob[e.n] != e.m {
		return fmt.Errorf("core: rank %d invariant sanitizer: loaded %d edges across ranks, expected %d", e.c.Rank(), glob[e.n], e.m)
	}
	e.baseDeg = glob[:e.n]
	e.pending = vs
	return nil
}

// checkBaselineTotals appends the drift of a fullScan's global vector
// from the recorded baseline.
func (e *rankEngine) checkBaselineTotals(vg *violations, glob []int64) {
	if glob[e.n] != e.m {
		vg.addf(VEdgeCount, "edge count %d != invariant %d: a switch lost or invented an edge", glob[e.n], e.m)
	}
	for v := 0; v < e.n; v++ {
		if glob[v] != e.baseDeg[v] {
			vg.addf(VDegreeDrift, "degree of vertex %d is %d, baseline %d", v, glob[v], e.baseDeg[v])
		}
	}
}

// verifyBaseline runs the full invariant suite at the end of the run:
// the structural scan of every slot plus a global degree-sequence and
// edge-count comparison against the recorded baseline (one O(n)
// allreduce that all ranks enter symmetrically). Step boundaries are
// covered by the dirty-slot scan and the sparse delta check fused into
// stepExchange (see stepsync.go); this full pass backstops them once per
// run, catching the final step's deltas and any drift the incremental
// bookkeeping itself could miss (a mutation path that bypasses the
// accounting helpers).
func (e *rankEngine) verifyBaseline() error {
	glob, vs, err := e.fullScan()
	if err != nil {
		return err
	}
	vg := violations{list: vs}
	e.checkBaselineTotals(&vg, glob)
	if len(vg.list) > 0 {
		return fmt.Errorf("core: rank %d invariant sanitizer: %s", e.c.Rank(), summarize(vg.list))
	}
	return nil
}

// summarize renders a violation list for an error message, leading with
// the first few findings (what a human acts on).
func summarize(vs []Violation) string {
	if len(vs) == 0 {
		return "clean"
	}
	parts := make([]string, 0, 5)
	for i, v := range vs {
		if i == 4 {
			parts = append(parts, fmt.Sprintf("... and %d more", len(vs)-i))
			break
		}
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("%d violation(s): %s", len(vs), strings.Join(parts, "; "))
}
