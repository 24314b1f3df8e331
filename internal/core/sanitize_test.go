package core

import (
	"strings"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// kinds collects the violation kinds present in a finding list.
func kinds(vs []Violation) map[ViolationKind]bool {
	m := make(map[ViolationKind]bool)
	for _, v := range vs {
		m[v.Kind] = true
	}
	return m
}

// wantKind asserts some finding of the given kind mentions every
// substring (the "actionable message" contract).
func wantKind(t *testing.T, vs []Violation, kind ViolationKind, substrs ...string) {
	t.Helper()
	var ofKind []Violation
	for _, v := range vs {
		if v.Kind != kind {
			continue
		}
		ofKind = append(ofKind, v)
		ok := true
		for _, s := range substrs {
			if !strings.Contains(v.Message, s) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
	if len(ofKind) == 0 {
		t.Fatalf("no %s violation in %v", kind, vs)
	}
	t.Fatalf("no %s violation mentioning %q; got %v", kind, substrs, ofKind)
}

func TestSanitizeCleanGraph(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(40), 200, 800)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Sanitize(g.N(), g.Edges(), NewBaseline(g)); len(vs) != 0 {
		t.Fatalf("clean graph flagged: %v", vs)
	}
	if vs := SanitizeGraph(g, NewBaseline(g)); len(vs) != 0 {
		t.Fatalf("clean graph flagged by SanitizeGraph: %v", vs)
	}
}

func TestSanitizeInjectedSelfLoop(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(41), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	edges := append(g.Edges(), graph.Edge{U: 7, V: 7})
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VSelfLoop, "(7,7)", "self-loop")
	// The loop also bumps the edge count past the baseline.
	wantKind(t, vs, VEdgeCount, "lost or invented")
}

func TestSanitizeDuplicatedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(42), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	e := g.Edges()[0]
	// Duplicate in the reversed orientation: normalization must still
	// detect the collision.
	edges := append(g.Edges(), graph.Edge{U: e.V, V: e.U})
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VParallelEdge, "appears more than once", "already existed")
	k := kinds(vs)
	if !k[VDegreeDrift] || !k[VEdgeCount] {
		t.Fatalf("duplicate edge should also drift degrees and edge count: %v", vs)
	}
}

func TestSanitizeDroppedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(43), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	edges := g.Edges()[1:] // drop one edge
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VEdgeCount, "149", "150", "lost or invented")
	wantKind(t, vs, VDegreeDrift, "preserve the degree sequence")
	// Both endpoints of the dropped edge must be reported.
	drifts := 0
	for _, v := range vs {
		if v.Kind == VDegreeDrift {
			drifts++
		}
	}
	if drifts != 2 {
		t.Fatalf("dropped edge should drift exactly 2 degrees, got %d: %v", drifts, vs)
	}
}

func TestSanitizeVertexRange(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 99}}
	vs := Sanitize(10, edges, nil)
	wantKind(t, vs, VVertexRange, "(2,99)", "outside [0,10)")
}

func TestSanitizeCapsRepeatedViolations(t *testing.T) {
	// 100 self-loops must not produce 100 findings.
	edges := make([]graph.Edge, 100)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i)}
	}
	vs := Sanitize(100, edges, nil)
	if len(vs) != maxViolations {
		t.Fatalf("got %d findings, want cap %d", len(vs), maxViolations)
	}
	last := vs[len(vs)-1]
	if !strings.Contains(last.Message, "suppressed") {
		t.Fatalf("cap marker missing: %v", last)
	}
}

func TestSanitizeDistribution(t *testing.T) {
	pt, err := partition.NewHPD(2)
	if err != nil {
		t.Fatal(err)
	}
	// HP-D with p=2: even vertices -> rank 0, odd -> rank 1.
	clean := [][]graph.Edge{
		{{U: 0, V: 1}, {U: 2, V: 3}},
		{{U: 1, V: 2}, {U: 3, V: 4}},
	}
	n := 5
	if vs := SanitizeDistribution(pt, n, clean, BaselineOfEdges(n, flatten(clean))); len(vs) != 0 {
		t.Fatalf("clean distribution flagged: %v", vs)
	}

	t.Run("wrong owner", func(t *testing.T) {
		parts := [][]graph.Edge{
			{{U: 0, V: 1}, {U: 1, V: 2}}, // (1,2) belongs to rank 1
			{{U: 3, V: 4}},
		}
		vs := SanitizeDistribution(pt, n, parts, nil)
		wantKind(t, vs, VOwnership, "rank 0", "(1,2)", "owned by rank 1")
	})

	t.Run("held twice", func(t *testing.T) {
		parts := [][]graph.Edge{
			{{U: 0, V: 1}},
			{{U: 0, V: 1}, {U: 3, V: 4}},
		}
		vs := SanitizeDistribution(pt, n, parts, nil)
		wantKind(t, vs, VOwnership, "(0,1)", "both rank 0 and rank 1", "exactly once")
	})

	t.Run("unnormalized", func(t *testing.T) {
		parts := [][]graph.Edge{
			{{U: 2, V: 1}}, // stored backwards
			nil,
		}
		vs := SanitizeDistribution(pt, n, parts, nil)
		wantKind(t, vs, VOwnership, "unnormalized", "min endpoint")
	})
}

func flatten(parts [][]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestEngineSanitizerDetectsDroppedEdge corrupts a live engine (discard
// an owned edge after the baseline is recorded) and asserts both the
// sparse per-step delta check and the end-of-run full pass catch the
// drift with an actionable error.
func TestEngineSanitizerDetectsDroppedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(44), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err != nil {
		t.Fatalf("clean engine flagged: %v", err)
	}
	sw := es(t, eng)
	e := sw.takeRandomEdge()
	if err := sw.discard(e); err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.stepExchange()
	if err == nil {
		t.Fatal("dropped edge not detected by the step exchange")
	}
	msg := err.Error()
	if !strings.Contains(msg, string(VEdgeCount)) || !strings.Contains(msg, string(VDegreeDrift)) {
		t.Fatalf("error %q should report %s and %s", msg, VEdgeCount, VDegreeDrift)
	}
	// The full end-of-run pass recomputes degrees from the adjacency
	// itself (no delta bookkeeping) and must agree.
	err = eng.verifyBaseline()
	if err == nil {
		t.Fatal("dropped edge not detected by the full baseline pass")
	}
	msg = err.Error()
	if !strings.Contains(msg, string(VEdgeCount)) || !strings.Contains(msg, string(VDegreeDrift)) {
		t.Fatalf("error %q should report %s and %s", msg, VEdgeCount, VDegreeDrift)
	}
}

// TestEngineSanitizerCleanAfterSwitches: an in-flight reinsert round trip
// leaves the engine clean (the deltas cancel, so the sparse payload is
// empty again).
func TestEngineSanitizerCleanAfterSwitches(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(45), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	sw := es(t, eng)
	for i := 0; i < 10; i++ {
		e := sw.takeRandomEdge()
		if err := sw.reinsert(e); err != nil {
			t.Fatal(err)
		}
	}
	counts, origs, err := eng.stepExchange()
	if err != nil {
		t.Fatalf("round-tripped engine flagged: %v", err)
	}
	if len(counts) != 1 || counts[0] != g.M() {
		t.Fatalf("step exchange counts %v, want [%d]", counts, g.M())
	}
	if origs != g.M() {
		t.Fatalf("step exchange originals %d, want %d", origs, g.M())
	}
	if err := eng.verifyBaseline(); err != nil {
		t.Fatalf("round-tripped engine flagged by full pass: %v", err)
	}
}

// TestStepExchangeClearsDeltasOnViolation: when the checked step
// exchange reports a violation, it must still consume the deltas — they
// describe drift up to THIS boundary, and leaving them behind would
// double-count the same drift against the next boundary's check (or
// corrupt the picture entirely once the run rolls back). Over the dense
// vector that means the touched list is empty and every entry is zero.
func TestStepExchangeClearsDeltasOnViolation(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(46), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	sw := es(t, eng)
	if err := sw.discard(sw.takeRandomEdge()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err == nil {
		t.Fatal("dropped edge not detected")
	}
	if len(eng.touched.list) != 0 {
		t.Fatalf("touched list holds %d vertices after a violating exchange; must be cleared on every exit path", len(eng.touched.list))
	}
	for v, d := range eng.degDelta {
		if d != 0 {
			t.Fatalf("degDelta[%d] = %d after a violating exchange; the vector must be zeroed on every exit path", v, d)
		}
	}
}
