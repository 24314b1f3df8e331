package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// small shrinks a workload's input so its runs take milliseconds.
func small(w *workload) *workload {
	s := *w
	s.spec.N = 2000
	if s.spec.Model == pergen.ModelPA {
		s.spec.D = 4
	}
	return &s
}

func prepared(t *testing.T, name string) *bench {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(small(w), 42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsVerify runs every workload's pipeline on a small input
// and checks the run passes verification.
func TestWorkloadsVerify(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := prepared(t, w.name)
			check, err := b.checker()
			if err != nil {
				t.Fatal(err)
			}
			o, err := b.pipeline(b.cfg, b.t)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(o); err != nil {
				t.Fatalf("clean run fails verification: %v", err)
			}
		})
	}
}

// TestVerifyCatchesCorruption is the benchmark's self-test: each way of
// corrupting a verified result must fail verification.
func TestVerifyCatchesCorruption(t *testing.T) {
	b := prepared(t, "es-pa-hpu")
	o, err := b.pipeline(b.cfg, b.t)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyGraph(b.in, o.res, o.out, visitSlack(b.in.m)); err != nil {
		t.Fatalf("clean run fails verification: %v", err)
	}
	clean, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(data []byte, i int) (u, v uint32) {
		return binary.LittleEndian.Uint32(data[16+8*i:]), binary.LittleEndian.Uint32(data[20+8*i:])
	}
	fileCases := []struct {
		name, want string
		corrupt    func(data []byte)
	}{
		{"moved endpoint", "degree of", func(data []byte) {
			u, v := edge(data, 0)
			for w := uint32(0); ; w++ {
				if w != u && w != v && !o.res.Graph.HasEdge(graph.Edge{U: graph.Vertex(u), V: graph.Vertex(w)}.Norm()) {
					binary.LittleEndian.PutUint32(data[20:], w)
					return
				}
			}
		}},
		{"parallel edge", "parallel edge", func(data []byte) { copy(data[24:32], data[16:24]) }},
		{"self-loop", "loop", func(data []byte) { copy(data[20:24], data[16:20]) }},
		{"truncated", "header", func(data []byte) { binary.LittleEndian.PutUint64(data[8:], uint64(b.in.m-1)) }},
	}
	for _, tc := range fileCases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), clean...)
			tc.corrupt(data)
			if err := os.WriteFile(o.out, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err := verifyGraph(b.in, o.res, o.out, visitSlack(b.in.m))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupted file: got %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if err := os.WriteFile(o.out, clean, 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("forged original flag", func(t *testing.T) {
		g := o.res.Graph.Clone(rng.New(1))
		var forged graph.Edge
		for u := 0; u < g.N() && forged == (graph.Edge{}); u++ {
			g.WalkReduced(graph.Vertex(u), func(v graph.Vertex, orig bool) bool {
				if !orig && !b.in.has(edgeKey(graph.Vertex(u), v)) {
					forged = graph.Edge{U: graph.Vertex(u), V: v}
					return false
				}
				return true
			})
		}
		g.RemoveEdge(forged)
		g.AddEdge(forged, rng.New(2))
		res := *o.res
		res.Graph = g
		err := verifyGraph(b.in, &res, o.out, visitSlack(b.in.m))
		if err == nil || !strings.Contains(err.Error(), "not an input edge") {
			t.Fatalf("forged flag: got %v", err)
		}
	})

	t.Run("visit rate short of x", func(t *testing.T) {
		short, err := b.pipeline(b.cfg, b.t/2)
		if err != nil {
			t.Fatal(err)
		}
		err = verifyGraph(b.in, short.res, short.out, visitSlack(b.in.m))
		if err == nil || !strings.Contains(err.Error(), "below target") {
			t.Fatalf("half the operations: got %v", err)
		}
	})

	t.Run("misreported visit rate", func(t *testing.T) {
		res := *o.res
		res.VisitRate += 0.01
		if err := verifyGraph(b.in, &res, o.out, visitSlack(b.in.m)); err == nil {
			t.Fatal("a visit rate the flags do not give passed")
		}
	})
}

// TestFingerprintCatchesCorruption: a spill run whose edge hash, round
// count or visit rate departs from the in-memory reference fails.
func TestFingerprintCatchesCorruption(t *testing.T) {
	b := prepared(t, "cb-pa-spill")
	check, err := b.checker()
	if err != nil {
		t.Fatal(err)
	}
	o, err := b.pipeline(b.cfg, b.t)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(o); err != nil {
		t.Fatalf("clean spill run fails verification: %v", err)
	}
	for name, corrupt := range map[string]func(*core.Result){
		"edge hash":  func(r *core.Result) { r.EdgeHash ^= 1 },
		"rounds":     func(r *core.Result) { r.Steps++ },
		"visit rate": func(r *core.Result) { r.VisitRate -= 0.5 },
	} {
		res := *o.res
		corrupt(&res)
		if err := verifyFingerprint(&res, b.ref); err == nil {
			t.Errorf("corrupted %s passed verification", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with the benchmark's own tables.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
}
