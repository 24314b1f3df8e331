package core

import (
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// TestGoldenEdgeHash pins the final edge fingerprint of every
// deterministic configuration to a value recorded once and committed.
// The equivalence tests elsewhere compare two runs of the same build
// (spill vs in-memory, p=1 vs sequential, restore vs straight), so a
// storage or sampling change that altered the realized Markov chain
// would pass them all; this test fails instead. The values were
// recorded with the pointer-treap adjacency sets and must survive any
// reimplementation of graph.AdjSet unchanged: set order and every draw
// from the run RNG are part of the contract, the set's internal shape
// is not.
func TestGoldenEdgeHash(t *testing.T) {
	er := func(t *testing.T) *graph.Graph { return testGraph(t, 14, 400, 1600) }
	pa := func(t *testing.T) *graph.Graph {
		g, err := gen.PrefAttachment(rng.New(21), 800, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	contact := func(t *testing.T) *graph.Graph {
		g, err := gen.Contact(rng.New(22), gen.ContactConfig{N: 600, AvgDegree: 10, CommunitySize: 20, WithinFrac: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	specs := genSpecs()
	paSpec, contactSpec := specs["pa"], specs["contact"]
	cases := []struct {
		name  string
		graph func(*testing.T) *graph.Graph // nil with a DistributedGen spec
		t     int64
		cfg   Config
		want  uint64
	}{
		{"er-edgeswitch-p1", er, 800, Config{Ranks: 1, Scheme: SchemeHPD, StepSize: 200, Seed: 11}, 0x1084f3f36a7f12cc},
		{"er-curveball-p1", er, 4, Config{Ranks: 1, Algorithm: AlgoCurveball, Scheme: SchemeHPD, Seed: 11}, 0x613e3a96bdad1186},
		{"er-curveball-p8", er, 4, Config{Ranks: 8, Algorithm: AlgoCurveball, Scheme: SchemeHPD, Seed: 11}, 0x613e3a96bdad1186},
		{"pa-edgeswitch-p1", pa, 2000, Config{Ranks: 1, Scheme: SchemeCP, Seed: 21}, 0x917a86aed933edd1},
		{"contact-edgeswitch-p1", contact, 2000, Config{Ranks: 1, Scheme: SchemeHPU, StepSize: 500, Seed: 22}, 0xf20ef7a222cf96fb},
		{"pergen-pa-curveball-p8", nil, 3, Config{Ranks: 8, Algorithm: AlgoCurveball, Scheme: SchemeHPU, Seed: 23, DistributedGen: &paSpec}, 0xdc81cfc3759e9fca},
		{"pergen-contact-edgeswitch-p1", nil, 1500, Config{Ranks: 1, Scheme: SchemeCP, Seed: 24, DistributedGen: &contactSpec}, 0x35a83924ee612cbe},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g *graph.Graph
			if tc.graph != nil {
				g = tc.graph(t)
			}
			cfg := tc.cfg
			cfg.CheckInvariants = true
			res, err := Parallel(g, tc.t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EdgeHash != tc.want {
				t.Errorf("EdgeHash = %#x, want %#x: the realized chain changed", res.EdgeHash, tc.want)
			}
		})
	}
}
