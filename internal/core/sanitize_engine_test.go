package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/store"
)

// These tests pin the strength of the incremental sanitizer: a step
// boundary re-verifies only the slots written through the accounting
// helpers, so every other point that must see the whole partition — the
// first boundary after load or restore, the boundary after a store
// compaction, every checkpoint and run end — is pinned here with a
// corruption the dirty tracking cannot see.

// untrackedInsert corrupts slot li behind the accounting's back: it
// stores a fresh valid neighbour directly in the store, without the
// Fenwick update, dirty mark or degree delta the helpers would make. It
// returns the slot's vertex.
func untrackedInsert(t *testing.T, e *rankEngine, li int) graph.Vertex {
	t.Helper()
	u := e.verts[li]
	for v := u + 1; int(v) < e.n; v++ {
		if !e.adj.Contains(li, v) {
			if !e.adj.Insert(li, v, false, 1) {
				t.Fatalf("untracked insert of (%d,%d) failed", u, v)
			}
			return u
		}
	}
	t.Fatalf("slot %d (vertex %d) has no free neighbour", li, u)
	return 0
}

// wantSanitizerErr asserts err is a sanitizer report carrying the given
// "[kind] message" text.
func wantSanitizerErr(t *testing.T, err error, text string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not reported; want %q", text)
	}
	if !strings.Contains(err.Error(), "invariant sanitizer") || !strings.Contains(err.Error(), text) {
		t.Fatalf("error %q does not report %q", err, text)
	}
}

// TestSanitizerReportsHelperWriteAtItsBoundary: a bad entry written
// through the mutation helpers mid-step is reported at that step's
// boundary, with the same "[kind] message" text the full scan gives.
func TestSanitizerReportsHelperWriteAtItsBoundary(t *testing.T) {
	g := testGraph(t, 47, 60, 240)
	const u = 7
	cases := []struct {
		name string
		bad  graph.Edge
		want string
	}{
		{"self-loop", graph.Edge{U: u, V: u}, "[self-loop] edge (7,7) is a self-loop"},
		{"unnormalized", graph.Edge{U: u, V: 3}, "[ownership] rank 0 stores unnormalized entry (7,3)"},
		{"vertex-range", graph.Edge{U: u, V: 65}, "[vertex-range] edge (7,65) has an endpoint outside [0,60)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, w := newTestEngine(t, g)
			defer w.Close()
			if err := eng.recordBaseline(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.stepExchange(); err != nil {
				t.Fatalf("clean engine flagged: %v", err)
			}
			// The step: legitimate switches around the bad write.
			sw := es(t, eng)
			for i := 0; i < 5; i++ {
				if err := sw.reinsert(sw.takeRandomEdge()); err != nil {
					t.Fatal(err)
				}
			}
			if eng.adj.Contains(u, tc.bad.V) {
				t.Fatalf("test graph already holds %v", tc.bad)
			}
			if err := eng.insertLocal(tc.bad, false); err != nil {
				t.Fatal(err)
			}
			_, _, err := eng.stepExchange()
			wantSanitizerErr(t, err, tc.want)
		})
	}
}

// TestSanitizerUntrackedWriteCaughtAtCheckpoint: a slot corrupted behind
// the tracking's back mid-run is caught at the next checkpoint, which
// then writes, links and commits nothing — in spill mode too, where the
// base segment would be hard-linked, and in unchecked runs, where the
// checkpoint's pass reports its structural findings without a degree
// baseline. Without a checkpoint to come, the end-of-run pass catches
// it. The corruption lands after the step's last helper write, so no
// boundary scan between it and the catching pass could see the slot as
// dirty.
func TestSanitizerUntrackedWriteCaughtAtCheckpoint(t *testing.T) {
	g := testGraph(t, 48, 80, 320)
	cases := []struct {
		name                   string
		ckpt, spill, unchecked bool
	}{
		{name: "checkpoint", ckpt: true},
		{name: "checkpoint-spill", ckpt: true, spill: true},
		{name: "checkpoint-unchecked", ckpt: true, unchecked: true},
		{name: "end-of-run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 5, CheckInvariants: !tc.unchecked}
			dir := t.TempDir()
			if tc.ckpt {
				cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointKeep = dir, 2, -1
			}
			if tc.spill {
				// A budget no step reaches: only the checkpoints compact.
				cfg.SpillDir, cfg.OverlayBudget = t.TempDir(), 1<<20
			}
			eng, w := newTestEngineCfg(t, g, cfg)
			defer w.Close()
			if tc.spill {
				defer eng.adj.Close()
			}
			ck, err := newCheckpointer(eng.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng.ckpt = ck
			// Six steps of 20 ops. Corrupt at the end of step 4 (right
			// before its checkpoint) or of step 6 (right before run end).
			at := int64(5)
			if tc.ckpt {
				at = 3
			}
			var u graph.Vertex
			eng.rand = &corruptAt{randomizer: eng.rand, e: eng, at: at, do: func() { u = untrackedInsert(t, eng, 11) }}
			err = eng.run(120, 20)
			if tc.ckpt {
				wantSanitizerErr(t, err, "step 4 (checkpoint)")
				if steps := manifestStepsIn(t, dir); len(steps) != 1 || steps[0] != 2 {
					t.Fatalf("committed checkpoints %v, want only step 2", steps)
				}
				for _, path := range []string{ckSnapPath(dir, 4, 0), ckSegPath(dir, 4, 0)} {
					if _, serr := os.Stat(path); !os.IsNotExist(serr) {
						t.Fatalf("%s of the rejected state was written (stat: %v)", path, serr)
					}
				}
			}
			if tc.spill {
				if _, serr := os.Stat(ckSegPath(dir, 2, 0)); serr != nil {
					t.Fatalf("segment of the clean step-2 checkpoint missing: %v", serr)
				}
			}
			wantSanitizerErr(t, err, "[edge-count] Fenwick degree of vertex "+strconv.Itoa(int(u)))
			if !tc.unchecked {
				wantSanitizerErr(t, err, "[degree-drift] degree of vertex")
			}
		})
	}
}

// corruptAt wraps a randomizer and runs do once the step after the
// at-th completed one has quiesced — after its last storage write, before
// the boundary.
type corruptAt struct {
	randomizer
	e  *rankEngine
	at int64
	do func()
}

func (c *corruptAt) quiesced() error {
	if c.e.stepsRun == c.at {
		c.do()
	}
	return c.randomizer.quiesced()
}

// TestSanitizerFullScanAfterCompaction: a store compaction rewrites
// every slot's storage, so the next boundary re-verifies every slot —
// including ones no helper wrote.
func TestSanitizerFullScanAfterCompaction(t *testing.T) {
	g := testGraph(t, 49, 60, 240)
	eng, w := newTestEngineCfg(t, g, Config{Seed: 5, CheckInvariants: true, SpillDir: t.TempDir(), OverlayBudget: 1 << 20})
	defer w.Close()
	defer eng.adj.Close()
	ts, ok := eng.adj.(*store.Tiered)
	if !ok {
		t.Fatalf("store is %T, want *store.Tiered", eng.adj)
	}
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err != nil {
		t.Fatalf("clean engine flagged: %v", err)
	}
	u := untrackedInsert(t, eng, 5)
	before := ts.Stats().Compactions
	if err := ts.Compact(); err != nil {
		t.Fatal(err)
	}
	if ts.Stats().Compactions == before {
		t.Fatal("forced compaction did not run")
	}
	_, _, err := eng.stepExchange()
	wantSanitizerErr(t, err, "[edge-count] Fenwick degree of vertex "+strconv.Itoa(int(u)))
}

// TestSanitizerFullScanAfterRestore: the first boundary after a
// checkpoint restore re-verifies every slot.
func TestSanitizerFullScanAfterRestore(t *testing.T) {
	g := testGraph(t, 50, 60, 240)
	cfg := Config{Seed: 5, CheckInvariants: true, CheckpointDir: t.TempDir()}
	eng, w := newTestEngineCfg(t, g, cfg)
	defer w.Close()
	ck, err := newCheckpointer(eng.c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err != nil {
		t.Fatalf("clean engine flagged: %v", err)
	}
	eng.stepsRun = 1
	if err := ck.save(eng, 1); err != nil {
		t.Fatal(err)
	}
	cfg.Restore = true
	re, step, err := ck.restoreEngine(eng.pt, g.N(), g.M(), cfg)
	if err != nil || step != 1 {
		t.Fatalf("restore: step %d, %v", step, err)
	}
	u := untrackedInsert(t, re, 5)
	if err := re.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	_, _, err = re.stepExchange()
	wantSanitizerErr(t, err, "[edge-count] Fenwick degree of vertex "+strconv.Itoa(int(u)))
}
