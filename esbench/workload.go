package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// The fixed run settings every workload shares.
const (
	ranks   = 2   // p: goroutine ranks in one process
	targetX = 0.9 // the target visit rate x of every workload
)

// A workload is one whole-pipeline configuration: an input spec,
// bootstrapped in place or through a binary edge-list file, and the
// core.Config every timed run uses. Fields of core.Config that are not
// set here keep their defaults.
type workload struct {
	name string
	why  string
	// spec is the input graph; the workload seed becomes its Seed.
	spec pergen.Spec
	// fromFile loads the input with graph.ReadBinary from a file the
	// benchmark writes at set-up, instead of Config.DistributedGen.
	fromFile bool
	// cfg is the run configuration; the workload seed becomes its Seed.
	// A SpillDir or CheckpointDir in it names a directory each run gets
	// afresh under its own scratch directory. With SkipResult the run is
	// verified by its edge fingerprint; otherwise the gathered result is
	// written with graph.WriteBinary and verified.
	cfg core.Config
	// steps, when > 0, sets StepSize to t/steps.
	steps int64
}

var paSpec = pergen.Spec{Model: pergen.ModelPA, N: 100_000, D: 10}

var workloads = []*workload{
	{
		name: "es-pa-hpu",
		why:  "hub-heavy pergen PA graph, HP-U, one step: treap and Fenwick storage dominate; gather, reassembly and write close the pipeline",
		spec: paSpec,
		cfg:  core.Config{Scheme: core.SchemeHPU},
	},
	{
		name: "cb-pa-spill",
		why:  "global curveball on the same PA spec through the tiered spill store: whole-list drain and rebuild, compaction, few large messages",
		spec: paSpec,
		cfg: core.Config{Algorithm: core.AlgoCurveball, TargetVisitRate: targetX,
			SpillDir: "spill", SkipResult: true},
	},
	{
		name: "es-contact-cp-tcp",
		why:  "checked production run of a clustered contact graph from a file: CP, 101 steps, loopback TCP, sanitizer and checkpoints",
		spec: pergen.Spec{Model: pergen.ModelContact, N: 100_000,
			Contact: gen.ContactConfig{AvgDegree: 10, CommunitySize: 40, WithinFrac: 0.8}},
		fromFile: true,
		cfg: core.Config{Scheme: core.SchemeCP, UseTCP: true, CheckInvariants: true,
			CheckpointDir: "ckpt", CheckpointEvery: 10},
		steps: 100,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bench holds one invocation's prepared state.
type bench struct {
	w    *workload
	seed uint64
	dir  string      // scratch directory inside the checkout, removed at exit
	gen  *pergen.Gen // generator of the input graph
	in   *input      // fingerprint of the input graph
	t    int64
	cfg  core.Config
	file string       // the input file of fromFile workloads
	ref  *core.Result // the in-memory reference run of SkipResult workloads
	runs int          // counter naming per-run scratch directories
}

// prepare builds the input fingerprint (and, for file workloads, the
// input file) and derives t from x. None of this is timed: it stands in
// for whatever produced the user's input.
func prepare(w *workload, seed uint64, dir string) (*bench, error) {
	b := &bench{w: w, seed: seed, dir: dir, cfg: w.cfg}
	spec := w.spec
	spec.Seed = seed
	gn, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	b.gen = gn
	b.in = inputFromGen(gn)
	if b.t, err = core.OpsForVisitRateAlgo(b.cfg.Algorithm, b.in.m, targetX); err != nil {
		return nil, err
	}
	b.cfg.Seed = seed
	if w.steps > 0 {
		b.cfg.StepSize = b.t / w.steps
	}
	if w.fromFile {
		g, err := gn.Full()
		if err != nil {
			return nil, err
		}
		b.file = filepath.Join(dir, "input.bin")
		if err := writeGraph(b.file, g); err != nil {
			return nil, err
		}
	} else {
		b.cfg.DistributedGen = &spec
	}
	return b, nil
}

// call times one call of a pipeline run into the program.
type call struct {
	name  string
	start time.Time
	d     time.Duration
}

func timed(name string, start time.Time) call { return call{name, start, time.Since(start)} }

// runOut is what one pipeline run reports.
type runOut struct {
	res   *core.Result
	start time.Time
	total time.Duration // spec or file to written (or fingerprinted) result
	// read, rank and write time graph.ReadBinary of the input file, rank
	// 0's core.RunRank and graph.WriteBinary of the result; a call the
	// run does not make has zero duration.
	read, rank, write call
	comm              mpi.CommStats // world transport counters
	colls             int64         // collectives rank 0 entered
	out               string        // path of the written result
	// ckptBytes is the size of the checkpoint directory when the run
	// ends: the retained checkpoints.
	ckptBytes int64
}

// runDirs places the run's SpillDir and CheckpointDir, if set, in a
// fresh directory that cleanup removes.
func (b *bench) runDirs(cfg *core.Config) (cleanup func(), err error) {
	b.runs++
	d := filepath.Join(b.dir, fmt.Sprintf("run-%d", b.runs))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, err
	}
	if cfg.SpillDir != "" {
		cfg.SpillDir = filepath.Join(d, cfg.SpillDir)
	}
	if cfg.CheckpointDir != "" {
		cfg.CheckpointDir = filepath.Join(d, cfg.CheckpointDir)
	}
	return func() { _ = os.RemoveAll(d) }, nil
}

// pipeline runs cfg once through the whole pipeline: read the input
// file (file workloads), run every rank's core.RunRank inside a fresh
// mpi.World, and write the gathered result unless cfg.SkipResult.
func (b *bench) pipeline(cfg core.Config, t int64) (runOut, error) {
	var o runOut
	cleanup, err := b.runDirs(&cfg)
	if err != nil {
		return o, err
	}
	defer cleanup()
	start := time.Now()
	o.start = start
	var g *graph.Graph
	if b.w.fromFile {
		if g, err = readGraph(b.file, b.seed); err != nil {
			return o, err
		}
		o.read = timed("graph.ReadBinary", start)
	}
	var opts []mpi.Option
	if cfg.UseTCP {
		opts = append(opts, mpi.WithTCP())
	}
	world, err := mpi.NewWorld(ranks, opts...)
	if err != nil {
		return o, err
	}
	runErr := world.Run(func(c *mpi.Comm) error {
		rs := time.Now()
		r, err := core.RunRank(c, g, t, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			o.rank = timed("core.RunRank", rs)
			o.res = r
			o.colls = c.Stats().Collectives
		}
		return nil
	})
	o.comm = world.Stats()
	if err := world.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("closing world: %w", err)
	}
	if runErr != nil {
		return o, runErr
	}
	if !cfg.SkipResult {
		o.out = filepath.Join(b.dir, "result.bin")
		ws := time.Now()
		if err := writeGraph(o.out, o.res.Graph); err != nil {
			return o, err
		}
		o.write = timed("graph.WriteBinary", ws)
	}
	o.total = time.Since(start)
	if cfg.CheckpointDir != "" {
		o.ckptBytes = dirBytes(cfg.CheckpointDir)
	}
	return o, nil
}

// bootstrap is the workload's configuration run with t = 0 and
// SkipResult: the input read (file workloads) plus partitioning and
// engine construction, with no switching and no gather.
func (b *bench) bootstrap() (runOut, error) {
	cfg := b.cfg
	cfg.SkipResult = true
	return b.pipeline(cfg, 0)
}

// inputGraph materializes the input graph.
func (b *bench) inputGraph() (*graph.Graph, error) {
	if b.w.fromFile {
		return readGraph(b.file, b.seed)
	}
	return b.gen.Full()
}

func readGraph(path string, seed uint64) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(f, rng.New(seed))
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
