package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/randvar"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// errorRateBlocks is r of the §4.6 error rate, as in the experiments.
const errorRateBlocks = 20

// resultCounters reads the per-layer counters the traced run's
// core.Result and mpi.World.Stats/Comm.Stats report.
func resultCounters(l *layers, b *bench, o runOut) {
	r := o.res
	ops := float64(max(r.Ops, 1))
	steps := float64(max(r.Steps, 1))
	l.set("core.finish_s", (o.rank.d-r.Elapsed).Seconds()-l.vals["core.bootstrap_s"])
	l.set("core.ops", float64(r.Ops))
	l.set("core.steps", float64(r.Steps))
	l.set("core.us_per_op", r.Elapsed.Seconds()*1e6/ops)
	l.set("core.restart_ratio", float64(r.Restarts)/float64(max(r.Ops+r.Restarts, 1)))
	l.set("core.conflicts_per_op", float64(sum(r.RankConflicts))/ops)
	l.set("core.forfeited", float64(r.Forfeited))
	l.set("core.window_max", float64(slices.Max(r.RankWindowMax)))
	l.set("core.msg_sends_per_op", float64(o.comm.Sends)/ops)
	l.set("core.msg_bytes_per_op", float64(o.comm.Bytes)/ops)
	l.set("core.msg_flushes_per_step", float64(sum(r.RankFlushes))/steps)
	l.set("mpi.collectives_per_step", float64(o.colls)/steps)
	l.set("mpi.faults", float64(o.comm.Faults))
	l.set("partition.edge_imbalance", metrics.LoadImbalance(r.RankInitialEdges).MaxOverMean)
	l.set("partition.ops_imbalance", metrics.LoadImbalance(r.RankOps).MaxOverMean)
	if b.w.fromFile {
		l.set("graph.read_s", o.read.d.Seconds())
	} else {
		l.skip("bootstrapped by Config.DistributedGen: no input file is read", "graph.read_s")
	}
	if b.cfg.SkipResult {
		l.skip("SkipResult: the result is fingerprinted, not written", "graph.write_s")
	} else {
		l.set("graph.write_s", o.write.d.Seconds())
	}
	if b.cfg.CheckpointDir != "" {
		l.set("core.checkpoint_bytes", float64(o.ckptBytes))
	} else {
		l.skip("no CheckpointDir in this workload", "core.checkpoint_bytes")
	}
	if b.cfg.SpillDir != "" {
		l.set("store.compactions", float64(r.SpillCompactions))
		l.set("store.compact_s", float64(r.SpillCompactNs)/1e9)
		l.set("store.overlay_hwm", float64(r.SpillOverlayHWM))
		l.set("store.base_bytes", float64(r.SpillBaseBytes))
	} else {
		l.skip("in-memory storage: no SpillDir in this workload",
			"store.compactions", "store.compact_s", "store.overlay_hwm", "store.base_bytes")
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// differential attributes the sanitizer, checkpoint and TCP costs by
// rerunning the workload with one existing core.Config field turned off
// and taking the difference in switching time from the traced run.
func differential(b *bench, l *layers, o runOut, run func(string, core.Config) (runOut, error)) error {
	toggles := []struct {
		metric, field string
		on            bool
		off           func(*core.Config)
	}{
		{"core.sanitize_s", "CheckInvariants", b.cfg.CheckInvariants, func(c *core.Config) { c.CheckInvariants = false }},
		{"core.checkpoint_s", "CheckpointDir", b.cfg.CheckpointDir != "", func(c *core.Config) { c.CheckpointDir, c.CheckpointEvery = "", 0 }},
		{"mpi.tcp_cost_s", "UseTCP", b.cfg.UseTCP, func(c *core.Config) { c.UseTCP = false }},
	}
	for _, tg := range toggles {
		if !tg.on {
			l.skip(tg.field+" is off in this workload", tg.metric)
			continue
		}
		cfg := b.cfg
		tg.off(&cfg)
		d, err := run("differential.no-"+tg.field, cfg)
		if err != nil {
			return err
		}
		l.set(tg.metric, (o.res.Elapsed - d.res.Elapsed).Seconds())
	}
	return nil
}

// microSink receives the timed loops' results so they are not
// optimised away.
var microSink int

// microReps is how often each microbenchmark repeats; the median counts.
const microReps = 3

// nsPer runs fn microReps times and returns the median time per op.
func nsPer(ops int, fn func()) float64 {
	var xs []float64
	for i := 0; i < microReps; i++ {
		start := time.Now()
		fn()
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(xs)
}

// graphMicro times the storage primitives the engine calls per
// operation, on adjacency sets and degrees of the workload's input:
// treap order statistics, membership, insert and delete at vertices
// drawn by reduced degree (as the edge sampler draws them), Fenwick
// sampling and updates, and the adjacency codec, plus the partitioner's
// Owner.
func graphMicro(b *bench, l *layers, pt partition.Partitioner) error {
	const q = 1 << 20
	in := b.in
	r := rng.New(b.seed ^ 0x6d6963726f)
	var arena graph.NodeArena
	adj := in.adjSets(&arena, r)

	us := make([]graph.Vertex, q)
	ks := make([]int, q)
	vs := make([]graph.Vertex, q)
	for i := range us {
		e := in.keys[r.Int64n(in.m)]
		us[i] = graph.Vertex(e >> 32)
		ks[i] = r.Intn(adj[us[i]].Len())
		if i%2 == 0 {
			vs[i] = graph.Vertex(uint32(in.keys[r.Int64n(in.m)]))
		} else {
			vs[i] = graph.Vertex(r.Intn(in.n))
		}
	}
	var sink int
	l.set("graph.treap_kth_ns", nsPer(q, func() {
		for i, u := range us {
			v, _ := adj[u].Kth(ks[i])
			sink += int(v)
		}
	}))
	l.set("graph.treap_contains_ns", nsPer(q, func() {
		for i, u := range us {
			if adj[u].Contains(vs[i]) {
				sink++
			}
		}
	}))
	prios := make([]uint32, q)
	for i := range prios {
		prios[i] = r.Uint32()
	}
	var ins, del []float64
	for rep := 0; rep < microReps; rep++ {
		added := make([]bool, q)
		start := time.Now()
		for i, u := range us {
			added[i] = adj[u].InsertArena(&arena, vs[i], false, prios[i])
		}
		ins = append(ins, float64(time.Since(start).Nanoseconds())/q)
		start = time.Now()
		for i, u := range us {
			if added[i] {
				adj[u].DeleteArena(&arena, vs[i])
			}
		}
		del = append(del, float64(time.Since(start).Nanoseconds())/q)
	}
	l.set("graph.treap_insert_ns", median(ins))
	l.set("graph.treap_delete_ns", median(del))

	deg := make([]int64, in.n)
	for u := range adj {
		deg[u] = int64(adj[u].Len())
	}
	fw := graph.NewFenwickFrom(deg)
	targets := make([]int64, q)
	for i := range targets {
		targets[i] = r.Int64n(fw.Total())
	}
	l.set("graph.fenwick_find_ns", nsPer(q, func() {
		for _, t := range targets {
			slot, _ := fw.FindByPrefix(t)
			sink += slot
		}
	}))
	l.set("graph.fenwick_add_ns", nsPer(2*q, func() {
		for _, u := range us {
			fw.Add(int(u), 1)
			fw.Add(int(u), -1)
		}
	}))

	var enc []byte
	encSec := nsPer(1, func() {
		enc = enc[:0]
		for u := range adj {
			enc = adj[u].AppendAdjSet(enc, graph.Vertex(u))
		}
	}) / 1e9
	var decErr error
	decSec := nsPer(1, func() {
		rest := enc
		var keys []graph.Vertex
		var origs []bool
		for u := range adj {
			var err error
			if keys, origs, rest, err = graph.DecodeAdjSet(rest, graph.Vertex(u), keys[:0], origs[:0]); err != nil {
				decErr = err
				return
			}
			sink += len(keys)
		}
	}) / 1e9
	if decErr != nil {
		return fmt.Errorf("adjcodec round trip: %w", decErr)
	}
	l.set("graph.adjcodec_encode_mbps", float64(len(enc))/1e6/encSec)
	l.set("graph.adjcodec_decode_mbps", float64(len(enc))/1e6/decSec)

	l.set("partition.owner_ns", nsPer(q, func() {
		for _, u := range vs {
			sink += pt.Owner(u)
		}
	}))
	microSink = sink
	return nil
}

// storeMicro times whole-list Drain and BuildSorted on the tiered store
// holding rank 0's partition of the input: the access pattern of a
// curveball round (drain every list, rebuild it after the trades).
func storeMicro(b *bench, l *layers, pt partition.Partitioner) error {
	in := b.in
	verts := partition.LocalVertices(pt, in.n, 0)
	off := in.offsets()
	r := rng.New(b.seed ^ 0x73746f7265)
	prios := make([]uint32, in.m)
	for i := range prios {
		prios[i] = r.Uint32()
	}
	lists := make([][]graph.Vertex, len(verts))
	ps := make([][]uint32, len(verts))
	var edges int64
	for li, u := range verts {
		lo, hi := off[u], off[u+1]
		for _, k := range in.keys[lo:hi] {
			lists[li] = append(lists[li], graph.Vertex(uint32(k)))
		}
		ps[li] = prios[lo:hi]
		edges += hi - lo
	}
	var drain, build []float64
	for rep := 0; rep < microReps; rep++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", rep))
		st, err := store.NewTiered(dir, verts, 0, r.Uint32)
		if err != nil {
			return err
		}
		for li := range verts {
			st.BuildSorted(li, lists[li], ps[li], true)
		}
		if err := st.EndLoad(); err != nil {
			st.Close()
			return err
		}
		var drained int64
		start := time.Now()
		for li := range verts {
			st.Drain(li, func(graph.Vertex, bool) { drained++ })
		}
		drain = append(drain, float64(time.Since(start).Nanoseconds())/float64(edges))
		start = time.Now()
		for li := range verts {
			st.BuildSorted(li, lists[li], ps[li], false)
		}
		build = append(build, float64(time.Since(start).Nanoseconds())/float64(edges))
		err = st.Close()
		_ = os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if drained != edges {
			return fmt.Errorf("store drained %d edges, loaded %d", drained, edges)
		}
	}
	l.set("store.drain_ns_per_edge", median(drain))
	l.set("store.build_ns_per_edge", median(build))
	return nil
}

// mpiMicro times the message plane's transports and collectives in a
// fresh p = 2 world: a ping-pong round trip at the traced run's mean
// payload size on both transports, and on the workload's own transport
// the small allreduce of the step exchange and the per-step parallel
// multinomial draw at the workload's per-step trial count.
func mpiMicro(b *bench, l *layers, o runOut) error {
	payload := int(o.comm.Bytes / max(o.comm.Sends, 1))
	var q []float64
	for _, e := range o.res.RankInitialEdges {
		q = append(q, float64(e)/float64(sum(o.res.RankInitialEdges)))
	}
	trials := b.t
	if b.cfg.StepSize > 0 {
		trials = b.cfg.StepSize
	}
	multinomial := b.cfg.Algorithm != core.AlgoCurveball
	for _, tcp := range []bool{false, true} {
		own := tcp == b.cfg.UseTCP
		pp, ar, mn, err := mpiTimes(tcp, payload, own, own && multinomial, trials, q, b.seed)
		if err != nil {
			return err
		}
		if tcp {
			l.set("mpi.tcp_pingpong_us", pp)
		} else {
			l.set("mpi.mem_pingpong_us", pp)
		}
		if own {
			l.set("mpi.allreduce_us", ar)
			if multinomial {
				l.set("randvar.multinomial_us", mn)
			} else {
				l.skip("curveball draws no per-step multinomial", "randvar.multinomial_us")
			}
		}
	}
	return nil
}

// mpiTimes returns rank 0's ping-pong round trip, allreduce and
// multinomial latencies in µs.
func mpiTimes(tcp bool, payload int, collectives, multinomial bool, trials int64, q []float64, seed uint64) (pp, ar, mn float64, err error) {
	const pings, reduces, draws = 2000, 2000, 50
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	var opts []mpi.Option
	if tcp {
		opts = append(opts, mpi.WithTCP())
	}
	w, err := mpi.NewWorld(ranks, opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	runErr := w.Run(func(c *mpi.Comm) error {
		buf := make([]byte, payload)
		peer := 1 - c.Rank()
		start := time.Now()
		for i := 0; i < pings; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
			if _, err := c.Recv(peer, 1); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			pp = us(time.Since(start), pings)
		}
		if collectives {
			start = time.Now()
			for i := 0; i < reduces; i++ {
				if _, err := c.AllreduceInt64s([]int64{int64(i), 1, 2, 3}, mpi.OpSum); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				ar = us(time.Since(start), reduces)
			}
		}
		if multinomial {
			r := rng.Split(seed, c.Rank())
			start = time.Now()
			for i := 0; i < draws; i++ {
				if _, err := randvar.ParallelMultinomialGathered(c, r, trials, q); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				mn = us(time.Since(start), draws)
			}
		}
		return nil
	})
	if err := w.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return pp, ar, mn, runErr
}

// sequential runs the sequential baseline on the workload's input with
// the parallel run's work: core.Sequential with the same t for edge
// switching, core.SequentialCurveball for the same number of rounds.
// Two runs of different seeds give the §4.6 error-rate noise floor; the
// first is also compared against the parallel result.
func sequential(b *bench, l *layers, o runOut) error {
	var seqs [2]*graph.Graph
	var first time.Duration
	for i := range seqs {
		g, err := b.inputGraph()
		if err != nil {
			return err
		}
		start := time.Now()
		if b.cfg.Algorithm == core.AlgoCurveball {
			_, err = core.SequentialCurveball(g, int64(o.res.Steps), b.seed+uint64(i))
		} else {
			_, err = core.Sequential(g, b.t, rng.New(b.seed+uint64(i)))
		}
		if err != nil {
			return err
		}
		if i == 0 {
			first = time.Since(start)
		}
		seqs[i] = g
	}
	l.set("seq.switch_s", first.Seconds())
	l.set("seq.efficiency", first.Seconds()/(ranks*o.res.Elapsed.Seconds()))
	par := o.res.Graph
	if par == nil {
		par = b.ref.Graph
	}
	er, err := metrics.ErrorRate(seqs[0], par, errorRateBlocks)
	if err != nil {
		return err
	}
	floor, err := metrics.ErrorRate(seqs[0], seqs[1], errorRateBlocks)
	if err != nil {
		return err
	}
	l.set("quality.error_rate_pct", er)
	l.set("quality.seq_error_rate_pct", floor)
	return nil
}
