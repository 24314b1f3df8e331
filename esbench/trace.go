package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/graph"
)

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct{ name, unit, better string }

// perLayer lists every per-layer metric in BENCHMARK.json order. Each
// traced run reports all of them; one a workload does not exercise is
// reported as 0 with its reason on the "unavailable" line.
var perLayer = []layerMetric{
	{"core.bootstrap_s", "s", "lower"},
	{"core.finish_s", "s", "lower"},
	{"core.ops", "count", "lower"},
	{"core.steps", "count", "lower"},
	{"core.us_per_op", "us", "lower"},
	{"core.restart_ratio", "fraction", "lower"},
	{"core.conflicts_per_op", "ratio", "lower"},
	{"core.forfeited", "count", "lower"},
	{"core.window_max", "count", "higher"},
	{"core.msg_sends_per_op", "ratio", "lower"},
	{"core.msg_bytes_per_op", "B", "lower"},
	{"core.msg_flushes_per_step", "ratio", "lower"},
	{"core.sanitize_s", "s", "lower"},
	{"core.checkpoint_s", "s", "lower"},
	{"core.checkpoint_bytes", "B", "lower"},
	{"partition.edge_imbalance", "ratio", "lower"},
	{"partition.ops_imbalance", "ratio", "lower"},
	{"partition.owner_ns", "ns", "lower"},
	{"graph.treap_kth_ns", "ns", "lower"},
	{"graph.treap_contains_ns", "ns", "lower"},
	{"graph.treap_insert_ns", "ns", "lower"},
	{"graph.treap_delete_ns", "ns", "lower"},
	{"graph.fenwick_find_ns", "ns", "lower"},
	{"graph.fenwick_add_ns", "ns", "lower"},
	{"graph.adjcodec_encode_mbps", "MB/s", "higher"},
	{"graph.adjcodec_decode_mbps", "MB/s", "higher"},
	{"graph.read_s", "s", "lower"},
	{"graph.write_s", "s", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.compact_s", "s", "lower"},
	{"store.overlay_hwm", "count", "lower"},
	{"store.base_bytes", "B", "lower"},
	{"store.drain_ns_per_edge", "ns", "lower"},
	{"store.build_ns_per_edge", "ns", "lower"},
	{"randvar.multinomial_us", "us", "lower"},
	{"mpi.collectives_per_step", "ratio", "lower"},
	{"mpi.allreduce_us", "us", "lower"},
	{"mpi.tcp_pingpong_us", "us", "lower"},
	{"mpi.tcp_cost_s", "s", "lower"},
	{"mpi.mem_pingpong_us", "us", "lower"},
	{"mpi.faults", "count", "lower"},
	{"pergen.full_s", "s", "lower"},
	{"seq.switch_s", "s", "lower"},
	{"seq.efficiency", "ratio", "higher"},
	{"quality.error_rate_pct", "%", "lower"},
	{"quality.seq_error_rate_pct", "%", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"fail_frac", "fraction", "lower"},
}

// layers collects the traced run's metrics.
type layers struct {
	vals        map[string]float64
	unavailable map[string]string
}

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// skip reports a metric the workload does not exercise as 0, with why.
func (l *layers) skip(why string, names ...string) {
	for _, n := range names {
		l.vals[n] = 0
		l.unavailable[n] = why
	}
}

// span is one timed call of the traced run, kept in memory and printed
// when the run ends.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Parent  string  `json:"parent,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) add(name, parent string, start time.Time, d time.Duration) {
	tr.spans = append(tr.spans, span{name, ms(start.Sub(tr.t0)), ms(d), parent})
}

// do times fn as a top-level span.
func (tr *tracer) do(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	tr.add(name, "", start, time.Since(start))
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pipelineSpans records a pipeline run's calls into the program as
// children of a span named name.
func (tr *tracer) pipelineSpans(name string, o runOut) {
	tr.add(name, "", o.start, o.total)
	for _, c := range []call{o.read, o.rank, o.write} {
		if c.d > 0 {
			tr.add(c.name, name, c.start, c.d)
		}
	}
}

// traceOutput is what a traced run prints: the result line plus the
// spans and the reasons for unavailable metrics.
type traceOutput struct {
	res         result
	spans       []span
	unavailable map[string]string
}

// traced makes the per-layer attribution: an untraced and a traced
// pipeline run (their difference is the tracing overhead), zero-
// operation bootstrap runs, differential runs toggling the workload's
// CheckInvariants, CheckpointDir and UseTCP, layer microbenchmarks on
// the workload's own input, and the sequential baseline.
func traced(b *bench, logf func(string, ...any)) (traceOutput, error) {
	l := &layers{vals: map[string]float64{}, unavailable: map[string]string{}}
	tr := &tracer{t0: time.Now()}
	attempted, failed := 0, 0
	var check func(runOut) error
	if err := tr.do("verify.reference", func() (err error) { check, err = b.checker(); return err }); err != nil {
		return traceOutput{}, err
	}
	verified := func(name string, cfg core.Config) (runOut, error) {
		runtime.GC()
		o, err := b.pipeline(cfg, b.t)
		if err != nil {
			return o, fmt.Errorf("%s run: %w", name, err)
		}
		tr.pipelineSpans(name, o)
		attempted++
		if err := check(o); err != nil {
			failed++
			logf("%s run failed verification: %v", name, err)
		}
		return o, nil
	}

	plain, err := verified("pipeline.untraced", b.cfg)
	if err != nil {
		return traceOutput{}, err
	}
	var boot []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		o, err := b.bootstrap()
		if err != nil {
			return traceOutput{}, fmt.Errorf("bootstrap run: %w", err)
		}
		tr.pipelineSpans("pipeline.bootstrap", o)
		boot = append(boot, o.rank.d.Seconds())
	}
	l.set("core.bootstrap_s", median(boot))

	rt0 := readRuntime()
	hs := startHeapSampler()
	o, err := verified("pipeline.traced", b.cfg)
	peak := hs.finish()
	rt1 := readRuntime()
	if err != nil {
		return traceOutput{}, err
	}
	l.set("peak_heap_mib", peak)
	logf("untraced total %.3fs, traced total %.3fs", plain.total.Seconds(), o.total.Seconds())
	l.set("trace.overhead_pct", (o.total.Seconds()-plain.total.Seconds())/plain.total.Seconds()*100)
	l.set("runtime.gc_cpu_s", rt1.gcCPU-rt0.gcCPU)
	l.set("runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles))
	resultCounters(l, b, o)

	if err := differential(b, l, o, verified); err != nil {
		return traceOutput{}, err
	}
	// The whole input graph, generated on one rank, gives the layer
	// microbenchmarks the workload's partitioner.
	var g *graph.Graph
	if err := tr.do("pergen.Full", func() (err error) {
		start := time.Now()
		g, err = b.gen.Full()
		l.set("pergen.full_s", time.Since(start).Seconds())
		return err
	}); err != nil {
		return traceOutput{}, err
	}
	pt, err := core.NewPartitioner(g, b.cfg.Scheme, ranks, b.seed)
	if err != nil {
		return traceOutput{}, err
	}
	if err := tr.do("micro.graph", func() error { return graphMicro(b, l, pt) }); err != nil {
		return traceOutput{}, err
	}
	if err := tr.do("micro.store", func() error { return storeMicro(b, l, pt) }); err != nil {
		return traceOutput{}, err
	}
	if err := tr.do("micro.mpi", func() error { return mpiMicro(b, l, o) }); err != nil {
		return traceOutput{}, err
	}
	if err := tr.do("baseline.sequential", func() error { return sequential(b, l, o) }); err != nil {
		return traceOutput{}, err
	}
	l.set("fail_frac", float64(failed)/float64(attempted))

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := l.vals[m.name]
		if !ok {
			return traceOutput{}, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return traceOutput{res: res, spans: tr.spans, unavailable: l.unavailable}, nil
}

type runtimeStats struct {
	gcCPU    float64
	gcCycles uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeStats{s[0].Value.Float64(), s[1].Value.Uint64()}
}
