// Command esbench is the repository's whole-pipeline benchmark. Each
// run bootstraps one workload's input, switches it to the target visit
// rate with p = 2 ranks inside one process, gathers and writes (or
// fingerprints) the result, and verifies every output. With -trace 0 it
// prints the end-to-end metrics; with -trace 1 it prints the per-layer
// attribution. See README.md for the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash esbench/run.sh --workload es-pa-hpu --seed 42 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"edgeswitch/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
	name := fs.String("workload", "", "workload: es-pa-hpu, cb-pa-spill or es-contact-cp-tcp")
	seed := fs.Uint64("seed", 42, "workload seed: the input graph and every run derive from it")
	seconds := fs.Float64("seconds", 30, "measuring time of the timed runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer attribution")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "esbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	dir, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintf(stderr, "esbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "esbench: %6.1fs "+format+"\n", append([]any{time.Since(t0).Seconds()}, a...)...)
	}
	b, err := prepare(w, *seed, dir)
	if err != nil {
		logf("set-up: %v", err)
		return 1
	}
	logf("prepared %s seed %d: n=%d m=%d t=%d", w.name, *seed, b.in.n, b.in.m, b.t)
	prefault()
	rec := recording{Host: hostInfo(*root), Workload: w.name, Seed: *seed, Trace: *trace,
		Seconds: *seconds, N: b.in.n, M: b.in.m, T: b.t}
	// Everything but the result line is printed first: the recording
	// of host and input, and for traced runs the spans and the reasons
	// for metrics the workload does not exercise.
	lines := []any{rec}
	var res result
	if *trace == 0 {
		res, err = measure(b, time.Duration(*seconds*float64(time.Second)), logf)
	} else {
		var out traceOutput
		out, err = traced(b, logf)
		res = out.res
		lines = append(lines, map[string]any{"spans": out.spans}, map[string]any{"unavailable": out.unavailable})
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	for _, line := range append(lines, res) {
		if err := enc.Encode(line); err != nil {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"total_s", "s"}, {"setup_s", "s"}, {"switch_s", "s"}, {"visit_rate", "fraction"},
}

// Counts for the timed part of a run.
const (
	setupRuns = 7 // zero-operation bootstrap runs per invocation, after one warm-up; setup_s is their median
	minIters  = 2 // timed pipeline runs per invocation, at least
)

// measure makes the end-to-end measurement: the median of setupRuns
// bootstrap runs, then timed whole-pipeline runs, every one verified,
// for as many runs as fit the measuring time at the mean run time so
// far (at least minIters).
func measure(b *bench, budget time.Duration, logf func(string, ...any)) (result, error) {
	var setup []float64
	for i := 0; i <= setupRuns; i++ {
		runtime.GC()
		o, err := b.bootstrap()
		if err != nil {
			return result{}, fmt.Errorf("bootstrap run: %w", err)
		}
		if i > 0 {
			setup = append(setup, o.total.Seconds())
		}
	}
	logf("setup runs: %.3f", setup)
	check, err := b.checker()
	if err != nil {
		return result{}, err
	}
	samples := map[string][]float64{"setup_s": setup}
	attempted, failed := 0, 0
	start := time.Now()
	for attempted < minIters || time.Since(start)*time.Duration(attempted+1)/time.Duration(attempted) <= budget {
		attempted++
		runtime.GC()
		o, err := b.pipeline(b.cfg, b.t)
		if err != nil {
			failed++
			logf("run %d failed: %v", attempted, err)
			continue
		}
		if err := check(o); err != nil {
			failed++
			logf("run %d failed verification: %v", attempted, err)
		}
		samples["total_s"] = append(samples["total_s"], o.total.Seconds())
		samples["switch_s"] = append(samples["switch_s"], o.res.Elapsed.Seconds())
		samples["visit_rate"] = append(samples["visit_rate"], o.res.VisitRate)
		logf("run %d: total %.3fs switch %.3fs visit %.5f", attempted, o.total.Seconds(), o.res.Elapsed.Seconds(), o.res.VisitRate)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		if len(samples[m.name]) == 0 {
			return res, fmt.Errorf("every run failed")
		}
		res.Metrics[m.name] = metric{median(samples[m.name]), m.unit}
	}
	return res, nil
}

// checker returns the verification every timed run of the workload
// must pass. For SkipResult workloads it first makes and fully verifies
// the in-memory reference run whose fingerprint every run must match.
func (b *bench) checker() (func(runOut) error, error) {
	if !b.cfg.SkipResult {
		return func(o runOut) error { return verifyGraph(b.in, o.res, o.out, visitSlack(b.in.m)) }, nil
	}
	if b.ref == nil {
		ref, err := b.reference()
		if err != nil {
			return nil, err
		}
		b.ref = ref
	}
	return func(o runOut) error { return verifyFingerprint(o.res, b.ref) }, nil
}

// reference runs the workload's configuration in memory with the result
// gathered, and verifies it in full.
func (b *bench) reference() (*core.Result, error) {
	cfg := b.cfg
	cfg.SpillDir = ""
	cfg.SkipResult = false
	o, err := b.pipeline(cfg, b.t)
	if err != nil {
		return nil, fmt.Errorf("in-memory reference run: %w", err)
	}
	if err := verifyGraph(b.in, o.res, o.out, 0); err != nil {
		return nil, fmt.Errorf("in-memory reference run: %w", err)
	}
	return o.res, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
