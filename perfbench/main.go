// Command rups-perfbench is the repository's benchmark: one command that
// drives the real layers (sim, link, v2v, trajectory, core, engine, serve)
// from outside on a named workload, checks every answer it timed against
// the cold core.Resolve oracle, and prints one JSON result line.
//
//	rups-perfbench --workload convoy-dsrc|serve-track|serve-cold \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run (see README.md for the
// workloads, the metric definitions and the layer → end-to-end table).
// Human-readable report lines go to standard output before the result;
// progress goes to standard error. A failed correctness gate exits non-zero
// without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. Each is
// defined on every workload (README.md gives the per-workload meaning).
// Wall-clock latency and throughput are printed in the report lines of
// every run; the gated metrics are the ones a shared, hypervisor-stolen
// CPU cannot move (README.md, "Why CPU time").
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_answer", "ms"},
	{"wire_bytes_per_m", "B/m"},
	{"peak_heap_mb", "MB"},
	{"served_frac", "frac"},
}

// layerMetrics are reported by every workload with --trace 1. Counts of a
// layer a workload does not drive read 0; every timing here is measured on
// every workload (live or by replaying the run's own inputs).
var layerMetrics = []metricDef{
	{"sim.execute_convoy_s", "s"},
	{"link.bytes_sent", "B"},
	{"link.frames_sent", "count"},
	{"v2v.frame_bytes_per_mark", "B/mark"},
	{"v2v.encode_us_per_mark", "us"},
	{"v2v.offer_us_per_frame", "us"},
	{"v2v.retransmits", "count"},
	{"trajectory.snapshot_us_p50", "us"},
	{"trajectory.snapshot_bytes_copied", "B/snapshot"},
	{"core.resolve_cold_ms_p50", "ms"},
	{"core.prune_frac", "frac"},
	{"core.warm_hit_frac", "frac"},
	{"core.warm_attempts", "count"},
	{"core.syn_accept_frac", "frac"},
	{"engine.admit_us_p50", "us"},
	{"engine.resolve_pairs_ms_p50", "ms"},
	{"engine.pair_ms_p50", "ms"},
	{"engine.pair_ms_p99", "ms"},
	{"engine.batch_size_mean", "pairs"},
	{"engine.tasks_inline_frac", "frac"},
	{"engine.queue_depth_peak", "count"},
	{"serve.refused", "count"},
	{"serve.shed", "count"},
	{"serve.evictions", "count"},
	{"serve.slow_disconnects", "count"},
	{"serve.malformed", "count"},
	{"obs.trace_overhead_frac.cpu_ms_per_answer", "frac"},
	{"obs.trace_overhead_frac.latency_p50_ms", "frac"},
	{"obs.trace_overhead_frac.latency_p90_ms", "frac"},
	{"obs.trace_overhead_frac.answers_per_s", "frac"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every input to a few vehicles over a few hundred
	// metres: the benchmark's own test runs each workload this way.
	smoke bool
	// wrongAnswer perturbs one timed answer before the correctness gate,
	// which must then fail the run (the gate's own test).
	wrongAnswer bool
	// outDir receives the span file of a traced run.
	outDir string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"convoy-dsrc": runConvoyDSRC,
	"serve-track": runServeTrack,
	"serve-cold":  runServeCold,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rups-perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload and writes the report and result
// line to stdout. Any error — a bad flag, a failed operation the workload
// cannot survive, a correctness-gate mismatch — is returned before the
// result line is written.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rups-perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: convoy-dsrc, serve-track or serve-cold")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured (timed) duration, seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs (for the benchmark's own test)")
	fs.BoolVar(&o.wrongAnswer, "inject-wrong-answer", false, "perturb one answer before the correctness gate (gate self-test)")
	fs.StringVar(&o.outDir, "out-dir", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	drive, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	// GOMAXPROCS and the engine's worker count are pinned to nproc, and
	// the load generator holds at most nproc connections.
	nproc := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(nproc)
	defer runtime.GOMAXPROCS(prev)

	b := newBench(o, nproc)
	defer b.close()
	if err := drive(b); err != nil {
		return err
	}
	if err := b.finish(); err != nil {
		return err
	}
	return b.write(stdout)
}

// write prints the report lines, the environment record and the result
// line, which is the last line of the output.
func (b *bench) write(w io.Writer) error {
	for _, l := range b.report {
		fmt.Fprintln(w, l)
	}
	env, err := json.Marshal(b.env())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)

	defs := e2eMetrics
	vals := b.e2e
	if b.o.trace {
		defs, vals = layerMetrics, b.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s (%v)", b.o.workload, d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, b.attempted(), b.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// sortedKeys returns m's keys in order, for deterministic report lines.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
