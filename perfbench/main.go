// Command perfbench is parmbf's end-to-end benchmark. It generates a
// workload's inputs from a seed, builds nothing itself (run.sh builds it and
// parmbfd from source), spawns the real parmbfd server on those inputs,
// drives it over at most two HTTP connections, checks every answer, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with no
// tracing anywhere. With --trace 1 the same traffic runs against one server,
// and afterwards an in-process replay rebuilds the pipeline from the same
// file and seed through the layers' public calls, recording a span around
// each call; the replay's answers must equal the server's bitwise, and the
// result carries the per-layer metrics. README.md maps each layer metric to
// the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one benchmark configuration: the server it spawns and the
// traffic it sends. Every workload runs the same phases (setup, closed-loop
// capacity, open-loop reads, open-loop mixed), so every end-to-end metric
// exists on every workload; what differs is which layers do the work.
type workload struct {
	Name string
	// N and K size the server: a RandomConnected graph with N nodes and 4N
	// edges, embedded into K trees.
	N, K int
	// Dynamic starts parmbfd with -dynamic (direct LE-list pipeline, live
	// updates); otherwise the paper's hop set → H → oracle pipeline runs.
	Dynamic bool
	// ReadPairs is the number of pairs per /batch read request.
	ReadPairs int
	// Heavy is the expensive request of the mixed phase: "update" (one
	// reweighted edge per /update) or "kmedian" (/kmedian with k = 8).
	Heavy string
	// ReadRate is the read and mixed phases' open-loop read rate per
	// second, HeavyRate the mixed phase's heavy request rate. Each stream
	// has one connection, so a rate keeps that connection about a quarter
	// busy: the backlog must not grow when the bench box runs at half
	// speed, which it does for minutes at a time.
	ReadRate, HeavyRate float64
}

var workloads = []workload{
	{Name: "embed-oracle", N: 1024, K: 4, ReadPairs: 256,
		Heavy: "kmedian", ReadRate: 400, HeavyRate: 6},
	{Name: "serve", N: 4096, K: 16, Dynamic: true, ReadPairs: 256,
		Heavy: "update", ReadRate: 400, HeavyRate: 3},
}

// setupRuns is the number of cold starts of an untraced run; setup_s is
// their median and the last server serves the measured phases. Three keeps
// embed-oracle, whose cold start takes about 13 s, within its time budget.
const setupRuns = 3

// The phases' shares of --seconds.
const (
	capacityShare = 0.15
	readShare     = 0.25
	mixedShare    = 1 - capacityShare - readShare
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"stretch_mean", "ratio"},
	{"read_p50_ms", "ms"},
	{"mixed_read_p50_ms", "ms"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"graph.read_ms", "ms"},
	{"hopset.build_ms", "ms"},
	{"hopset.added_edges", "count"},
	{"hopset.work", "count"},
	{"hopset.depth", "count"},
	{"simgraph.build_ms", "ms"},
	{"simgraph.lambda", "count"},
	{"simgraph.fixpoint_ms_sum", "ms"},
	{"simgraph.fixpoint_ms_max", "ms"},
	{"simgraph.iterations", "count"},
	{"simgraph.work", "count"},
	{"simgraph.depth", "count"},
	{"simgraph.alloc_mb", "MB"},
	{"frt.le_lists_ms", "ms"},
	{"frt.le_work", "count"},
	{"frt.le_depth", "count"},
	{"frt.le_entries", "count"},
	{"frt.le_max_len", "count"},
	{"frt.build_tree_ms", "ms"},
	{"frt.tree_nodes", "count"},
	{"frt.index_build_ms", "ms"},
	{"frt.min_batch_us", "us"},
	{"frt.median_batch_us", "us"},
	{"frt.update_ms", "ms"},
	{"frt.update_cone_nodes", "count"},
	{"frt.update_affected_trees", "count"},
	{"frt.reindex_ms", "ms"},
	{"parmbfd.read_overhead_us", "us"},
	{"parmbfd.capacity_pairs_per_s", "pairs/s"},
	{"parmbfd.heavy_p50_ms", "ms"},
	{"parmbfd.update_wait_ms", "ms"},
	{"kmedian.solve_ms", "ms"},
	{"kmedian.candidates", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"par.build_ms_1core", "ms"},
	{"par.build_ms_2core", "ms"},
	{"par.build_speedup", "ratio"},
	{"trace.setup_s", "s"},
	{"trace.setup_residual_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// mismatches is the traced replay's share of Failed.
	mismatches int
}

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	parmbfd string // server binary
	work    string // directory for generated inputs, logs and traces
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: embed-oracle | serve")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds (read phase 30%, mixed phase 70%)")
		trace   = flag.Int("trace", 0, "1: traced run with in-process replay and per-layer metrics")
		bin     = flag.String("parmbfd", "", "parmbfd binary")
		work    = flag.String("work", "", "work directory")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *bin == "" || *work == "" {
		fail(errors.New("-parmbfd and -work are required (run through run.sh)"))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	res, err := run(w, options{
		seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		parmbfd: *bin, work: *work,
	})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run of w and assembles its result.
func run(w workload, o options) (*result, error) {
	start := time.Now()
	in, err := makeInputs(w, o.seed, o.work)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: inputs ready in %v (n=%d m=%d)", w.Name, o.seed,
		time.Since(start).Round(time.Millisecond), in.g.N(), in.g.M())
	d := &driver{w: w, o: o, in: in}
	if err := d.drive(); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := d.replay(metrics); err != nil {
			return nil, err
		}
	} else {
		d.endToEndMetrics(metrics)
	}
	res := &result{Attempted: int(d.attempted.Load()), Failed: int(d.failed.Load()),
		Metrics: map[string]metricValue{}, mismatches: d.mismatches}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{Value: metrics[def.Name], Unit: def.Unit}
	}
	logf("%s seed %d: done in %v, %d of %d operations failed", w.Name, o.seed,
		time.Since(start).Round(time.Millisecond), res.Failed, res.Attempted)
	return res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
