// Command perfbench is botgrid's benchmark driver: it runs one named
// workload against the packages' public functions, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// instrumentation; with -trace 1 they are the per-layer set, measured by
// wrapping the public seams between layers, and the spans are written
// under -out. See README.md for the workloads and what each metric means.
//
// Usage (from the repository root; run.sh builds the driver first):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"botgrid/internal/experiment"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md gives the per-workload definitions).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"result_p50_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics. A layer that does no
// work on a workload reads 0 there; see traced.
var perLayer = []metricDef{
	// sim path (sweep)
	{"core.rep_ms.g1000", "ms"},
	{"core.rep_ms.g125000", "ms"},
	{"core.ns_per_event", "ns"},
	{"des.events_per_rep", "count"},
	{"core.dispatches_per_rep", "count"},
	{"core.replicas_per_task", "ratio"},
	{"grid.failures_per_rep", "count"},
	{"checkpoint.transfers_per_rep", "count"},
	{"workload.gen_ms_per_rep", "ms"},
	{"experiment.busy_frac", "ratio"},
	{"experiment.reps", "count"},
	// live path, binary transport (dispatch-wire)
	{"wire.batch_rtt_ms.p50", "ms"},
	{"wire.batch_rtt_ms.p99", "ms"},
	{"wire.transport_ms.p50", "ms"},
	{"serve.fetch_us.p50", "us"},
	{"serve.fetch_us.p99", "us"},
	{"serve.report_us.p50", "us"},
	{"serve.report_us.p99", "us"},
	{"serve.flush_ms.p50", "ms"},
	{"serve.flush_ms.p99", "ms"},
	{"serve.pending_per_flush", "count"},
	{"journal.fsyncs_per_s", "1/s"},
	{"journal.appends_per_dispatch", "ratio"},
	{"journal.replay_records_per_s", "1/s"},
	{"serve.recover_s", "s"},
	{"shard.max_share", "ratio"},
	{"shard.rebalances", "count"},
	{"shard.worker_moves", "count"},
	{"core.assigned_frac", "ratio"},
	{"core.stale_frac", "ratio"},
	// live path, replicated HTTP (dispatch-http-replicated)
	{"http.fetch_rtt_ms.p50", "ms"},
	{"http.fetch_rtt_ms.p99", "ms"},
	{"http.report_rtt_ms.p50", "ms"},
	{"http.report_rtt_ms.p99", "ms"},
	{"http.fetch_handler_us.p50", "us"},
	{"http.fetch_handler_us.p99", "us"},
	{"http.report_handler_us.p50", "us"},
	{"http.report_handler_us.p99", "us"},
	{"http.transport_us.p50", "us"},
	{"replicate.append_us.p50", "us"},
	{"replicate.wait_durable_ms.p50", "ms"},
	{"replicate.wait_durable_ms.p99", "ms"},
	{"replicate.follower_lag.max", "count"},
	// shared by both live workloads
	{"journal.records_per_fsync", "ratio"},
	{"serve.stats_ms.p50", "ms"},
	{"serve.stats_ms.max", "ms"},
	// every workload
	{"trace_overhead_frac", "ratio"},
}

// traced names, for each workload, the per-layer metrics its traced run
// measures. A missing one fails the run, so broken instrumentation cannot
// pass for a layer the workload does not exercise; every per-layer metric
// not listed reads 0 on that workload.
var traced = map[string][]string{
	"sweep": {
		"core.rep_ms.g1000", "core.rep_ms.g125000", "core.ns_per_event", "des.events_per_rep",
		"core.dispatches_per_rep", "core.replicas_per_task", "grid.failures_per_rep",
		"checkpoint.transfers_per_rep", "workload.gen_ms_per_rep", "experiment.busy_frac",
		"experiment.reps", "trace_overhead_frac",
	},
	"dispatch-wire": {
		"wire.batch_rtt_ms.p50", "wire.batch_rtt_ms.p99", "wire.transport_ms.p50",
		"serve.fetch_us.p50", "serve.fetch_us.p99", "serve.report_us.p50", "serve.report_us.p99",
		"serve.flush_ms.p50", "serve.flush_ms.p99", "serve.pending_per_flush",
		"journal.records_per_fsync", "journal.fsyncs_per_s", "journal.appends_per_dispatch",
		"journal.replay_records_per_s", "serve.recover_s", "shard.max_share", "shard.rebalances",
		"shard.worker_moves", "core.assigned_frac", "core.stale_frac",
		"serve.stats_ms.p50", "serve.stats_ms.max", "trace_overhead_frac",
	},
	"dispatch-http-replicated": {
		"http.fetch_rtt_ms.p50", "http.fetch_rtt_ms.p99", "http.report_rtt_ms.p50",
		"http.report_rtt_ms.p99", "http.fetch_handler_us.p50", "http.fetch_handler_us.p99",
		"http.report_handler_us.p50", "http.report_handler_us.p99", "http.transport_us.p50",
		"replicate.append_us.p50", "replicate.wait_durable_ms.p50", "replicate.wait_durable_ms.p99",
		"replicate.follower_lag.max", "journal.records_per_fsync", "core.assigned_frac",
		"core.stale_frac", "serve.stats_ms.p50", "serve.stats_ms.max", "trace_overhead_frac",
	},
}

// sizes scales a workload. fullSize is what the benchmark measures;
// smokeSize keeps the package's own tests fast.
type sizes struct {
	panel       func(seed uint64, parallelism int) experiment.Options
	paperScale  bool // the measured panel is the one paperPinDigest pins
	setups      int  // set-ups per run; setup_s is their median
	wireWorkers int
	httpWorkers int
	bagTasks    int
	warm        time.Duration // untimed load before the window
}

var fullSize = sizes{
	panel:       paperPanel,
	paperScale:  true,
	setups:      5,
	wireWorkers: 20000,
	httpWorkers: 2000,
	bagTasks:    500,
	warm:        2 * time.Second,
}

var smokeSize = sizes{
	panel:       quickPanel,
	setups:      2,
	wireWorkers: 300,
	httpWorkers: 40,
	bagTasks:    50,
	warm:        200 * time.Millisecond,
}

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	out         string // build-output directory: data dirs, spans, results
	parallelism int
	size        sizes
}

// window is the measured interval of a live workload, and the least time
// the sweep spends on timed panels.
func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// report collects one run's numbers.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	tr                *tracer
	details           map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(options, *report) error{
	"sweep":                    runSweep,
	"dispatch-wire":            runWire,
	"dispatch-http-replicated": runCluster,
}

// run executes one workload and returns its result line. A failed
// correctness gate or validity check is an error: no numbers.
func run(o options) (resultLine, *report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return resultLine{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := newReport()
	if err := fn(o, rep); err != nil {
		return resultLine{Attempted: rep.attempted, Failed: rep.failed}, rep, err
	}
	defs, required := endToEnd, map[string]bool{}
	for _, d := range endToEnd {
		required[d.name] = true
	}
	if o.trace {
		defs, required = perLayer, map[string]bool{}
		for _, name := range traced[o.workload] {
			required[name] = true
		}
	}
	line := resultLine{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	if line.Attempted < 1 {
		return line, rep, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && required[d.name] {
			return line, rep, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, rep, fmt.Errorf("%s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return line, rep, nil
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, dispatch-wire or dispatch-http-replicated")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for data dirs, spans and result files")
	flag.Parse()
	o.trace = traceN == 1
	o.parallelism = runtime.NumCPU()
	o.size = fullSize
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := gatherHost(root, o.out, o)
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hostJSON)

	line, rep, err := run(o)
	if rep != nil {
		if werr := writeArtifacts(o, host, line, rep, err); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing artifacts:", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %v\n", o.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	enc, _ := json.Marshal(line)
	fmt.Println(string(enc))
}

// writeArtifacts stamps the run's result with its host facts under
// <out>/results, and writes a traced run's spans under <out>/trace.
func writeArtifacts(o options, host hostFacts, line resultLine, rep *report, runErr error) error {
	name := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if rep.tr != nil {
		dir := filepath.Join(o.out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := rep.tr.write(filepath.Join(dir, name+".jsonl"), host); err != nil {
			return err
		}
	}
	doc := struct {
		Host    hostFacts      `json:"host"`
		Result  resultLine     `json:"result"`
		Details map[string]any `json:"details,omitempty"`
		Error   string         `json:"error,omitempty"`
	}{Host: host, Result: line, Details: rep.details}
	if runErr != nil {
		doc.Error = runErr.Error()
	}
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}
