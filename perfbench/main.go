// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded input graphs, hands each to the real serving stack (server.New,
// cluster.NewHandler) over loopback HTTP, drives one named workload for a
// fixed time, checks every answer against the library, and prints one JSON
// result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload local-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload runs with spans recorded around every call the
// benchmark makes into the program, followed by a sequential per-layer
// ledger, and the result carries the per-layer metrics. Spans are written
// to .bench_build/traces, full results (with the environment record) to
// .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the traced-run metrics. A layer the workload never calls
// reports 0 (see README.md for which workload each one belongs to).
var perLayer = []metricDef{
	{"graph.load_s", "s"},
	{"index.build_s", "s"},
	{"truss.index_build_ms", "ms"},
	{"store.topk_ms.core", "ms"},
	{"store.topk_ms.noncontainment", "ms"},
	{"core.rounds", "count"},
	{"core.final_size", "count"},
	{"core.total_work", "count"},
	{"core.work_ratio_max", "ratio"},
	{"truss.topk_ms", "ms"},
	{"truss.full_graph_s", "s"},
	{"index.topk_ms", "ms"},
	{"index.repairs", "count"},
	{"index.rebuilds", "count"},
	{"index.served_share", "ratio"},
	{"mutable.apply_ms", "ms"},
	{"server.serve_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.render_encode_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"http.self_ms", "ms"},
	{"http.response_bytes", "bytes"},
	{"cluster.topk_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.shard_bytes_ratio", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"queryweight.reweight_ms", "ms"},
	{"query.parse_plan_us", "us"},
	{"query.cse_ratio", "ratio"},
	{"update_p50_ms", "ms"},
	{"update_tail_ms", "ms"},
	{"failed_frac", "ratio"},
	{"loadgen.writer_lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"local-mixed":  runLocalMixed,
	"cluster-wide": runClusterWide,
	"dsl-adhoc":    runDSLAdhoc,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: local-mixed, cluster-wide or dsl-adhoc")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		dir:      ".bench_build",
		metrics:  map[string]float64{},
		env:      envRecord(),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := b.report(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// bench is one benchmark run: its arguments, the optional tracer, and what
// the workload measured.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	dir      string
	tr       *tracer // nil in untraced runs

	env       map[string]any
	metrics   map[string]float64
	attempted int64
	failed    int64
	wrong     int64
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// fail counts n failed operations; wrong answers are also tallied apart.
func (b *bench) fail(n int64, wrong bool) {
	b.failed += n
	if wrong {
		b.wrong += n
	}
}

// report writes the trace and full result files and prints the environment
// line and the result line.
func (b *bench) report() error {
	if b.attempted > 0 {
		b.set("failed_frac", float64(b.failed)/float64(b.attempted))
	}
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: b.metrics[d.name], Unit: d.unit}
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, btoi(b.tr != nil))
	if err := writeJSONFile(filepath.Join(b.dir, "results", tag+".json"), map[string]any{
		"env": b.env, "result": res, "all_metrics": b.metrics,
	}); err != nil {
		return err
	}
	if b.tr != nil {
		if err := writeJSONFile(filepath.Join(b.dir, "traces", tag+".json"), b.tr.snapshot()); err != nil {
			return err
		}
	}
	envLine, err := json.Marshal(map[string]any{"env": b.env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
