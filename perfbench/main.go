// Command perfbench is the repository's benchmark: three workloads that
// time calls into the public functions of core, plan, candidates,
// kpartite, join, pathindex, live and server from outside, and check every
// answer. See README.md for the workloads and what each metric should
// predict.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload collect-rich --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat every
// metric with its unit and, for percentiles, its sample count. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set from a separate traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run reports; it
// mirrors "end_to_end" in BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"qps":            "1/s",
	"goodput_qps":    "1/s",
	"latency_p50_ms": "ms",
	"latency_p95_ms": "ms",
	"peak_rss_mb":    "MB",
}

// layerUnits lists the per-layer metrics every traced run reports; it
// mirrors "per_layer" in BENCHMARK.json. A layer a workload does not run
// reports 0.
var layerUnits = map[string]string{
	"entity.build_ms":               "ms",
	"pathindex.build_s":             "s",
	"pathindex.lookup_ms":           "ms",
	"pathindex.lookups_per_query":   "count",
	"pathindex.postings_per_lookup": "count",
	"plan.plan_ms":                  "ms",
	"plan.sort_ms":                  "ms",
	"candidates.find_ms":            "ms",
	"candidates.kept_ratio":         "ratio",
	"candidates.cache_hit_ratio":    "ratio",
	"candidates.cands_per_query":    "count",
	"candidates.cache_evictions":    "count",
	"kpartite.build_ms":             "ms",
	"kpartite.links_per_query":      "count",
	"kpartite.reduce_ms":            "ms",
	"kpartite.alive_ratio":          "ratio",
	"join.join_ms":                  "ms",
	"join.ns_per_match":             "ns",
	"join.matches_per_query":        "count",
	"core.collect_ms":               "ms",
	"runtime.alloc_mb_per_query":    "MB",
	"runtime.gc_cpu_frac":           "ratio",
	"server.engine_ms":              "ms",
	"server.overhead_ms":            "ms",
	"server.result_cache_hit_ratio": "ratio",
	"server.plan_cache_hit_ratio":   "ratio",
	"server.cand_cache_hit_ratio":   "ratio",
	"server.shed_frac":              "ratio",
	"live.dirty_entities_p50":       "count",
	"live.compactions":              "count",
	"live.compaction_s":             "s",
	"live.ingest_p50_ms":            "ms",
	"live.ingest_p90_ms":            "ms",
	"loadgen.lateness_p99_ms":       "ms",
	"loadgen.sent_frac":             "ratio",
	"loadgen.latency_p99_ms":        "ms",
	"loadgen.error_rate":            "ratio",
	"trace.coverage":                "ratio",
	"trace.overhead_frac":           "ratio",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runParams) (report, error){
	"collect-rich":     collectRich,
	"first-match-zipf": firstMatchZipf,
	"serve-ingest":     serveIngest,
}

func main() {
	if raw, ok := os.LookupEnv(clientEnv); ok {
		os.Exit(runClient(raw))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: collect-rich, first-match-zipf or serve-ingest")
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		seconds = fs.Float64("seconds", 15, "measured seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		work    = fs.String("work", ".bench_build", "directory for index files and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", names())
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := runParams{
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		dir:    dir,
	}
	if p.traced {
		p.spans = filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.ndjson", *name, *seed))
	}
	ctx := context.Background()
	rep, err := runner(ctx, p)
	if errors.Is(err, errInvalidRun) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 3
	}
	if err != nil && rep.Metrics == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if p.traced {
		want = layerUnits
	}
	if msg := checkNames(rep.Metrics, want); msg != "" {
		fmt.Fprintln(os.Stderr, "perfbench: metric set mismatch:", msg)
		return 1
	}
	fmt.Printf("# %s seed %d, %s\n", *name, *seed, machineFacts())
	printSummary(os.Stdout, *name, rep)
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", err)
		return 1
	}
	return 0
}

// checkNames reports how a run's metrics differ from the declared set.
func checkNames(got map[string]metric, want map[string]string) string {
	var msg string
	for n, u := range want {
		m, ok := got[n]
		switch {
		case !ok:
			msg += fmt.Sprintf(" missing %s;", n)
		case m.Unit != u:
			msg += fmt.Sprintf(" %s in %s, declared %s;", n, m.Unit, u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			msg += fmt.Sprintf(" undeclared %s;", n)
		}
	}
	return msg
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
