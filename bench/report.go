package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one metric of the benchmark contract (BENCHMARK.json
// mirrors these tables; TestBenchmarkJSONMatches keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them; what "op" means per workload is fixed in README.md:
// train — one round of sequential RN+RO retro.Retrofit; read_miss and
// read_hot — one GET /v1/neighbors; write_mixed — one single-row
// POST /v1/insert beside read traffic.
//
// No tail percentile is among them. On the two-core shared sandbox the
// window-median p99 of the read workloads moved 20-35 % between
// identical runs (p90 15 %) while their median moved 4 %: a bound wide
// enough to hold that noise would hold a real regression too. Tails are
// reported per run (read_p99_ms, insert_tail_ms) and per layer
// (loadgen.read_p99_ms), ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_cpu_ms", "ms", "lower", 0.25},
	{"capacity_ops_s", "1/s", "higher", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"restart_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run: spans the benchmark wraps
// around each layer's public functions, deltas of the server's own
// /metrics and /v1/stats, and exact counts. The module name is the layer.
var perLayer = []metricDef{
	{Name: "dataset.load_s", Unit: "s", Better: "lower"},
	{Name: "reldb.rows", Unit: "count", Better: "lower"},
	{Name: "extract.from_db_s", Unit: "s", Better: "lower"},
	{Name: "extract.values", Unit: "count", Better: "lower"},
	{Name: "extract.edges", Unit: "count", Better: "lower"},
	{Name: "tokenize.new_s", Unit: "s", Better: "lower"},
	{Name: "core.build_problem_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_rn_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_ro_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_rn_par_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_ro_par_s", Unit: "s", Better: "lower"},
	{Name: "core.iter_ms_rn", Unit: "ms", Better: "lower"},
	{Name: "core.iter_ms_ro", Unit: "ms", Better: "lower"},
	{Name: "core.par_speedup_rn", Unit: "ratio", Better: "higher"},
	{Name: "core.par_speedup_ro", Unit: "ratio", Better: "higher"},
	{Name: "embed.build_store_s", Unit: "s", Better: "lower"},
	{Name: "retro.retrofit_rn_s", Unit: "s", Better: "lower"},
	{Name: "retro.retrofit_ro_s", Unit: "s", Better: "lower"},
	{Name: "retro.retrofit_remainder_s", Unit: "s", Better: "lower"},
	{Name: "embed.warm_ann_s", Unit: "s", Better: "lower"},
	{Name: "ann.build_us_per_value", Unit: "us", Better: "lower"},
	{Name: "embed.quantize_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.write_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.load_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "server.boot_s", Unit: "s", Better: "lower"},
	{Name: "server.recover_s", Unit: "s", Better: "lower"},
	{Name: "vec.dot64_ns", Unit: "ns", Better: "lower"},
	{Name: "vec.dot32_ns", Unit: "ns", Better: "lower"},
	{Name: "quant.dot8_ns", Unit: "ns", Better: "lower"},
	{Name: "cpu.simd_level", Unit: "count", Better: "higher"},
	{Name: "ann.walk_us", Unit: "us", Better: "lower"},
	{Name: "ann.rerank_us", Unit: "us", Better: "lower"},
	{Name: "ann.hops_per_q", Unit: "count", Better: "lower"},
	{Name: "ann.nodes_per_q", Unit: "count", Better: "lower"},
	{Name: "ann.reranked_per_q", Unit: "count", Better: "lower"},
	{Name: "embed.topk_us", Unit: "us", Better: "lower"},
	{Name: "embed.topk_many16_us", Unit: "us", Better: "lower"},
	{Name: "embed.topk_exact_us", Unit: "us", Better: "lower"},
	{Name: "embed.bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "server.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.stage_cache_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_walk_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_rerank_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_encode_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.max_rate_ok_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "obs.telemetry_gap_pct", Unit: "%", Better: "lower"},
	{Name: "session.insert_ms", Unit: "ms", Better: "lower"},
	{Name: "session.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "session.repair_touched", Unit: "count", Better: "lower"},
	{Name: "session.new_nodes", Unit: "count", Better: "lower"},
	{Name: "server.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "server.publish_us", Unit: "us", Better: "lower"},
	{Name: "server.alloc_mb_per_insert", Unit: "MB", Better: "lower"},
	{Name: "server.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "server.heap_sys_mb", Unit: "MB", Better: "lower"},
	{Name: "embed.prepare_write_ms", Unit: "ms", Better: "lower"},
	{Name: "embed.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoints", Unit: "count", Better: "higher"},
	{Name: "storage.segment_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "storage.disk_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "storage.open_s", Unit: "s", Better: "lower"},
	{Name: "storage.replayed_rows", Unit: "count", Better: "lower"},
	{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower"},
}

// workloadDef is one traffic mix and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"train", "in-process retro.Retrofit, RN and RO, sequential and parallel: extract, tokenize and core do all the work, ann/server/storage none"},
	{"read_miss", "uniform keys over a vocabulary 17x the cache: graph walk, SQ8 and re-rank (ann, quant, vec, embed) dominate, the cache is bypassed"},
	{"read_hot", "Zipf(1.3) keys that mostly fit the cache: server (CLOCK cache, pre-encoded bodies, net/http) dominates and ann does little"},
	{"write_mixed", "single-row and bulk inserts beside reads on a WAL-backed server, then kill -9 and recovery: session, storage, incremental core and COW embed/ann"},
}

// detail is one measured quantity of a run under its own descriptive
// name: a distribution (median, quartiles, n) when it was sampled more
// than once, a single value otherwise.
type detail struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	dist
}

// check is one correctness assertion; any failed check fails the run.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Got  string `json:"got"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Smoke    bool               `json:"smoke"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"` // the contract metrics of this mode
	Details  []detail           `json:"details"`
	Phases   []phaseResult      `json:"phases"`
	Checks   []check            `json:"checks"`
	Budget   []budgetRow        `json:"budget,omitempty"`
	Spans    []spanSummary      `json:"spans,omitempty"` // traced runs: time per span name
	WallS    float64            `json:"wall_s"`
}

func (r *result) value(name, unit string, v float64) {
	r.Details = append(r.Details, detail{Name: name, Unit: unit, dist: dist{N: 1, Median: v, Q1: v, Q3: v}})
}

func (r *result) sampled(name, unit string, xs []float64) dist {
	d := summarize(xs)
	r.Details = append(r.Details, detail{Name: name, Unit: unit, dist: d})
	return d
}

func (r *result) phase(p phaseResult) { r.Phases = append(r.Phases, p) }

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Got: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// defsFor returns the contract metrics of a mode.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the one-line JSON object the driver reads. It
// fails when the run did not produce every metric of its mode.
func (r *result) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	var missing []string
	for _, d := range defsFor(r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("workload %s produced no value for: %s", r.Workload, strings.Join(missing, ", "))
	}
	attempted, failed := r.totals()
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	return string(line), err
}

// print writes the human-readable report of one run.
func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %s, %.0fs measured, %.1fs wall) ==\n", r.Workload, r.Seed, mode, r.Seconds, r.WallS)
	fmt.Fprintf(w, "%-32s %-8s %12s %12s %12s %7s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range r.Details {
		fmt.Fprintf(w, "%-32s %-8s %12.4f %12.4f %12.4f %7d\n", d.Name, d.Unit, d.Median, d.Q1, d.Q3, d.N)
	}
	fmt.Fprintf(w, "-- contract metrics (%s)\n", mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range defsFor(r.Trace) {
		units[d.Name] = d.Unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %-8s %12.4f\n", n, units[n], r.Metrics[n])
	}
	fmt.Fprintf(w, "-- operations per phase\n")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-32s attempted %7d  succeeded %7d  failed %5d  wall %.2fs\n",
			p.Name, p.Attempted, p.succeeded(), p.Failed, p.WallS)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "-- budget (layer time, sum of the layers beneath it, unexplained remainder)\n")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "%-28s %10.4f %-3s = ", b.Parent, b.Value, b.Unit)
			kids := make([]string, 0, len(b.Children))
			for k := range b.Children {
				kids = append(kids, k)
			}
			sort.Strings(kids)
			for _, k := range kids {
				fmt.Fprintf(w, "%s %.4f + ", k, b.Children[k])
			}
			pct := 0.0
			if b.Value != 0 {
				pct = 100 * b.Remainder / b.Value
			}
			fmt.Fprintf(w, "unexplained %.4f (%.1f%%)\n", b.Remainder, pct)
		}
	}
	fmt.Fprintf(w, "-- checks\n")
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s %-34s %s\n", verdict, c.Name, c.Got)
	}
}
