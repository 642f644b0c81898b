package main

// metricDef is one reported metric: its name in BENCHMARK.json and unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of juryd sees, reported by every untraced run.
// "op" is the workload's own request class: an uncached select on
// select-128, an uncached multi-choice select on multi-20x3, and a
// quorum-acknowledged fsync'd ingest on ingest-fsync.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
}

// perLayer is what the traced run reports, named after the module that
// does the work. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"server.selects_computed", "count"},
	{"server.evaluate_ms_p50", "ms"},
	{"server.evaluate_ms_p99", "ms"},
	{"server.cache_hit_rate", "ratio"},
	{"server.cache_lookup_us_p50", "us"},
	{"server.encode_us_p50", "us"},
	{"server.unstaged_ms_mean", "ms"},
	{"server.apply_us_p50", "us"},
	{"server.gc_pause_ms_per_s", "ms/s"},
	{"server.heap_inuse_mb_max", "MiB"},
	{"selection.select_ms_p50", "ms"},
	{"selection.self_ms_p50", "ms"},
	{"selection.evals_per_select", "count"},
	{"selection.allocs_per_select", "count"},
	{"jq.evals", "count"},
	{"jq.eval_us_p50", "us"},
	{"jq.dp_keys_per_eval", "count"},
	{"jq.pruned_frac", "ratio"},
	{"jq.memo_hit_rate", "ratio"},
	{"multichoice.select_ms_p50", "ms"},
	{"multichoice.objective_calls_per_select", "count"},
	{"multichoice.objective_us_p50", "us"},
	{"multichoice.allocs_per_select", "count"},
	{"multichoice.bytes_per_select", "B"},
	{"wal.records_written", "count"},
	{"wal.encode_us_p50", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.flush_wait_ms_p50", "ms"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_vote", "B"},
	{"wal.recovery_s", "s"},
	{"repl.quorum_wait_ms_mean", "ms"},
	{"repl.follower_syncs_per_record", "count"},
	{"repl.lag_records_max", "count"},
	{"repl.quorum_timeouts", "count"},
	{"repl.bootstrap_s", "s"},
	{"serve.retries", "count"},
	{"serve.redirects", "count"},
	{"serve.read_ms_p50", "ms"},
	{"serve.read_ms_p99", "ms"},
	{"serve.op_p99_ms", "ms"},
	{"serve.client_overhead_ms_p50", "ms"},
	{"serve.joined_traces", "count"},
	{"trace.overhead_ms_p50", "ms"},
}

// metricSet holds measured values by name.
type metricSet map[string]float64

// jsonMetric is one metric as printed.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// render selects the metrics of defs from m; a metric the run did not
// measure reads 0.
func render(defs []metricDef, m metricSet) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		out[d.name] = jsonMetric{Value: m[d.name], Unit: d.unit}
	}
	return out
}
