package main

// metricDef names one metric of the benchmark. The list below is the
// single source of the names, units and directions; BENCHMARK.json
// repeats them for the driver and bench_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// EndToEnd metrics are what a user of the system sees; they carry a
	// regression bound in BENCHMARK.json and are measured with tracing
	// off. The rest are per-layer metrics from the traced pass.
	EndToEnd bool
	// Exact marks a deterministic work counter: compared on equality,
	// pinned in expected.json, never judged as a time.
	Exact bool
}

func e2e(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, EndToEnd: true}
}
func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}
func exact(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
}

// metrics lists every metric in print order. Per-layer names are
// <package>.<metric>; "client." is the bench's own HTTP client and
// "bench." the harness itself. A workload reports 0 for a layer it does
// not exercise.
var metrics = []metricDef{
	e2e("setup_s", "s", "lower"),
	e2e("wall_s", "s", "lower"),
	e2e("cpu_s", "s", "lower"),
	e2e("modes_per_s", "1/s", "higher"),
	e2e("peak_rss_mb", "MB", "lower"),

	// What the service client sees. These apply to one or two workloads
	// only, and the driver wants every end-to-end metric on every
	// workload, so they are tracked here without a driver-side bound;
	// -compare still judges them against compareBounds.
	layer("client.first_mode_s", "s", "lower"),
	layer("client.job_cold_p50_s", "s", "lower"),
	layer("client.job_cold_p75_s", "s", "lower"),
	layer("client.job_hit_p50_s", "s", "lower"),
	layer("client.job_hit_p90_s", "s", "lower"),
	layer("client.jobs_per_s", "1/s", "higher"),

	layer("model.parse_s", "s", "lower"),
	layer("reduce.network_s", "s", "lower"),
	exact("reduce.rows", "count"),
	exact("reduce.cols", "count"),
	layer("ratmat.kernel_s", "s", "lower"),
	layer("nullspace.new_s", "s", "lower"),

	layer("core.begin_row_s", "s", "lower"),
	layer("core.generate_s", "s", "lower"),
	layer("core.assemble_s", "s", "lower"),
	layer("core.canonical_s", "s", "lower"),
	layer("core.candidates_per_s", "1/s", "higher"),
	exact("core.candidates", "count"),
	exact("core.prefiltered", "count"),
	exact("core.tree_rejects", "count"),
	exact("core.rank_tests", "count"),
	exact("core.accepted", "count"),
	exact("core.duplicates", "count"),
	exact("core.peak_mode_bytes", "B"),
	layer("core.accept_ratio", "ratio", "higher"),
	layer("core.sampled_gen_s", "s", "lower"),
	layer("core.sampled_test_s", "s", "lower"),
	layer("core.timer_residual_frac", "ratio", "lower"),
	layer("linalg.rank_test_ns", "ns", "lower"),
	layer("bptree.build_s", "s", "lower"),
	layer("bptree.query_ns", "ns", "lower"),
	layer("core.codec_encode_s", "s", "lower"),
	layer("core.codec_decode_s", "s", "lower"),
	exact("core.codec_bytes_per_mode", "B"),
	layer("core.store_encode_s", "s", "lower"),
	layer("core.store_decode_s", "s", "lower"),
	exact("core.store_ratio", "ratio"),

	layer("parallel.comm_s", "s", "lower"),
	layer("parallel.merge_s", "s", "lower"),
	exact("cluster.bytes", "B"),
	exact("cluster.wire_bytes", "B"),
	exact("cluster.messages", "count"),
	layer("cluster.allgather_mb_per_s", "MB/s", "higher"),

	exact("dnc.classes", "count"),
	exact("dnc.candidates", "count"),
	exact("dnc.peak_node_bytes", "B"),
	layer("dnc.candidate_ratio", "ratio", "lower"),
	layer("dnc.class_wall_max_s", "s", "lower"),
	layer("dnc.class_wall_sum_s", "s", "lower"),

	exact("distrib.remote_classes", "count"),
	exact("distrib.requeues", "count"),
	exact("distrib.payload_bytes", "B"),
	layer("distrib.wire_bytes", "B", "lower"),
	layer("distrib.wire_bytes_per_class", "B", "lower"),
	layer("distrib.steals", "count", "lower"),
	layer("distrib.dispatch_overhead_s", "s", "lower"),

	exact("revsearch.bases", "count"),
	exact("revsearch.pivots", "count"),
	exact("revsearch.vertices", "count"),
	exact("revsearch.max_depth", "count"),
	layer("revsearch.bases_per_s", "1/s", "higher"),
	layer("revsearch.pivots_per_s", "1/s", "higher"),
	layer("revsearch.bases_per_mode", "ratio", "lower"),

	exact("lp.pivots", "count"),
	exact("lp.phase1_pivots", "count"),
	exact("ondemand.bases", "count"),
	exact("ondemand.enqueued", "count"),
	exact("ondemand.duplicates", "count"),
	exact("ondemand.verify_rejects", "count"),
	layer("lp.pivots_per_s", "1/s", "higher"),
	layer("lp.pivot_ns", "ns", "lower"),
	layer("ondemand.bases_per_mode", "ratio", "lower"),

	layer("jobs.queue_wait_p50_s", "s", "lower"),
	layer("jobs.run_p50_s", "s", "lower"),
	exact("jobs.runs_started", "count"),
	exact("jobs.cache_hits", "count"),
	exact("jobs.prefix_hits", "count"),
	exact("jobs.coalesced", "count"),
	layer("jobs.hit_ratio", "ratio", "higher"),

	layer("server.submit_p50_s", "s", "lower"),
	layer("server.result_p50_s", "s", "lower"),
	layer("server.result_bytes", "B", "lower"),
	layer("server.result_mb_per_s", "MB/s", "higher"),
	layer("server.first_mode_event_s", "s", "lower"),

	layer("bench.speed_factor", "ratio", "lower"),
	layer("bench.trace_overhead_frac", "ratio", "lower"),
	layer("bench.failed_frac", "ratio", "lower"),
}

// compareBounds are the bounds -compare applies to the client metrics,
// which have none in BENCHMARK.json (the issue's stated bounds).
var compareBounds = map[string]float64{
	"client.first_mode_s":   0.20,
	"client.job_cold_p50_s": 0.15,
	"client.job_cold_p75_s": 0.15,
	"client.job_hit_p50_s":  0.15,
	"client.job_hit_p90_s":  0.25,
	"client.jobs_per_s":     0.10,
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
