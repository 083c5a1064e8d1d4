package main

// metricDef names one reported metric and its unit. The lists must match
// the end_to_end and per_layer entries of BENCHMARK.json; the self-test
// checks that they do.
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics are printed by untraced runs of every workload. What an
// "operation" and a "pass" are depends on the workload; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_mean_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics are printed by traced runs of every workload; a layer
// the workload never calls reports 0.
var perLayer = []metricDef{
	{"core.stage.sym_s", "s"},
	{"core.stage.updateprob_s", "s"},
	{"core.stage.merge_s", "s"},
	{"core.stage.sample_s", "s"},
	{"core.stage.telescope_s", "s"},
	{"core.iterations", "count"},
	{"core.paths", "count"},
	{"mc.queries", "count"},
	{"mc.cache_hit_ratio", "ratio"},
	{"mc.cold_count_us", "us"},
	{"mc.warm_count_us", "us"},
	{"mc.weighted_count_us", "us"},
	{"mc.uniform_count_us", "us"},
	{"mc.fallback_ratio", "ratio"},
	{"sym.step_s", "s"},
	{"sym.forks", "count"},
	{"sym.step_us_per_fork", "us"},
	{"sym.merge_s", "s"},
	{"solver.feasible_us", "us"},
	{"solver.solve_us", "us"},
	{"solver.builds", "count"},
	{"greybox.hash_update_ns", "ns"},
	{"greybox.bloom_insert_ns", "ns"},
	{"greybox.sketch_update_ns", "ns"},
	{"trace.oracle_queries", "count"},
	{"trace.oracle_s", "s"},
	{"trace.generate_s", "s"},
	{"dut.process_ns", "ns"},
	{"dut.allocs_per_pkt", "count"},
	{"dut.replay_s", "s"},
	{"dut.replay_pps", "1/s"},
	{"testgen.generate_s", "s"},
	{"testgen.validated_ratio", "ratio"},
	{"testgen.symbex_s", "s"},
	{"testgen.solver_s", "s"},
	{"testgen.havoc_s", "s"},
	{"p4c.parse_ms", "ms"},
	{"analysis.lint_ms", "ms"},
	{"par.utilization", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.result_get_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.store_put_us", "us"},
	{"serve.store_get_us", "us"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.refused", "count"},
	{"serve.cached_p50_ms", "ms"},
	{"serve.cached_p90_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.batch_jobs_per_s", "1/s"},
	{"cluster.hop_fresh_ms", "ms"},
	{"cluster.hop_cached_ms", "ms"},
	{"self.core_s", "s"},
	{"self.mc_s", "s"},
	{"self.sym_s", "s"},
	{"self.solver_s", "s"},
	{"self.greybox_s", "s"},
	{"self.trace_s", "s"},
	{"self.dut_s", "s"},
	{"self.testgen_s", "s"},
	{"self.p4c_s", "s"},
	{"self.analysis_s", "s"},
	{"self.serve_s", "s"},
	{"self.cluster_s", "s"},
	{"self.bench_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.spans", "count"},
	{"bench.failed_frac", "ratio"},
}
