package main

// metricDef names one metric of the catalogue. Every workload emits every
// end-to-end metric in an untraced run and every per-layer metric in a
// traced run; a workload that never enters a layer reports that layer's
// counts and shares as 0. Workload-specific numbers beyond the catalogue
// (such as mono_cold_s or cost_gap_pct) are recorded in the run record
// and the table, not in the summary line.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is the untraced catalogue. What "op" means per workload is
// documented in README.md: one observation-to-plan (daemon-paper), one
// Fig 7 sweep (game-fig7), one MPC period (continental-diurnal), one quiet
// MPC period (continental-static).
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"work_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced catalogue. Times are measured in every workload;
// the shares and counts of layers a workload does not enter read 0.
var perLayer = []metricDef{
	{"qp.solve_us_p50", "us"},
	{"op.qp_ms_mean", "ms"},
	{"op.self_ms_mean", "ms"},
	{"qp.solves_per_op", "count"},
	{"qp.iterations_per_solve", "count"},
	{"qp.warm_start_fraction", "ratio"},
	{"linalg.factorizations_per_solve", "count"},
	{"linalg.factor_reuse_ratio", "ratio"},
	{"linalg.rankk_updates_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"daemon.forecast_share_pct", "%"},
	{"daemon.between_periods_share_pct", "%"},
	{"daemon.queue_wait_share_pct", "%"},
	{"daemon.checkpoint_bytes", "B"},
	{"game.rounds_per_op", "count"},
	{"game.not_converged_per_op", "count"},
	{"decomp.rounds_per_op", "count"},
	{"decomp.shard_solves_per_op", "count"},
	{"decomp.solves_per_shard_round", "ratio"},
	{"decomp.fast_resolves_per_op", "count"},
	{"decomp.held_shards_per_op", "count"},
	{"decomp.coordination_overhead_pct", "%"},
	{"decomp.straggler_ratio_p50", "ratio"},
	{"core.attribution_share_pct", "%"},
}

// zeroLayers records 0 for every per-layer count, ratio and share a
// workload has not set: the layer did no work in it. Times are never
// filled in; a missing time is a measurement the run failed to take.
func zeroLayers(r *runRecord) {
	for _, d := range perLayer {
		switch d.Unit {
		case "us", "ms", "s":
			continue
		}
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit, 0)
		}
	}
}
