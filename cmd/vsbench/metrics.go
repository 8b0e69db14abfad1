package main

// metricDef names one reported metric and its unit. The two tables
// below must match BENCHMARK.json at the repository root; the smoke
// test enforces it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mib", "MiB"},
	{"trials_per_s", "1/s"},
	{"campaign_s", "s"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload bypasses reads 0 (see README.md for which
// workload moves which metric).
var perLayer = []metricDef{
	{"virat.generate_s", "s"},
	{"vs.golden_s", "s"},
	{"vs.golden_stage_s.decode", "s"},
	{"vs.golden_stage_s.features", "s"},
	{"vs.golden_stage_s.align", "s"},
	{"vs.golden_stage_s.pair", "s"},
	{"vs.golden_stage_s.composite", "s"},
	{"vs.resume_busy_s", "s"},
	{"vs.resume_p50_us", "us"},
	{"vs.resume_p99_us", "us"},
	{"vs.suffix_stage_s.features", "s"},
	{"vs.suffix_stage_s.align", "s"},
	{"vs.suffix_stage_s.pair", "s"},
	{"vs.suffix_stage_s.composite", "s"},
	{"vs.full_runs", "count"},
	{"vs.prepare_calls", "count"},
	{"vs.prepare_s", "s"},
	{"vs.state_equal_s", "s"},
	{"vs.boundaries_per_trial", "count"},
	{"probe.tap_overhead_ratio", "ratio"},
	{"fault.overhead_us_per_trial", "us"},
	{"fault.early_mask_ratio", "ratio"},
	{"fault.converged_ratio", "ratio"},
	{"fault.restores_saved_ratio", "ratio"},
	{"fault.buckets", "count"},
	{"fault.prep_hit_ratio", "ratio"},
	{"fault.outcome_mask", "count"},
	{"fault.outcome_sdc", "count"},
	{"fault.outcome_crash", "count"},
	{"fault.outcome_hang", "count"},
	{"plan.next_us_per_round", "us"},
	{"plan.observe_us_per_round", "us"},
	{"plan.rounds", "count"},
	{"plan.trials_per_round", "count"},
	{"campaign.round_p50_ms", "ms"},
	{"campaign.replay_trials_per_s", "1/s"},
	{"campaign.driver_gap_ratio", "ratio"},
	{"service.queue_wait_p50_s", "s"},
	{"service.queue_wait_p90_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.job_p50_s.light", "s"},
	{"service.job_p90_s.light", "s"},
	{"service.job_p50_s.heavy", "s"},
	{"service.job_p90_s.heavy", "s"},
	{"service.jobs.light", "count"},
	{"service.jobs.heavy", "count"},
	{"service.submit_rtt_p50_ms", "ms"},
	{"service.status_rtt_p50_ms", "ms"},
	{"service.journal_bytes_per_trial", "B"},
	{"service.golden_hit_ratio", "ratio"},
	{"service.generator_late_ms_max", "ms"},
	{"fabric.lease_rtt_p50_ms", "ms"},
	{"fabric.complete_rtt_p50_ms", "ms"},
	{"fabric.heartbeats", "count"},
	{"fabric.empty_polls", "count"},
	{"fabric.worker_idle_ratio", "ratio"},
	{"fabric.finalize_s", "s"},
	{"fabric.leases_per_shard", "ratio"},
	{"fabric.dup_results", "count"},
	{"fabric.journal_bytes", "B"},
	{"fabric.build_s", "s"},
	{"host.nop_pipeline_ms.before", "ms"},
	{"host.nop_pipeline_ms.after", "ms"},
	{"host.steal_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
