package main

// layerUnits lists every per-layer metric a traced run reports, with its
// unit, in the order of BENCHMARK.json. A layer the workload never runs
// reads 0.
var layerUnits = []struct{ name, unit string }{
	{"ppo.update_s", "s"},
	{"ppo.updates", "count"},
	{"ppo.act_us", "us"},
	{"ppo.update_replay_s", "s"},
	{"explore.rollout_s", "s"},
	{"explore.oracle_wall_s", "s"},
	{"explore.oracle_calls", "count"},
	{"explore.cache_hit_ratio", "fraction"},
	{"evaluate.assess_busy_s", "s"},
	{"fault.collect_busy_s", "s"},
	{"abstraction.harvest_s", "s"},
	{"sweep.shard_busy_s", "s"},
	{"fault.collect_ns_per_trace", "ns"},
	{"fault.draw_ns_per_trace", "ns"},
	{"ciphers.kernel_ns_per_trace", "ns"},
	{"stats.accumulate_ns_per_trace", "ns"},
	{"stats.ttest_us_per_cell", "us"},
	{"checkpoint.bytes_written", "bytes"},
	{"checkpoint.write_amplification", "ratio"},
	{"server.startup_s", "s"},
	{"server.submit_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.settle_ms", "ms"},
	{"server.run_ms.assess-welch", "ms"},
	{"server.run_ms.assess-sifa", "ms"},
	{"server.run_ms.assess-protected", "ms"},
	{"server.run_ms.sweep", "ms"},
	{"server.get_ms", "ms"},
	{"server.delete_ms", "ms"},
	{"server.stats_ms", "ms"},
	{"server.metrics_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"checkpoint.bytes_per_job", "bytes"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"unattributed_ratio", "ratio"},
}

// layerMetrics turns a workload's layer figures into the full per-layer
// metric set.
func layerMetrics(lm map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{lm[l.name], l.unit}
	}
	return out
}
