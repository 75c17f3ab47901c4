package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names and units (TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, measured untraced. Every workload
// reports all of them; the per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cycles_per_s", "cycles/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics of single layers, measured in the traced run.
// A workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	// Set-up: target design, assembler, daemon start.
	{"mcu.design_build_s", "s"},
	{"asm.assemble_s", "s"},
	{"service.start_s", "s"},
	// glift engine, timed from outside (spans around NewEngineOn and
	// RunContext, path spans from Options.Tracer).
	{"glift.engine_build_s_p50", "s"},
	{"glift.ns_per_cycle", "ns"},
	{"glift.path_s_p50", "s"},
	{"glift.path_s_p99", "s"},
	{"glift.between_paths_s", "s"},
	// glift exploration counts, per pass over the program set. They repeat
	// exactly; a change that only speeds the engine up leaves them alone.
	{"glift.cycles", "count"},
	{"glift.paths", "count"},
	{"glift.forks", "count"},
	{"glift.prunes", "count"},
	{"glift.merges", "count"},
	{"glift.table_states", "count"},
	{"glift.peak_table_bytes", "bytes"},
	{"glift.prune_ratio", "ratio"},
	{"glift.cycles_per_path", "cycles"},
	// Speculation pool, from the last Done=false Progress snapshot.
	{"spec.steals", "count"},
	{"spec.used", "count"},
	{"spec.wasted", "count"},
	{"spec.useful_ratio", "ratio"},
	// Go runtime.
	{"go.alloc_bytes_per_cycle", "bytes"},
	{"go.alloc_bytes_per_job", "bytes"},
	{"go.gc_cpu_share", "ratio"},
	{"go.heap_peak_mib", "MiB"},
	// gliftd stages, from the verdict event.
	{"service.queue_wait_s_p50", "s"},
	{"service.queue_wait_s_p90", "s"},
	{"service.engine_run_s_p50", "s"},
	{"service.engine_run_s_p90", "s"},
	{"service.persist_s_p50", "s"},
	{"service.persist_s_p90", "s"},
	// gliftd cache and transport.
	{"service.cache_hit_s_p50", "s"},
	{"service.cache_hit_s_p90", "s"},
	{"service.transport_s_p50", "s"},
	{"stream.events_per_job", "count"},
	{"stream.gap_events", "count"},
	// gliftd and store counts, from /metrics.json.
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.engine_runs", "count"},
	{"service.rejected", "count"},
	{"store.puts", "count"},
	{"store.bytes", "bytes"},
	{"input.repeat_share", "ratio"},
	// Repair loop, from round events and /metrics.json.
	{"repair.rounds_per_job", "count"},
	{"repair.round_engine_s_p50", "s"},
	{"repair.masked_stores", "count"},
	// Fault campaigns on the bitsliced batch backend.
	{"fault.batch_s_p50", "s"},
	{"fault.lane_occupancy", "ratio"},
	{"fault.ns_per_lane_cycle", "ns"},
	// Tracing itself.
	{"trace.overhead_ratio", "ratio"},
}
