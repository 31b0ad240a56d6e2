package main

// metricDef names one declared metric. The two lists below are the
// ones in BENCHMARK.json; a test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported on every
// workload with -trace 0. An operation is one simulated (benchmark,
// configuration) run on sim_*, one job on serve_*, one Pool.Run on
// rpc_pool.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"host_alloc_mb", "MB"},
}

// perLayer is reported with -trace 1. "virt" units are simulated time,
// exact for a seed; everything else is host time or a count. A metric
// whose layer the workload does not touch reads 0.
var perLayer = []metricDef{
	// The operation's tail latency, from the untraced reference passes.
	// It is not end-to-end because on a shared 2-vCPU host it does not
	// repeat: a co-tenant's burst lands on the tail first (README.md,
	// "Steadiness").
	{"op_p95_ms", "ms"},

	// The modelled system's own results, per workload.
	{"sim_virt_s", "virt_s"},
	{"hetprobe_speedup_x", "x"},
	{"serve_virt_s", "virt_s"},
	{"serve_wait_p95_ms", "ms"},

	{"simtime.switch_ns", "ns"},
	{"simtime.advance_fast_ns", "ns"},
	{"simtime.barrier_ns_per_party.p112", "ns"},
	{"simtime.resource_use_ns", "ns"},

	{"perf.llc_access_hit_ns", "ns"},
	{"perf.llc_access_miss_ns", "ns"},
	{"perf.sampled_range_ns_per_kb", "ns"},
	{"perf.llc_accesses", "count"},
	{"perf.llc_miss_ratio", "ratio"},

	{"interconnect.page_fault_ns", "ns"},
	{"interconnect.control_msg_ns", "ns"},
	{"interconnect.fault_virt_s", "virt_s"},

	{"dsm.access_hit_ns_per_page", "ns"},
	{"dsm.read_fault_ns", "ns"},
	{"dsm.write_fault_ns", "ns"},
	{"dsm.batched_fault_ns_per_page", "ns"},
	{"dsm.access_pages_ns_per_page", "ns"},
	{"dsm.read_faults", "count"},
	{"dsm.write_faults", "count"},
	{"dsm.invalidations", "count"},
	{"dsm.bytes_in_mb", "MB"},
	{"dsm.stall_virt_s", "virt_s"},

	{"cluster.new_sim_us", "us"},
	{"cluster.load_ns_per_kb", "ns"},
	{"cluster.loadat_ns_per_offset", "ns"},
	{"cluster.spawn_join_us.p112", "us"},
	{"cluster.new_sim_s", "s"},

	{"core.fork_join_us.p16", "us"},
	{"core.fork_join_us.p112", "us"},
	{"core.dynamic_chunk_ns", "ns"},
	{"core.hetprobe_cold_region_us", "us"},
	{"core.run_s", "s"},
	{"core.regions", "count"},
	{"core.probes", "count"},
	{"core.predictions", "count"},
	{"core.redecisions", "count"},
	{"core.cross_node_decisions", "count"},

	{"kernels.new_s", "s"},
	{"kernels.verify_s", "s"},

	{"experiments.threshold_ms", "ms"},
	{"experiments.self_s", "s"},

	{"decstore.lookup_ns", "ns"},
	{"decstore.put_ns", "ns"},
	{"decstore.save_ms.n10", "ms"},
	{"decstore.save_ms.n10k", "ms"},
	{"decstore.open_ms.n10k", "ms"},
	{"decstore.save_s", "s"},

	{"apportion.split_ns.w3", "ns"},

	{"server.submit_us", "us"},
	{"server.dispatch_us.t1", "us"},
	{"server.dispatch_us.t16", "us"},
	{"server.dispatch_us.t256", "us"},
	{"server.execute_ms.warm", "ms"},
	{"server.execute_ms.cold", "ms"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.cross_tenant_warm", "count"},
	{"server.rehomed", "count"},
	{"server.reprobes", "count"},
	{"server.churn_applied", "count"},
	{"server.budget_windows", "count"},
	{"server.executor_busy_s", "s"},
	{"server.sched_self_s", "s"},
	{"server.service_p99_ms", "ms"},

	{"rpc.dial_us", "us"},
	{"rpc.call_rtt_us", "us"},
	{"rpc.run_p99_us", "us"},
	{"rpc.run_p999_us", "us"},
	{"rpc.retries", "count"},
	{"rpc.redistributed", "count"},
	{"rpc.worker_busy_s", "s"},
	{"rpc.pool_self_s", "s"},

	{"telemetry.emit_ns", "ns"},
	{"telemetry.counter_add_ns", "ns"},

	{"bench.trace_overhead_frac", "ratio"},
	{"bench.generator_goroutines", "count"},
	{"bench.goroutines_leaked", "count"},
	{"bench.child_processes_at_exit", "count"},
	{"bench.wall_total_s", "s"},
}
