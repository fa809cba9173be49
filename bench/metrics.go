package main

// The metric catalogue. BENCHMARK.json states the same names, units,
// directions and bounds for the driver; bench_test.go holds the two together.

type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "op_p50_us", unit: "us", bound: 0.25},
	{name: "read_p50_us", unit: "us", bound: 0.25},
	{name: "write_p50_us", unit: "us", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
}

// infoMetrics are measured, printed and recorded beside the end-to-end
// metrics, but no bound holds them: BENCHMARK.json and the result line leave
// them out. Runs of one build spread each past the largest bound a metric may
// have, and what moved them was the host (README.md, "End-to-end metrics").
var infoMetrics = []metricDef{
	{name: "op_p99_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
}

var layerMetrics = []metricDef{
	{name: "pmem.pwbs_per_op", unit: "1/op"},
	{name: "pmem.pfences_per_op", unit: "1/op"},
	{name: "pmem.psyncs_per_op", unit: "1/op"},
	{name: "pmem.ops_per_psync", unit: "ops", higher: true},
	{name: "pmem.charged_us_per_op", unit: "us"},
	{name: "pmem.pwb_ns", unit: "ns"},
	{name: "pmem.pfence_ns", unit: "ns"},
	{name: "pmem.psync_ns", unit: "ns"},
	{name: "pmem.file_pwb_ns", unit: "ns"},
	{name: "pmem.file_psync_ns", unit: "ns"},
	{name: "pmem.file_fence_psync_us", unit: "us"},
	{name: "core.pb_invoke_ns", unit: "ns"},
	{name: "core.pwf_invoke_ns", unit: "ns"},
	{name: "core.pb_vec16_ns_per_op", unit: "ns"},
	{name: "core.pwf_vec16_ns_per_op", unit: "ns"},
	{name: "pool.alloc_free_ns", unit: "ns"},
	{name: "queue.pair_ns_1t", unit: "ns"},
	{name: "hashmap.put_ns_1t", unit: "ns"},
	{name: "hashmap.get_ns_1t", unit: "ns"},
	{name: "hashmap.vec16_ns_per_op", unit: "ns"},
	{name: "vecbatch.submit_flush16_ns", unit: "ns"},
	{name: "fabric.get_ns_1t", unit: "ns"},
	{name: "fabric.add_ns_1t", unit: "ns"},
	{name: "fabric.transfer_ns_1t", unit: "ns"},
	{name: "fabric.flat_get_ns_1t", unit: "ns"},
	{name: "fabric.hop_ns", unit: "ns"},
	{name: "fabric.get_p50_us", unit: "us"},
	{name: "fabric.add_p50_us", unit: "us"},
	{name: "fabric.transfer_p50_us", unit: "us"},
	{name: "server.resp_parse_ns", unit: "ns"},
	{name: "server.window_ops_mean", unit: "ops", higher: true},
	{name: "server.store_stage_ns", unit: "ns"},
	{name: "server.store_flush_us", unit: "us"},
	{name: "server.flushes_per_op", unit: "1/op"},
	{name: "server.residual_us", unit: "us"},
	{name: "pcomb.reopen_ms", unit: "ms"},
	{name: "trace.overhead_share", unit: "ratio"},
}

// workloadDef binds a workload's name to its operation classes and to the
// function that generates its inputs and returns its set-up.
type workloadDef struct {
	name    string
	classes []class
	prepare func(trialCfg) func() (instance, error)
}

var workloads = []workloadDef{
	{"queue_pairs", pairsClasses, preparePairs},
	{"fabric_bank", bankClasses, prepareBank},
	{"srv_pipelined", srvClasses, prepareSrv},
	{"srv_interactive", srvClasses, prepareSrv},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
