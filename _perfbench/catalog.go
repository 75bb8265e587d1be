package main

// perLayerUnits is every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json's per_layer list must name exactly these (a test
// checks it).  A traced run reports all of them on every workload: a layer
// the workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	// Every workload.
	"failed_frac":              "ratio",
	"trace.untraced_ops_per_s": "1/s",
	"trace.traced_ops_per_s":   "1/s",
	"trace.overhead_frac":      "ratio",
	"trace.spans":              "count",
	"rss_peak_mb":              "MB",

	// fuzz and campaign: fuzz-sweep.
	"fuzz.generate_s":       "s",
	"fuzz.derive_s":         "s",
	"fuzz.exec_s":           "s",
	"fuzz.banker_diff_s":    "s",
	"fuzz.lint_check_s":     "s",
	"fuzz.other_s":          "s",
	"fuzz.banker_decisions": "count",
	"fuzz.oracle_checked":   "count",
	"fuzz.lint_checked":     "count",
	"fuzz.deadlocked":       "count",
	"fuzz.mismatches":       "count",
	"campaign.busy_frac":    "ratio",

	// analysis/framework and analysis/passes: lint-module.
	"framework.load_s":     "s",
	"framework.load_pkgs":  "count",
	"passes.lockorder_s":   "s",
	"passes.lockpair_s":    "s",
	"passes.claims_s":      "s",
	"passes.ceiling_s":     "s",
	"passes.memlife_s":     "s",
	"passes.determinism_s": "s",
	"passes.tracekind_s":   "s",
	"passes.ipc_s":         "s",
	"passes.blocking_s":    "s",
	"passes.races_s":       "s",
	"lint.findings":        "count",

	// sim, rtos, soclc, socdmmu and fault: chaos-soc.
	"chaos.rtos5_seeds_per_s": "1/s",
	"chaos.rtos6_seeds_per_s": "1/s",
	"chaos.ring_seeds_per_s":  "1/s",
	"sim.mcycles_per_s":       "Mcycles/s",
	"sim.dispatch_ns":         "ns",
	"sim.dispatch_allocs":     "count",
	"sim.host_ns_per_bus_txn": "ns",
	"sim.end_cycles":          "cycles",
	"bus.transactions":        "count",
	"bus.words":               "count",
	"bus.stall_cycles":        "cycles",
	"bus.occupied_cycles":     "cycles",
	"kernel.service":          "count",
	"lock.acquire":            "count",
	"lock.handoff":            "count",
	"ipc.send":                "count",
	"ipc.recv":                "count",
	"chaos.faults_fired":      "count",
	"chaos.recoveries":        "count",

	// rag, pdda, ddu and daa: detect-stream.
	"detect.events_per_s":       "1/s",
	"avoid.events_per_s":        "1/s",
	"rag.mutate_ns_p50":         "ns",
	"pdda.detect_us_p50":        "us",
	"pdda.detect_us_p99":        "us",
	"pdda.iterations":           "count",
	"pdda.deadlocks":            "count",
	"ddu.detect_us_p50":         "us",
	"ddu.detect_us_p99":         "us",
	"ddu.detect_allocs":         "count",
	"ddu.steps":                 "count",
	"daa.avoid_request_us_p50":  "us",
	"daa.avoid_request_us_p99":  "us",
	"daa.avoid_release_us_p50":  "us",
	"daa.banker_request_us_p50": "us",
	"daa.banker_request_us_p99": "us",
	"daa.granted":               "count",
	"daa.pending":               "count",
	"daa.owner_asked":           "count",
	"daa.give_up":               "count",
	"daa.livelock":              "count",
	"daa.banker_refusals":       "count",
}
