package main

// metricDef names one reported metric. End-to-end metrics come from the
// untraced run and are measured on every workload; per-layer metrics
// come from the traced run and read 0 on a workload that bypasses the
// layer (README.md maps each one to its layer and end-to-end metric).
type metricDef struct {
	name, unit string
	endToEnd   bool
}

var catalogue = []metricDef{
	{"setup_s", "s", true},
	{"regen_s", "s", true},
	{"rss_peak_mb", "MB", true},

	{"trace.overhead_frac", "frac", false},
	{"sim_mips", "Minst/s", false},
	{"ns_per_inst_p50", "ns/inst", false},
	{"ns_per_inst_p90", "ns/inst", false},
	{"regen_s_p90", "s", false},

	{"emu.record_ns_per_inst", "ns/inst", false},
	{"emu.insts_recorded", "count", false},
	{"emu.verify_ns_per_byte", "ns/byte", false},
	{"emu.verify_share", "frac", false},
	{"emu.decode_ns_per_inst", "ns/inst", false},
	{"emu.decode_share", "frac", false},

	{"ooo.engine_ns_per_inst", "ns/inst", false},
	{"ooo.engine_ns_per_inst.4W", "ns/inst", false},
	{"ooo.engine_ns_per_inst.4Wp", "ns/inst", false},
	{"ooo.engine_ns_per_inst.8Wp", "ns/inst", false},
	{"ooo.engine_ns_per_inst.DF", "ns/inst", false},
	{"ooo.sim_insts", "count", false},
	{"ooo.sim_cycles", "count", false},
	{"runtime.alloc_bytes_per_replay", "bytes", false},

	{"harness.overhead_share", "frac", false},
	{"harness.coverage", "frac", false},
	{"harness.record_s", "s", false},
	{"harness.hits", "count", false},
	{"harness.misses", "count", false},
	{"harness.evictions", "count", false},
	{"harness.resumes", "count", false},

	{"store.read_s", "s", false},
	{"store.read_bytes", "bytes", false},
	{"store.reads", "count", false},
	{"store.write_s", "s", false},
	{"store.write_bytes", "bytes", false},
	{"store.writes", "count", false},
	{"store.result_hits", "count", false},
	{"store.trace_hits", "count", false},

	{"experiments.sweep_s", "s", false},
	{"experiments.assemble_s", "s", false},
	{"experiments.cells", "count", false},
	{"experiments.cell_ms_p50", "ms", false},
	{"experiments.critical_cell_s", "s", false},
	{"experiments.idle_s", "s", false},

	{"pubkey.handshake_s", "s", false},

	{"runtime.alloc_mb", "MB", false},
	{"runtime.gc_cycles", "count", false},
	{"host.steal_frac", "frac", false},
}

// engineModel maps a machine configuration to the per-model engine
// metric suffix. Figure 5's single-bottleneck machines are dataflow
// machines with one limit restored, so they count under DF.
func engineModel(cfg string) string {
	switch cfg {
	case "4W":
		return "4W"
	case "4W+":
		return "4Wp"
	case "8W+":
		return "8Wp"
	}
	return "DF"
}
