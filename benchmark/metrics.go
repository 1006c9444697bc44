package main

import "repro/internal/trace"

// metricDef names one reported metric. Bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression (and
// by which two runs of the same code may differ); per-layer metrics carry
// none. The lists below are the single source of the names: BENCHMARK.json
// repeats them and a test holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// failedShare is reported with the end-to-end table (bound: 0, absolute)
// but listed in BENCHMARK.json's per_layer set: the driver's contract
// refuses end-to-end metrics whose value is 0, and on a healthy run this
// one always is. Failures reach the driver through attempted/failed/correct.
const failedShare = "failed_share"

var failedShareDef = metricDef{failedShare, "ratio", "lower", 0}

// The four timings carry the contract's widest bound because this kind of
// host changes speed by 10-20% for minutes at a time with no steal logged
// (README, "Steadiness"); the counts do not depend on the host's speed.
var endToEndDefs = []metricDef{
	{"election_p50_ms", "ms", "lower", 0.25},
	{"election_p95_ms", "ms", "lower", 0.25},
	{"elections_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_election", "ms", "lower", 0.25},
	{"allocs_per_election", "count", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"msgs_per_election", "count", "lower", 0.10},
	{"wire_bytes_per_election", "bytes", "lower", 0.15},
	{"comm_calls_per_election", "count", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// counterDefs are the per-layer metrics read around every workload run from
// the packages' exported counters and from live.Result.
var counterDefs = []metricDef{
	{"benchmark.generator_lag_p95_ms", "ms", "lower", 0},
	{"core.rounds_per_election", "count", "lower", 0},
	{"electd.msgs_per_frame", "ratio", "higher", 0},
	{"electd.served_per_election", "count", "lower", 0},
	{"wire.bytes_per_msg", "bytes", "lower", 0},
	{"transport.frames_per_election", "count", "lower", 0},
	{"transport.bytes_per_election", "bytes", "lower", 0},
	{"transport.batch_fill", "ratio", "higher", 0},
	{"transport.framing_overhead", "ratio", "lower", 0},
}

// ladderDefs are the per-layer metrics of the ladder: each rung times or
// counts calls into one package's exported functions, workload-independent.
var ladderDefs = []metricDef{
	{"core.rounds_ratio.k4", "ratio", "lower", 0},
	{"core.msgs_ratio.k4", "ratio", "lower", 0},
	{"core.tournament_calls_ratio", "ratio", "higher", 0},
	{"core.sim_comm_calls.poisonpill", "count", "lower", 0},
	{"core.sim_msgs.poisonpill", "count", "lower", 0},
	{"baseline.sim_comm_calls.tournament", "count", "lower", 0},
	{"renaming.sim_comm_calls", "count", "lower", 0},
	{"live.us_per_comm_call", "us", "lower", 0},
	{"live.pool_cycle_ns", "ns", "lower", 0},
	{"live.allocs_per_msg", "count", "lower", 0},
	{"electd.propagate_us.tcp", "us", "lower", 0},
	{"electd.propagate_us.udp", "us", "lower", 0},
	{"electd.collect_us.tcp", "us", "lower", 0},
	{"electd.collect_us.udp", "us", "lower", 0},
	{"electd.rpc_allocs.tcp", "count", "lower", 0},
	{"electd.rpc_allocs.udp", "count", "lower", 0},
	{"electd.handle_ns.propagate", "ns", "lower", 0},
	{"electd.handle_ns.collect", "ns", "lower", 0},
	{"electd.udp_msg_overhead", "ratio", "lower", 0},
	{"wire.append_ns.propagate", "ns", "lower", 0},
	{"wire.append_ns.collect_reply32", "ns", "lower", 0},
	{"wire.decode_ns.propagate", "ns", "lower", 0},
	{"wire.decode_ns.collect_reply32", "ns", "lower", 0},
	{"wire.allocs_per_decode", "count", "lower", 0},
	{"transport.rtt_us.loopback", "us", "lower", 0},
	{"transport.rtt_us.tcp", "us", "lower", 0},
	{"transport.rtt_us.udp", "us", "lower", 0},
	{"transport.fanout32_us.tcp", "us", "lower", 0},
	{"transport.fanout32_us.udp", "us", "lower", 0},
	{"transport.allocs_per_msg.tcp", "count", "lower", 0},
	{"transport.allocs_per_msg.udp", "count", "lower", 0},
}

// traceDefs are the per-layer metrics of the traced run: one share per
// phase of internal/trace, plus how much of the measured latency the spans
// cover, how many the ring evicted and what recording cost.
func traceDefs() []metricDef {
	var defs []metricDef
	for _, p := range trace.Phases() {
		defs = append(defs, metricDef{"trace.share." + p.String(), "ratio", "lower", 0})
	}
	return append(defs,
		metricDef{"trace.coverage", "ratio", "higher", 0},
		metricDef{"trace.dropped", "count", "lower", 0},
		metricDef{"trace.overhead_p50", "ratio", "lower", 0},
	)
}

// perLayerDefs is every per-layer metric a -trace 1 run reports.
func perLayerDefs() []metricDef {
	defs := append([]metricDef{failedShareDef}, counterDefs...)
	defs = append(defs, ladderDefs...)
	return append(defs, traceDefs()...)
}
