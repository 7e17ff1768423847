package main

import "sort"

// metricDef declares one metric: what BENCHMARK.json says about it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the simulator, or of the WAVNet it
// models, would see. Host-clock metrics say what the Go simulator costs;
// sim_* metrics say what the modelled system delivers in virtual time
// and repeat exactly for one seed. The bounds are set from the spread of
// ten runs with ten seeds on the two-core box this was written on: wall_s
// moves by up to a tenth from run to run there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"sim_setup_s", "s", "lower", 0.02},
	{"sim_ops_per_s", "1/s", "higher", 0.02},
	{"sim_lat_p50_ms", "ms", "lower", 0.02},
	{"sim_lat_tail_ms", "ms", "lower", 0.10},
}

func (r *rep) endToEndValue(name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "wall_s":
		return r.WallS
	case "alloc_mb":
		return r.AllocMB
	case "allocs_per_op":
		return r.AllocsPerOp
	case "live_heap_mb":
		return r.LiveHeapMB
	case "sim_setup_s":
		return r.SimSetupS
	case "sim_ops_per_s":
		return r.SimOpsPerS()
	case "sim_lat_p50_ms":
		return r.LatP50Ms
	case "sim_lat_tail_ms":
		return r.LatTailMs
	}
	panic("unknown end-to-end metric " + name)
}

// countMetrics are exact per seed: public counters of each layer over
// the measured phase of the traced rep.
var countMetrics = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower"},
	{Name: "netsim.packets", Unit: "count", Better: "lower"},
	{Name: "netsim.packets_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_drops", Unit: "count", Better: "lower"},
	{Name: "netsim.wan_lost", Unit: "count", Better: "lower"},
	{Name: "netsim.uplink_backlog_max_bytes", Unit: "bytes", Better: "lower"},
	{Name: "nat.translated", Unit: "count", Better: "lower"},
	{Name: "nat.filtered_drops", Unit: "count", Better: "lower"},
	{Name: "ipstack.segs_out", Unit: "count", Better: "lower"},
	{Name: "ipstack.retransmits", Unit: "count", Better: "lower"},
	{Name: "ipstack.timeouts", Unit: "count", Better: "lower"},
	{Name: "ipstack.dup_acks", Unit: "count", Better: "lower"},
	{Name: "ipstack.frames_out", Unit: "count", Better: "lower"},
	{Name: "ether.bridge_forwarded", Unit: "count", Better: "lower"},
	{Name: "ether.bridge_flooded", Unit: "count", Better: "lower"},
	{Name: "core.frames_sent", Unit: "count", Better: "lower"},
	{Name: "core.batch_flushes", Unit: "count", Better: "lower"},
	{Name: "core.frames_per_batch", Unit: "count", Better: "higher"},
	{Name: "core.flooded_frames", Unit: "count", Better: "lower"},
	{Name: "core.relayed_tunnels", Unit: "count", Better: "lower"},
	{Name: "core.flow_overflows", Unit: "count", Better: "lower"},
	{Name: "rendezvous.lookups", Unit: "count", Better: "lower"},
	{Name: "rendezvous.relay_frames", Unit: "count", Better: "lower"},
	{Name: "rendezvous.replications_out", Unit: "count", Better: "lower"},
	{Name: "rendezvous.pulses", Unit: "count", Better: "lower"},
	{Name: "vpc.apply_actions", Unit: "count", Better: "lower"},
	{Name: "obs.scrape_calls", Unit: "count", Better: "lower"},
	{Name: "obs.scrape_series", Unit: "count", Better: "lower"},
	{Name: "harness.sim_goodput_mbps", Unit: "Mbps", Better: "higher"},
	{Name: "harness.lat_samples", Unit: "count", Better: "higher"},
	{Name: "harness.lat_tail_percentile", Unit: "%", Better: "higher"},
	{Name: "harness.probe_lost", Unit: "count", Better: "lower"},
}

// traceMetrics come from the traced rep's spans, shims and profiles.
func traceMetrics() []metricDef {
	defs := []metricDef{
		{Name: "span.setup_build_s", Unit: "s", Better: "lower"},
		{Name: "span.setup_apply_s", Unit: "s", Better: "lower"},
		{Name: "span.measure_s", Unit: "s", Better: "lower"},
		{Name: "span.scrape_s", Unit: "s", Better: "lower"},
		{Name: "span.verify_s", Unit: "s", Better: "lower"},
		{Name: "ipstack.rx_ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "ether.tx_ns_per_frame", Unit: "ns", Better: "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: l + ".cpu_share", Unit: "share", Better: "lower"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{Name: l + ".alloc_share", Unit: "share", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "trace.cpu_samples", Unit: "count", Better: "higher"},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "harness.wall_nprocs_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "attribution.rig_coverage", Unit: "share", Better: "higher"},
	)
}

// perLayer is every per-layer metric a traced run prints, in print order.
func perLayer() []metricDef {
	defs := append([]metricDef{}, countMetrics...)
	defs = append(defs, rigMetrics...)
	return append(defs, traceMetrics()...)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
