// Package obs is the fabric-wide observability layer: a labeled
// metrics registry (counters, gauges, log-scale histograms) and a
// sim-time span tracer.
//
// The registry is the one export format: every subsystem keeps its
// statistics in plain fields and copies them into a Registry through
// one ScrapeInto method, under the {tenant, net, broker, host} label
// set its scraper (scenario.World.Scrape) hands it, so per-layer series
// survive aggregation. One snapshot / delta / merge API covers the
// whole registry, with a stable text and JSON render for experiment
// tables and the BENCH_* trajectory files.
//
// A scraper keeps one standing registry and overwrites it by pass
// (Registry.Reset): series are created once and zeroed in place, so a
// scrape allocates nothing per series, and Snapshot hands out an
// immutable copy that costs one value copy per series. The alert
// engine scores rate rules against per-series baselines of its own and
// keeps no registry; an Eval at the instant of the previous one leaves
// rate rules alone.
//
// The tracer records spans stamped with sim.Time and threaded by a
// causality (trace) ID through the fabric's multi-step flows — Apply
// reconciliation, punch orchestration, broker re-home elections,
// migration rounds — so chaos tests can assert on timelines ("the
// re-home closed within three pulse periods of the kill") instead of
// terminal counters alone. All span methods are nil-receiver safe:
// subsystems trace unconditionally and a nil *Trace disables it.
//
// Nothing here locks. A registry, trace, flow log or alert engine
// belongs to one world and, like the rest of it, is touched by one
// goroutine at a time (see package sim); a counter is a plain word and a
// histogram a plain value.
package obs

import "strings"

// Labels identifies one series: the four dimensions the fabric slices
// by. Empty fields are omitted from renders; the zero value labels a
// global series. Labels is comparable and used as a map key.
type Labels struct {
	Tenant string
	Net    string
	Broker string
	Host   string
}

// String renders the label set as {tenant=...,net=...,broker=...,host=...}
// with empty dimensions omitted ("" for the zero value).
func (l Labels) String() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("tenant", l.Tenant)
	add("net", l.Net)
	add("broker", l.Broker)
	add("host", l.Host)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
