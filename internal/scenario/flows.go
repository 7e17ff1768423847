// Flow-telemetry surfacing: the fabric-wide flow scrape, the top-K
// talkers ranking, the substrate→flow drop-reason mapping and the
// default alert-rule catalogue every world starts with.
package scenario

import (
	"wavnet/internal/core"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// flowDropReason maps a substrate drop reason onto the flow table's
// classification, so the network's drop hook can charge wire fates
// back to the overlay flows the lost packet carried.
func flowDropReason(r netsim.DropReason) obs.FlowDropReason {
	switch r {
	case netsim.DropNoRoute:
		return obs.FlowDropNoRoute
	case netsim.DropQueue:
		return obs.FlowDropQueue
	case netsim.DropWANLoss:
		return obs.FlowDropWANLoss
	default:
		return obs.FlowDropPartition
	}
}

// DefaultAlertRules is the catalogue every Build starts the world's
// alert engine with: rate rules need two scrapes before they can fire,
// so experiments that scrape on a cadence get the full lifecycle for
// free and one-shot scrapers just see them inactive.
func DefaultAlertRules() []obs.AlertRule {
	return []obs.AlertRule{
		{
			// A tenant is being throttled hard: sender-side metering is
			// rejecting a sustained stream of frames.
			Name:   "tenant-quota-throttled",
			Metric: "quota_drops", Rate: true,
			Threshold: 5, For: 2 * sim.Second,
		},
		{
			// The wire is eating frames on a severed path — fires while a
			// partition starves live traffic, resolves after the heal.
			Name:   "partition-frame-loss",
			Metric: "flow_drops.partition", Rate: true,
			Threshold: 0, For: 3 * sim.Second,
		},
		{
			// A health-probed service backend was just withdrawn.
			Name:   "vip-backend-withdrawn",
			Metric: "service.*.withdrawals", Rate: true,
			Threshold: 0,
		},
		{
			// Hosts are re-homing onto surviving brokers (a broker died or
			// went unreachable); resolves when the wave settles.
			Name:   "broker-rehome",
			Metric: "rehomes", Rate: true,
			Threshold: 0,
		},
		{
			// Re-home attempts are failing — no broker of the declared set
			// is answering.
			Name:   "broker-rehome-failing",
			Metric: "rehome_failures", Rate: true,
			Threshold: 0,
		},
		{
			// Egress batches are far beyond the configured cap's intent:
			// either misconfiguration or a pathological traffic shape.
			Name:   "batch-p99-oversize",
			Metric: "batch_frames", Quantile: 0.99,
			Threshold: 64,
		},
	}
}

// flowLabels files one flow's series: the accounting host and its
// broker, with tenant and net resolved from the flow's own VNI (a host
// can carry segments of several networks, so the host's primary
// network would mislabel foreign-segment flows).
func (w *World) flowLabels(host string, vni uint32) obs.Labels {
	l := obs.Labels{Host: host, Broker: w.HomeBroker(host)}
	if vni != 0 && w.vpcMgr != nil {
		if n, ok := w.vpcMgr.ByVNI(vni); ok {
			l.Tenant, l.Net = n.Tenant, n.Name
		}
	}
	return l
}

// addFlowSeries folds one flow's totals into the registry under l.
func addFlowSeries(r *obs.Registry, l obs.Labels, bytes, frames uint64, drops *[obs.FlowDropReasons]uint64) {
	r.Counter("flow.bytes", l).Add(bytes)
	r.Counter("flow.frames", l).Add(frames)
	for reason, n := range drops {
		if n > 0 {
			r.Counter(flowDropSeries[reason], l).Add(n)
		}
	}
}

// flowDropSeries names the per-reason flow drop counters.
var flowDropSeries = obs.FlowDropNames("flow.drops.")

// FlowScrape aggregates flow accounting fabric-wide into one labeled
// registry: every joined host's live flow table plus the shared flow
// log's closed records, each flow filed under {tenant, net, broker,
// host} by its own VNI. The two sides are disjoint by construction —
// eviction removes a flow from the table as its record enters the log
// — so summing them counts each frame once per accounting host. Like
// Scrape it overwrites a standing registry, walks the tables and the
// log in place and returns an immutable snapshot.
func (w *World) FlowScrape() *obs.Registry {
	if w.flowReg == nil {
		w.flowReg = obs.NewRegistry()
	}
	r := w.flowReg
	r.Reset()
	w.flowScrapeInto(r)
	return r.Snapshot()
}

// flowScrapeInto adds the flow series to r.
func (w *World) flowScrapeInto(r *obs.Registry) {
	for _, m := range w.Machines {
		if m.WAV == nil {
			continue
		}
		active := 0
		m.WAV.Flows().Each(func(st core.FlowStat) {
			active++
			addFlowSeries(r, w.flowLabels(m.Key, st.Key.VNI), st.Bytes, st.Frames, &st.Drops)
		})
		r.Gauge("flow.active", obs.Labels{Host: m.Key, Broker: w.HomeBroker(m.Key)}).
			Set(float64(active))
	}
	w.FlowLog.Each(func(rec obs.FlowRecord) {
		l := w.flowLabels(rec.Host, rec.VNI)
		addFlowSeries(r, l, rec.Bytes, rec.Frames, &rec.Drops)
		r.Counter("flow.closed_records", l).Inc()
	})
}

// TopTalkers ranks the k heaviest flows of a network by byte weight,
// over everything the fabric has accounted: live flow tables plus the
// flow log, funneled through a count-min + heap sketch so the answer
// stays bounded regardless of flow-table sizes. The empty network name
// ranks the default virtual LAN (VNI 0). A flow forwarded end to end
// is accounted on both its sender and receiver, which doubles its
// weight uniformly and leaves the ranking unchanged.
func (w *World) TopTalkers(network string, k int) []obs.Talker {
	vni := uint32(0)
	if network != "" {
		n, ok := w.VPC().Get(network)
		if !ok {
			return nil
		}
		vni = n.VNI
	}
	t := obs.NewTopK(k)
	for _, m := range w.Machines {
		if m.WAV == nil {
			continue
		}
		m.WAV.Flows().Each(func(st core.FlowStat) {
			if st.Key.VNI == vni {
				rec := st.Record(m.Key)
				t.Offer(rec.Key(), rec.Bytes)
			}
		})
	}
	w.FlowLog.Each(func(rec obs.FlowRecord) {
		if rec.VNI == vni {
			t.Offer(rec.Key(), rec.Bytes)
		}
	})
	return t.Top()
}
