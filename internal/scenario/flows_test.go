package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// TestWorldFlowScrapeAndTopTalkers brings a small mesh up, pushes ping
// traffic, and checks the flow surfacing end to end: the flow scrape
// carries per-host byte/frame series, the flow log fills on drain, and
// the top-talkers ranking surfaces the ICMP flow.
func TestWorldFlowScrapeAndTopTalkers(t *testing.T) {
	w, err := Build(71, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	src := w.M("pc00")
	dstVIP := w.M("pc01").VIP
	var pingErr error
	w.Eng.Spawn("traffic", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := src.Dom0().Ping(p, dstVIP, 256, time.Second); err != nil {
				pingErr = err
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	w.Eng.RunFor(10 * time.Second)
	if pingErr != nil {
		t.Fatalf("ping: %v", pingErr)
	}

	r := w.FlowScrape()
	l := obs.Labels{Host: "pc00", Broker: PrimaryBroker}
	if v, ok := r.CounterValue("flow.bytes", l); !ok || v == 0 {
		t.Fatalf("pc00 flow.bytes = %d (present=%v); scrape:\n%s", v, ok, r)
	}
	if g, ok := r.GaugeValue("flow.active", l); !ok || g == 0 {
		t.Fatalf("pc00 flow.active = %v (present=%v)", g, ok)
	}

	// The ICMP flow dominates the default LAN's talkers.
	talkers := w.TopTalkers("", 5)
	if len(talkers) == 0 {
		t.Fatal("no talkers on the default LAN")
	}
	if !strings.Contains(talkers[0].Key, "proto1") {
		t.Fatalf("top talker is not the ICMP flow: %+v", talkers)
	}
	if talkers[0].Bytes == 0 {
		t.Fatalf("top talker has zero weight: %+v", talkers)
	}

	// Leave drains pc00's live flows into the world's shared log, and
	// the flow scrape picks the closed records up.
	src.WAV.Leave()
	if w.FlowLog.Len() == 0 {
		t.Fatal("world flow log empty after Leave drain")
	}
	r = w.FlowScrape()
	if v, _ := r.CounterValue("flow.closed_records", l); v == 0 {
		t.Fatalf("no closed records for pc00; scrape:\n%s", r)
	}
}

// TestChaosPartitionAlertFiresAndResolves is the alerting chaos test: a
// WAN partition starves one tenant's live ping traffic, the substrate's
// drop hook charges the losses back to the flow (via the sender's
// gateway, where WAN drops happen), and the partition-frame-loss rate
// rule must fire — with a span and a firing event — then resolve after
// the heal, with the span closed by a resolved event.
func TestChaosPartitionAlertFiresAndResolves(t *testing.T) {
	const alert = "partition-frame-loss"
	w, err := Build(72, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	src := w.M("pc00")
	dstVIP := w.M("pc01").VIP
	stop := false
	fails, lastOK := 0, false
	w.Eng.Spawn("traffic", func(p *sim.Proc) {
		for !stop {
			if _, err := src.Dom0().Ping(p, dstVIP, 56, 500*time.Millisecond); err != nil {
				fails++
				lastOK = false
			} else {
				lastOK = true
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	// The scrape cadence drives the alert engine's Evals.
	scrape := sim.NewTicker(w.Eng, time.Second, func() { w.Scrape() })

	w.Eng.RunFor(5 * time.Second)
	if w.Alerts.IsFiring(alert) {
		t.Fatal("alert firing before the partition")
	}
	if fails != 0 {
		t.Fatalf("%d pings failed before the partition", fails)
	}

	if err := w.Partition("pc00", "pc01"); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(12 * time.Second)
	if !w.Alerts.IsFiring(alert) {
		t.Fatalf("alert not firing mid-partition (value=%v)", w.Alerts.Value(alert))
	}
	// The ticker has just scraped at this instant. Looking again, twice,
	// changes nothing: the same snapshot, no rule moved, the alert still
	// firing, since a zero-length interval carries no rate.
	type ruleState struct {
		value           float64
		fired, resolved uint64
		firing          bool
	}
	states := func() (out []ruleState) {
		for _, r := range w.Alerts.Rules() {
			out = append(out, ruleState{w.Alerts.Value(r.Name), w.Alerts.Fired(r.Name), w.Alerts.Resolved(r.Name), w.Alerts.IsFiring(r.Name)})
		}
		return out
	}
	once := w.Scrape()
	before := states()
	if twice := w.Scrape(); twice.String() != once.String() {
		t.Fatalf("second scrape at one instant differs:\n%s\nfirst\n%s", twice, once)
	}
	if after := states(); !reflect.DeepEqual(after, before) {
		t.Fatalf("second scrape at one instant moved the alert rules: %+v, was %+v", after, before)
	}
	if !w.Alerts.IsFiring(alert) {
		t.Fatalf("scraping again at the ticker's instant resolved the alert (value=%v)", w.Alerts.Value(alert))
	}
	if fails == 0 {
		t.Fatal("partition did not starve the ping traffic")
	}
	// The starved flow itself carries the attribution: wire drops at the
	// gateway charged back to the ICMP flow on the sending machine.
	attributed := false
	for _, st := range src.WAV.Flows().Snapshot() {
		if st.Key.Proto == 1 && st.Drops[obs.FlowDropPartition] > 0 {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("no partition drops attributed to pc00's ICMP flow: %+v",
			src.WAV.Flows().Snapshot())
	}

	if err := w.Heal("pc00", "pc01"); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(10 * time.Second)
	scrape.Stop()
	stop = true
	if w.Alerts.IsFiring(alert) {
		t.Fatal("alert still firing after the heal")
	}
	if f, r := w.Alerts.Fired(alert), w.Alerts.Resolved(alert); f != 1 || r != 1 {
		t.Fatalf("alert fired=%d resolved=%d, want exactly 1 each", f, r)
	}
	if !lastOK {
		t.Fatal("traffic did not recover after the heal")
	}

	// The firing window is a closed span with both lifecycle events.
	spans := w.Obs.Find("alert." + alert)
	if len(spans) != 1 {
		t.Fatalf("found %d alert spans, want 1; trace:\n%s", len(spans), w.Obs.Dump())
	}
	sp := spans[0]
	if !sp.Ended() {
		t.Fatal("alert span never closed")
	}
	if !sp.HasEvent("firing") || !sp.HasEvent("resolved") {
		t.Fatalf("alert span lacks lifecycle events: %+v", sp.Events())
	}
	if sp.Duration() <= 0 {
		t.Fatalf("alert span duration %v, want > 0", sp.Duration())
	}
}

// TestRestartBrokerCounterDeltaSinceRate is the registry-level restart
// regression: rates derived from the Delta of two world scrapes across
// a broker crash-restart must clamp at zero instead of wrapping uint64
// into astronomical values. It also pins that the first scrape's
// snapshot survives the second scrape untouched.
func TestRestartBrokerCounterDeltaSinceRate(t *testing.T) {
	w, err := Build(73, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	// Let keepalive traffic accumulate broker-side pulse counts.
	w.Eng.RunFor(20 * time.Second)
	prev := w.Scrape()
	prevAt := w.Eng.Now()
	bl := obs.Labels{Broker: PrimaryBroker}
	if v, ok := prev.CounterValue("pulses", bl); !ok || v == 0 {
		t.Fatalf("broker pulses before restart = %d (present=%v)", v, ok)
	}

	if err := w.KillBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RestartBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	// A short window: the fresh broker's totals restart near zero and
	// stay below the pre-kill snapshot.
	w.Eng.RunFor(5 * time.Second)

	cur := w.Scrape()
	seconds := w.Eng.Now().Sub(prevAt).Seconds()
	d := cur.Delta(prev)
	if v, _ := d.CounterValue("pulses", bl); v != 0 {
		t.Fatalf("pulses delta across restart = %d, want 0 (clamped)", v)
	}
	// Nothing in the whole delta wrapped: a wrapped uint64 divided by the
	// interval would still be astronomically large.
	for _, name := range []string{"pulses", "joins", "lookups", "connects"} {
		if v := float64(d.Total(name)) / seconds; v < 0 || v > 1e12 {
			t.Fatalf("%s rate across restart = %v: wraparound", name, v)
		}
	}
	// Host-side series kept counting: their deltas are genuine.
	if v, ok := cur.CounterValue("pulses", bl); !ok {
		t.Fatalf("restarted broker exports no pulses counter (present=%v)", ok)
	} else if p, _ := prev.CounterValue("pulses", bl); v >= p {
		t.Fatalf("restarted broker pulses %d did not reset below %d", v, p)
	}
}
