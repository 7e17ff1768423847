package scenario

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"wavnet/internal/obs"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// TestObsScrapeWorld brings a small mesh up and checks the world-wide
// scrape: every joined host contributes labeled data-plane series, the
// broker contributes control-plane series, and ScrapeCheck passes.
func TestObsScrapeWorld(t *testing.T) {
	w, err := Build(61, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	r := w.Scrape()
	if r.Len() == 0 {
		t.Fatal("scrape returned an empty registry")
	}
	// Each of the three hosts meshed with the other two.
	for _, key := range []string{"pc00", "pc01", "pc02"} {
		l := obs.Labels{Host: key, Broker: PrimaryBroker}
		g, ok := r.GaugeValue("tunnels", l)
		if !ok {
			t.Fatalf("%s has no tunnels gauge; scrape:\n%s", key, r)
		}
		if g != 2 {
			t.Fatalf("%s tunnels gauge = %v, want 2", key, g)
		}
	}
	// The primary broker registered all three hosts.
	if v, ok := r.CounterValue("joins", obs.Labels{Broker: PrimaryBroker}); !ok || v < 3 {
		t.Fatalf("broker joins = %d (present=%v), want >= 3", v, ok)
	}
	if err := w.ScrapeCheck(); err != nil {
		t.Fatal(err)
	}
	// The text render carries the labels.
	if s := r.String(); !strings.Contains(s, "tunnels{broker=rdv,host=pc00}") {
		t.Fatalf("render lacks labeled series:\n%s", s)
	}
}

// TestObsScrapeTenantLabels applies a tenant spec and checks scraped
// member series carry {tenant, net, broker, host} labels intact.
func TestObsScrapeTenantLabels(t *testing.T) {
	w, err := Build(62, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "red", CIDR: "10.90.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	r := w.Scrape()
	l := obs.Labels{Tenant: "acme", Net: "red", Broker: PrimaryBroker, Host: "pc00"}
	if _, ok := r.CounterValue("flooded_frames", l); !ok {
		t.Fatalf("no tenant-labeled series for pc00; scrape:\n%s", r)
	}
}

// TestScrapeAllocsPerSeries bounds what World.Scrape allocates per
// series it returns on a two-tenant world, alert evaluation included,
// from the second scrape on. A label string rendered per sort
// comparison or a per-host counter map rebuilt per scrape costs
// hundreds per series; the snapshot itself costs under ten.
func TestScrapeAllocsPerSeries(t *testing.T) {
	w, err := Build(66, EmulatedWANSpecs(6, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"acme", "beta"} {
		keys := []string{w.Machines[3*i].Key, w.Machines[3*i+1].Key, w.Machines[3*i+2].Key}
		if _, err := w.ApplySync(vpc.TenantSpec{Tenant: tenant, Networks: []vpc.NetworkSpec{{
			Name: tenant + "-net", CIDR: "10.92.0.0/24", StaticAddressing: true, Members: keys,
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	series := w.Scrape().Len()
	allocs := testing.AllocsPerRun(5, func() { w.Scrape() })
	if per := allocs / float64(series); per > 16 {
		t.Fatalf("Scrape: %.0f allocations for %d series = %.1f per series, want <= 16", allocs, series, per)
	}
}

// TestChaosRehomeSpanTimeline is the span-timeline chaos assertion: a
// broker dies and the orphaned hosts' re-home elections must show up as
// closed spans — each started after the kill and closed within the
// detection window (BrokerTimeout) plus three pulse periods, with the
// election outcome recorded as an event. Terminal counters alone cannot
// distinguish a prompt failover from one that dawdled; the span
// timestamps can.
func TestChaosRehomeSpanTimeline(t *testing.T) {
	w, err := Build(63, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if _, err := w.AddBroker("b1", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddBroker("b2", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{"pc00": "b1", "pc01": "b1", "pc02": "b2"} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "fed", CIDR: "10.81.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02"},
			Brokers: []string{"b1", "b2"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}

	if err := w.KillBroker("b1"); err != nil {
		t.Fatal(err)
	}
	killTime := w.Eng.Now()
	ttl := chaosBrokerCfg().SessionTTL
	w.Eng.RunFor(ttl + 10*time.Second)

	hostCfg := chaosHostCfg()
	budget := hostCfg.BrokerTimeout + 3*sim.Duration(hostCfg.RendezvousPulsePeriod)
	spans := w.Obs.Find("rehome")
	byHost := map[string]*obs.Span{}
	for _, sp := range spans {
		byHost[sp.SpanLabels().Host] = sp
	}
	for _, key := range []string{"pc00", "pc01"} {
		sp, ok := byHost[key]
		if !ok {
			t.Fatalf("%s recorded no rehome span; trace:\n%s", key, w.Obs.Dump())
		}
		if !sp.Ended() {
			t.Fatalf("%s rehome span never closed; trace:\n%s", key, w.Obs.Dump())
		}
		if sp.StartTime() < killTime {
			t.Fatalf("%s rehome span started %v, before the kill at %v",
				key, sp.StartTime(), killTime)
		}
		if d := sp.EndTime().Sub(killTime); d > budget {
			t.Fatalf("%s rehome span closed %v after the kill, beyond the %v budget",
				key, d, budget)
		}
		if !sp.HasEvent("rehomed to") {
			t.Fatalf("%s rehome span lacks the election outcome: %+v", key, sp.Events())
		}
	}
	if sp, ok := byHost["pc02"]; ok {
		t.Fatalf("pc02 (homed on the survivor) recorded a rehome span: %v", sp.Events())
	}
}

// TestObsMigrationSpanTree checks the causality threading: a managed
// migration ordered by a reconcile shows up as a "migrate" span
// parented under that apply's span, with one child per pre-copy round
// plus the stop-and-copy, and the downtime recorded as an event.
func TestObsMigrationSpanTree(t *testing.T) {
	w, err := Build(64, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "mnet", CIDR: "10.73.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01"},
		}},
		VMs: []vpc.VMSpec{{
			Name: "db", Network: "mnet", IP: "10.73.0.200", MemoryMB: 32, Host: "pc00",
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	spec.VMs[0].Host = "pc01"
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}

	migs := w.Obs.Find("migrate")
	if len(migs) != 1 {
		t.Fatalf("found %d migrate spans, want 1; trace:\n%s", len(migs), w.Obs.Dump())
	}
	mig := migs[0]
	if !mig.Ended() {
		t.Fatal("migrate span never closed")
	}
	if mig.Duration() <= 0 {
		t.Fatalf("migrate span duration %v, want > 0", mig.Duration())
	}
	if !mig.HasEvent("resumed at pc01") {
		t.Fatalf("migrate span lacks the handoff event: %+v", mig.Events())
	}

	// The migration is parented under the apply that ordered it.
	var applySpan *obs.Span
	for _, sp := range w.Obs.Find("apply") {
		if sp.ID() == mig.ParentID() && sp.TraceID() == mig.TraceID() {
			applySpan = sp
		}
	}
	if applySpan == nil {
		t.Fatalf("migrate span has no apply parent; trace:\n%s", w.Obs.Dump())
	}
	if !applySpan.HasEvent("vm-migrate") {
		t.Fatalf("apply span lacks the vm-migrate action: %+v", applySpan.Events())
	}

	// Pre-copy rounds and stop-and-copy ride as children of the migrate.
	kids := w.Obs.Children(mig)
	rounds, stopcopy := 0, 0
	for _, k := range kids {
		switch k.Name() {
		case "migrate.round":
			rounds++
		case "migrate.stopcopy":
			stopcopy++
		}
		if !k.Ended() {
			t.Fatalf("child span %s never closed", k.Name())
		}
	}
	if rounds < 1 || stopcopy != 1 {
		t.Fatalf("migrate children: %d rounds, %d stopcopy; want >=1 and 1", rounds, stopcopy)
	}
}

// TestRestartBrokerCounterDeltaClamped is the regression for the Delta
// underflow: a restarted broker starts its counters over, so a delta
// against a pre-kill snapshot must clamp at zero instead of wrapping
// uint64 into astronomical rates.
func TestRestartBrokerCounterDeltaClamped(t *testing.T) {
	w, err := Build(65, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	l := obs.Labels{Broker: PrimaryBroker}
	prev := obs.NewRegistry()
	w.Rdv.ScrapeInto(prev, l)
	if v, _ := prev.CounterValue("joins", l); v < 2 {
		t.Fatalf("primary broker saw %d joins, want >= 2", v)
	}
	if err := w.KillBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RestartBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	// The fresh server's totals restart from zero: every delta entry
	// clamps instead of wrapping.
	cur := obs.NewRegistry()
	w.Rdv.ScrapeInto(cur, l)
	d := cur.Delta(prev)
	for _, line := range strings.Split(strings.TrimSpace(d.String()), "\n") {
		f := strings.Fields(line)
		if v, err := strconv.ParseUint(f[len(f)-1], 10, 64); err != nil || v > 1<<62 {
			t.Fatalf("delta line %q: uint64 wraparound (%v)", line, err)
		}
	}
	if v, ok := d.CounterValue("joins", l); !ok || v != 0 {
		t.Fatalf("joins delta after restart = %d (present=%v), want 0 (clamped)", v, ok)
	}
}
