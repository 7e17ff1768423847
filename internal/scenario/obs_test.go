package scenario

import (
	"bytes"
	"encoding/json"
	"path"
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

// scrapeAllocsWorld is the six-host, two-tenant world the scrape
// allocation checks run on, scraped once so every series exists.
func scrapeAllocsWorld(tb testing.TB) *World {
	w, err := Build(66, EmulatedWANSpecs(6, 100e6), nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, tenant := range []string{"acme", "beta"} {
		keys := []string{w.Machines[3*i].Key, w.Machines[3*i+1].Key, w.Machines[3*i+2].Key}
		if _, err := w.ApplySync(vpc.TenantSpec{Tenant: tenant, Networks: []vpc.NetworkSpec{{
			Name: tenant + "-net", CIDR: "10.92.0.0/24", StaticAddressing: true, Members: keys,
		}}}); err != nil {
			tb.Fatal(err)
		}
	}
	w.Scrape()
	w.FlowScrape()
	return w
}

// TestScrapeAllocsPerSeries bounds what World.Scrape and FlowScrape
// allocate per call on a two-tenant world, alert evaluation included,
// from the second scrape on: the standing registries are overwritten in
// place, so a call costs its snapshot's few objects however many series
// it returns.
func TestScrapeAllocsPerSeries(t *testing.T) {
	w := scrapeAllocsWorld(t)
	for _, c := range []struct {
		name   string
		scrape func() *obs.Registry
		max    float64
	}{
		{"Scrape", w.Scrape, 3}, // registry, values, histogram copies
		{"FlowScrape", w.FlowScrape, 2},
	} {
		series := c.scrape().Len()
		if allocs := testing.AllocsPerRun(5, func() { c.scrape() }); allocs > c.max {
			t.Errorf("%s: %.0f allocations for %d series, want <= %.0f per call", c.name, allocs, series, c.max)
		}
	}
}

// BenchmarkWorldScrape and BenchmarkWorldFlowScrape are the alloc-budget
// gate's view of the two scrapes (ALLOC_BUDGET): a constant number of
// allocations per call, independent of the series count.
func BenchmarkWorldScrape(b *testing.B) {
	w := scrapeAllocsWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScrape = w.Scrape()
	}
}

func BenchmarkWorldFlowScrape(b *testing.B) {
	w := scrapeAllocsWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScrape = w.FlowScrape()
	}
}

var benchScrape *obs.Registry

// TestScrapeMatchesFreshRegistry is the differential test of the
// standing registry: after every step of a script that relabels hosts,
// adds and removes a VM and a service, kills and restarts a broker,
// evicts flows into the log and activates a new VNI, World.Scrape and
// World.FlowScrape must render (text and JSON) exactly what filling a
// fresh registry from every component renders. Every step's snapshot
// must still render as it did after the last step.
func TestScrapeMatchesFreshRegistry(t *testing.T) {
	w, err := Build(67, EmulatedWANSpecs(5, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	// Every step's snapshot, with its renders: none may change later.
	type kept struct {
		step       string
		r          *obs.Registry
		text, json string
	}
	var snaps []kept
	check := func(step string) *obs.Registry {
		t.Helper()
		got := w.Scrape()
		js, _ := json.Marshal(got)
		snaps = append(snaps, kept{step, got, got.String(), string(js)})
		want := obs.NewRegistry()
		w.scrapeInto(want)
		w.Alerts.ScrapeInto(want)
		gotFlows := w.FlowScrape()
		wantFlows := obs.NewRegistry()
		w.flowScrapeInto(wantFlows)
		for _, c := range []struct {
			what      string
			got, want *obs.Registry
		}{{"Scrape", got, want}, {"FlowScrape", gotFlows, wantFlows}} {
			if g, w := c.got.String(), c.want.String(); g != w {
				t.Fatalf("%s: %s differs from a fresh registry:\n%s\nwant\n%s", step, c.what, g, w)
			}
			g, _ := json.Marshal(c.got)
			w, _ := json.Marshal(c.want)
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: %s JSON differs from a fresh registry", step, c.what)
			}
			if c.got.Len() != c.want.Len() {
				t.Fatalf("%s: %s has %d series, fresh registry %d", step, c.what, c.got.Len(), c.want.Len())
			}
		}
		return got
	}
	has := func(r *obs.Registry, series string) bool { return strings.Contains(r.String(), series) }
	ping := func(net string, from, to string) {
		t.Helper()
		n, _ := w.VPC().Get(net)
		a, _ := n.Member(from)
		b, _ := n.Member(to)
		var err error
		w.Eng.Spawn("ping", func(p *sim.Proc) { _, err = a.Stack.Ping(p, b.IP, 56, time.Second) })
		w.Eng.RunFor(2 * time.Second)
		if err != nil {
			t.Fatalf("ping %s %s -> %s: %v", net, from, to, err)
		}
	}

	check("up")

	red := vpc.TenantSpec{Tenant: "acme", Networks: []vpc.NetworkSpec{{
		Name: "red", CIDR: "10.93.0.0/24", StaticAddressing: true, ServicePool: "10.93.0.192/28",
		Members: []string{"pc00", "pc01", "pc02"},
	}}}
	if _, err := w.ApplySync(red); err != nil {
		t.Fatal(err)
	}
	ping("red", "pc00", "pc01")
	if r := check("tenant apply"); !has(r, "{tenant=acme,net=red,broker=rdv,host=pc00}") || has(r, "{broker=rdv,host=pc00}") {
		t.Fatalf("pc00 not relabelled to its tenant:\n%s", r)
	}

	withExtras := red
	withExtras.VMs = []vpc.VMSpec{{Name: "db", Network: "red", IP: "10.93.0.50", MemoryMB: 16, Host: "pc02"}}
	withExtras.Services = []vpc.ServiceSpec{{
		Name: "web", Network: "red", VIP: "10.93.0.200",
		Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc02"}},
	}}
	if _, err := w.ApplySync(withExtras); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(3 * time.Second) // a few probe rounds
	if r := check("vm and service added"); !has(r, "service.web.probes_sent{") || !has(r, "vm.rounds{") {
		t.Fatalf("no service or VM series after adding them:\n%s", r)
	}
	if _, err := w.ApplySync(red); err != nil {
		t.Fatal(err)
	}
	if r := check("vm and service removed"); has(r, "service.web.") || has(r, "vm.rounds{") {
		t.Fatalf("service or VM series outlived them:\n%s", r)
	}

	if err := w.KillBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(time.Second)
	if r := check("broker killed"); has(r, "{broker=rdv}") {
		t.Fatalf("the dead broker's series outlived it:\n%s", r)
	}
	if _, err := w.RestartBroker(PrimaryBroker); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(10 * time.Second)
	if r := check("broker restarted"); !has(r, "joins{broker=rdv}") {
		t.Fatalf("the restarted broker's series did not return:\n%s", r)
	}

	w.Eng.RunFor(45 * time.Second) // past FlowIdle: the pings' flows close
	if w.FlowLog.Len() == 0 {
		t.Fatal("no flow evicted into the log")
	}
	check("flows evicted")

	if _, err := w.ApplySync(vpc.TenantSpec{Tenant: "beta", Networks: []vpc.NetworkSpec{{
		Name: "blue", CIDR: "10.94.0.0/24", StaticAddressing: true, Members: []string{"pc03", "pc04"},
	}}}); err != nil {
		t.Fatal(err)
	}
	ping("blue", "pc03", "pc04")
	blue, _ := w.VPC().Get("blue")
	if r := check("new VNI"); !has(r, "flood.vni"+strconv.FormatUint(uint64(blue.VNI), 10)+"{") {
		t.Fatalf("no flood series for the new VNI %d:\n%s", blue.VNI, r)
	}

	for _, k := range snaps {
		if js, _ := json.Marshal(k.r); k.r.String() != k.text || string(js) != k.json {
			t.Fatalf("the snapshot of step %q changed:\n%s\nwas\n%s", k.step, k.r, k.text)
		}
	}
}

// TestScrapeAlertValuesMatchDelta checks the alert engine's in-place
// rate scoring against the definition it replaced: on the partition
// world, after every scrape, each rule's value equals its metric summed
// (histograms: worst quantile) over the scrape — over cur.Delta(prev)
// per second for rate rules, zero on the first scrape.
func TestScrapeAlertValuesMatchDelta(t *testing.T) {
	w, err := Build(72, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	src, dst := w.M("pc00"), w.M("pc01").VIP
	w.Eng.Spawn("traffic", func(p *sim.Proc) {
		for {
			src.Dom0().Ping(p, dst, 56, 500*time.Millisecond)
			if !p.Sleep(100 * time.Millisecond) {
				return
			}
		}
	})
	var prev *obs.Registry
	var prevAt sim.Time
	fired := false
	for s := 1; s <= 30; s++ {
		switch s {
		case 5:
			if err := w.Partition("pc00", "pc01"); err != nil {
				t.Fatal(err)
			}
		case 20:
			if err := w.Heal("pc00", "pc01"); err != nil {
				t.Fatal(err)
			}
		}
		w.Eng.RunFor(time.Second)
		cur := w.Scrape()
		for _, rule := range w.Alerts.Rules() {
			want := referenceScore(t, rule, cur, prev, w.Eng.Now().Sub(prevAt).Seconds())
			if got := w.Alerts.Value(rule.Name); got != want {
				t.Fatalf("t=%v %s: value %v, reference %v", w.Eng.Now(), rule.Name, got, want)
			}
			fired = fired || w.Alerts.IsFiring(rule.Name)
		}
		prev, prevAt = cur, w.Eng.Now()
	}
	if !fired {
		t.Fatal("no rule fired: the reference was never compared off zero")
	}
}

// referenceScore scores rule over cur as the alert engine defines it,
// from the registry's JSON rows: matched counters and gauges sum,
// matched histograms give their worst quantile (max when Quantile is
// zero); a rate rule reads cur.Delta(prev) and divides by the interval.
func referenceScore(t *testing.T, rule obs.AlertRule, cur, prev *obs.Registry, seconds float64) float64 {
	t.Helper()
	if rule.Labels != (obs.Labels{}) {
		t.Fatalf("%s: label selectors are not modelled here", rule.Name)
	}
	src := cur
	if rule.Rate {
		if prev == nil {
			return 0
		}
		src = cur.Delta(prev)
	}
	b, _ := json.Marshal(src)
	var rows []struct {
		Name, Kind                string
		Value, P50, P95, P99, Max float64
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	var sum, worst float64
	for _, row := range rows {
		if ok, _ := path.Match(rule.Metric, row.Name); !ok {
			continue
		}
		if row.Kind != "histogram" {
			sum += row.Value
			continue
		}
		v := map[float64]float64{0: row.Max, 0.5: row.P50, 0.95: row.P95, 0.99: row.P99}[rule.Quantile]
		if v > worst {
			worst = v
		}
	}
	if worst > 0 {
		return worst
	}
	if rule.Rate {
		sum /= seconds
	}
	return sum
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
