package scenario

import (
	"strings"
	"testing"
	"time"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/service"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// TestChaosServiceVIPSurvivesFailures is the service-layer acceptance
// chaos test: one VIP backed by three backends (two member hosts and a
// managed VM) keeps serving pings and TCP through (a) the death of the
// active backend, (b) the failover of the anchor's home broker, and
// (c) a live migration of the backend VM. Failover time is bounded by
// the probe fall budget, the withdrawn backend recovers after heal, and
// a witness broker the spec never named holds zero host records.
func TestChaosServiceVIPSurvivesFailures(t *testing.T) {
	w, err := Build(71, EmulatedWANSpecs(4, 100e6), nil)
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
	witness, err := w.AddBroker("witness", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{
		"pc00": "b1", "pc01": "b1", "pc02": "b2", "pc03": "b2",
	} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}

	const (
		interval = time.Second
		timeout  = 250 * time.Millisecond
		fall     = 3
	)
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "svc", CIDR: "10.90.0.0/24", StaticAddressing: true,
			ServicePool: "10.90.0.192/28",
			Members:     []string{"pc00", "pc01", "pc02", "pc03"},
			Brokers:     []string{"b1", "b2"},
		}},
		VMs: []vpc.VMSpec{{Name: "cache", Network: "svc", IP: "10.90.0.50", Host: "pc02"}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "svc", VIP: "10.90.0.200",
			Policy: "failover-ordered",
			// pc01 ranks first so the ACTIVE backend is not the anchor
			// (pc00): killing it must not take the prober down too.
			Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc03"}, {VM: "cache"}},
			Interval: interval, Timeout: timeout, Fall: fall, Rise: 2,
		}},
	}
	rep, err := w.ApplySync(spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); !strings.Contains(ops, "service-create") {
		t.Fatalf("ops = %q, want a service-create", ops)
	}
	again, err := w.ApplySync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("re-apply not a no-op: %v", again)
	}

	svc, ok := w.ResolveService("web")
	if !ok {
		t.Fatal("ResolveService found no service")
	}
	vip, _ := w.ServiceVIP("web")
	if vip.String() != "10.90.0.200" {
		t.Fatalf("VIP = %s, want 10.90.0.200", vip)
	}

	n, _ := w.VPC().Get("svc")
	member := func(key string) *vpc.Member {
		m, ok := n.Member(key)
		if !ok {
			t.Fatalf("%s not a member", key)
		}
		return m
	}
	v, ok := w.ResolveVM("cache")
	if !ok {
		t.Fatal("ResolveVM found no managed VM")
	}

	// Every backend serves a one-shot TCP echo on :8080 from the stack
	// the VIP is aliased onto.
	serve := func(name string, st *ipstack.Stack) {
		w.Eng.Spawn("srv-"+name, func(p *sim.Proc) {
			l, err := st.Listen(8080)
			if err != nil {
				return
			}
			for {
				c, err := l.Accept(p)
				if err != nil {
					return
				}
				buf := make([]byte, 64)
				if nn, err := c.Read(p, buf); err == nil && nn > 0 {
					c.Write(p, buf[:nn])
				}
				c.Close()
			}
		})
	}
	serve("pc01", member("pc01").Stack)
	serve("pc03", member("pc03").Stack)
	serve("cache", v.Stack())

	// pingVIP and dialVIP drive the VIP from a client host; steering on
	// that host picks the backend.
	pingVIP := func(from string) error {
		var perr error
		done := false
		w.Eng.Spawn("ping-"+from, func(p *sim.Proc) {
			_, perr = member(from).Stack.Ping(p, vip, 56, 3*time.Second)
			done = true
		})
		w.Eng.RunFor(5 * time.Second)
		if !done {
			t.Fatalf("ping from %s never finished", from)
		}
		return perr
	}
	dialVIP := func(from string) error {
		var derr error
		done := false
		w.Eng.Spawn("dial-"+from, func(p *sim.Proc) {
			defer func() { done = true }()
			c, err := member(from).Stack.Dial(p, netsim.Addr{IP: vip, Port: 8080})
			if err != nil {
				derr = err
				return
			}
			defer c.Close()
			if _, err := c.Write(p, []byte("hello vip")); err != nil {
				derr = err
				return
			}
			buf := make([]byte, 64)
			if nn, err := c.Read(p, buf); err != nil && nn == 0 {
				derr = err
			}
		})
		w.Eng.RunFor(10 * time.Second)
		if !done {
			t.Fatalf("dial from %s never finished", from)
		}
		return derr
	}

	w.Eng.RunFor(5 * time.Second) // tunnels and first probe rounds settle
	if got, _ := svc.Active(); got != "pc01" {
		t.Fatalf("active backend = %q, want pc01", got)
	}
	if err := pingVIP("pc00"); err != nil {
		t.Fatalf("baseline ping via VIP: %v", err)
	}
	if err := dialVIP("pc02"); err != nil {
		t.Fatalf("baseline TCP via VIP: %v", err)
	}

	// (a) Kill the active backend: isolate pc01 from every machine AND
	// every broker one second in — a partial cut would not do, because
	// the fabric's relay fallback can legitimately resurrect a backend
	// the brokers still reach. Probes from the anchor start missing;
	// within the fall budget the VIP must steer to pc03.
	isolated := []string{"pc00", "pc02", "pc03", "b1", "b2"}
	faults := make([]Fault, 0, len(isolated))
	for _, peer := range isolated {
		faults = append(faults, PartitionAt(time.Second, "pc01", peer))
	}
	fi := w.Inject(faults...)
	w.Eng.RunFor(10 * time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault injection failed: %v", fails)
	}
	if svc.Healthy("pc01") {
		t.Fatal("pc01 still marked healthy after partition")
	}
	if got, _ := svc.Active(); got != "pc03" {
		t.Fatalf("active backend = %q after backend death, want pc03", got)
	}
	if err := pingVIP("pc00"); err != nil {
		t.Fatalf("ping via VIP after backend death: %v", err)
	}
	if err := dialVIP("pc02"); err != nil {
		t.Fatalf("TCP via VIP after backend death: %v", err)
	}
	if svc.Withdrawals < 1 || svc.Failovers < 1 {
		t.Fatalf("withdrawals=%d failovers=%d, want both >=1", svc.Withdrawals, svc.Failovers)
	}

	// The failover left a span whose duration — first missed probe to
	// steering flip — is bounded by the probe fall budget.
	budget := time.Duration(fall)*interval + timeout
	found := false
	for _, sp := range w.Obs.Find("service.failover") {
		if !sp.HasEvent("withdrew backend pc01") {
			continue
		}
		found = true
		if d := sp.Duration(); d <= 0 || time.Duration(d) > budget {
			t.Fatalf("failover span took %v, budget %v", d, budget)
		}
	}
	if !found {
		t.Fatal("no service.failover span recorded the pc01 withdrawal")
	}

	// (b) Kill the anchor's home broker. The anchor re-homes onto b2;
	// the data plane never notices.
	if err := w.KillBroker("b1"); err != nil {
		t.Fatal(err)
	}
	ttl := chaosBrokerCfg().SessionTTL
	w.Eng.RunFor(ttl + 10*time.Second)
	if home, ok := w.CurrentHome("pc00"); !ok || home != "b2" {
		t.Fatalf("anchor homed at %q after broker kill, want b2", home)
	}
	if err := pingVIP("pc00"); err != nil {
		t.Fatalf("ping via VIP after broker failover: %v", err)
	}

	// Heal pc01. It was dark longer than the tunnel timeout, so every
	// mesh edge to it was garbage-collected — and its old home broker is
	// gone. Recovery is three layers deep: pc01 re-homes onto b2, the
	// network's mesh-repair loop re-punches the dropped tunnels, and
	// after Rise clean probes the service restores the backend; the
	// failover-ordered policy then steers the VIP back to its first rank.
	for _, peer := range isolated {
		if err := w.Heal("pc01", peer); err != nil {
			t.Fatal(err)
		}
	}
	w.Eng.RunFor(30 * time.Second)
	if !svc.Healthy("pc01") {
		t.Fatal("pc01 did not recover after heal")
	}
	if got, _ := svc.Active(); got != "pc01" {
		t.Fatalf("active backend = %q after recovery, want pc01", got)
	}
	if svc.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >=1", svc.Recoveries)
	}
	if err := dialVIP("pc02"); err != nil {
		t.Fatalf("TCP via VIP after recovery: %v", err)
	}

	// (c) Live-migrate the backend VM. The VM pass migrates, the service
	// pass sees the resolved backend drift and rebuilds in place.
	spec.VMs[0].Host = "pc01"
	rep, err = w.ApplySync(spec)
	if err != nil {
		t.Fatalf("migrating apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "vm-migrate,service-update" {
		t.Fatalf("ops = %q, want exactly vm-migrate,service-update", ops)
	}
	if host, _ := w.VMHost("cache"); host != "pc01" {
		t.Fatalf("VM on %q after migration, want pc01", host)
	}
	w.Eng.RunFor(5 * time.Second)
	svc, _ = w.ResolveService("web") // rebuilt instance
	if !svc.Healthy("cache") {
		t.Fatal("cache unhealthy after live migration")
	}
	if err := pingVIP("pc00"); err != nil {
		t.Fatalf("ping via VIP after VM migration: %v", err)
	}

	// Converged: a final re-apply is a no-op, and the witness broker the
	// spec never named holds no stray record.
	again, err = w.ApplySync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("post-chaos re-apply not a no-op: %v", again)
	}
	if got := witness.RecordsFor("svc"); got != 0 {
		t.Fatalf("witness holds %d host records, want 0", got)
	}
	if err := w.ScrapeCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceProgramsLateMember: a member admitted after its network's
// service exists gets the service's steering table — the reconciler
// counts member-set drift as drift and rebuilds the service in place —
// so it resolves the VIP to the active backend and reaches it.
func TestServiceProgramsLateMember(t *testing.T) {
	w, err := Build(72, EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Eng.Stop()
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "svc", CIDR: "10.90.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02"},
		}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "svc", VIP: "10.90.0.200",
			Policy:   service.PolicyFailoverOrdered,
			Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc02"}},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(5 * time.Second)

	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc03")
	rep, err := w.ApplySync(spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "admit,service-update" {
		t.Fatalf("ops = %q, want admit,service-update", ops)
	}
	w.Eng.RunFor(5 * time.Second)
	n, _ := w.VPC().Get("svc")
	late, _ := n.Member("pc03")
	active, _ := n.Member("pc01")
	vip, _ := w.ServiceVIP("web")
	if mac, ok := late.Host.VIPChoice(n.VNI, vip); !ok || mac != active.Stack.MAC() {
		t.Fatalf("pc03 steers %s to %v (%v), want pc01's %v", vip, mac, ok, active.Stack.MAC())
	}
	var perr error
	done := false
	w.Eng.Spawn("ping-pc03", func(p *sim.Proc) {
		_, perr = late.Stack.Ping(p, vip, 56, 3*time.Second)
		done = true
	})
	w.Eng.RunFor(5 * time.Second)
	if !done || perr != nil {
		t.Fatalf("ping via VIP from the late member: done=%v err=%v", done, perr)
	}
	if again, err := w.ApplySync(spec); err != nil || !again.Empty() {
		t.Fatalf("re-apply not a no-op: %v (err %v)", again, err)
	}

	// A member that leaves is rebuilt out: its table is cleared.
	spec.Networks[0].Members = spec.Networks[0].Members[:3]
	rep, err = w.ApplySync(spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "evict,service-update" {
		t.Fatalf("ops = %q, want evict,service-update", ops)
	}
	if _, ok := late.Host.VIPChoice(n.VNI, vip); ok {
		t.Fatalf("pc03 still steers %s after leaving the network", vip)
	}
}
