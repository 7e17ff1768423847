package scenario

import (
	"io"
	"strings"
	"testing"
	"time"

	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// TestPlacementApplyPlacesAndMigrates is the acceptance test of the VM
// pass: an Apply with a VMSpec boots the VM on the declared member,
// changing VMSpec.Host live-migrates it while an in-flight TCP session
// to the VM survives, and re-applying the converged spec is a no-op.
func TestPlacementApplyPlacesAndMigrates(t *testing.T) {
	w, err := Build(51, EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.70.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02", "pc03"},
		}},
		VMs: []vpc.VMSpec{{
			Name: "web", Network: "vnet", IP: "10.70.0.200", MemoryMB: 32, Host: "pc00",
		}},
	}
	rep, err := w.ApplySync(spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); !strings.Contains(ops, "vm-place") {
		t.Fatalf("ops = %q, want a vm-place", ops)
	}
	v, ok := w.ResolveVM("web")
	if !ok {
		t.Fatal("ResolveVM found no managed VM")
	}
	if host, _ := w.VMHost("web"); host != "pc00" {
		t.Fatalf("VM on %q, want pc00", host)
	}

	// The VM is reachable on the tenant segment from a co-member.
	n, _ := w.VPC().Get("vnet")
	member := func(key string) *vpc.Member {
		m, ok := n.Member(key)
		if !ok {
			t.Fatalf("%s not a member", key)
		}
		return m
	}
	var pingErr error
	pinged := false
	w.Eng.Spawn("ping", func(p *sim.Proc) {
		_, pingErr = member("pc03").Stack.Ping(p, v.IP(), 56, 5*time.Second)
		pinged = true
	})
	w.Eng.RunFor(15 * time.Second)
	if !pinged || pingErr != nil {
		t.Fatalf("pre-migration ping: done=%v err=%v", pinged, pingErr)
	}

	// An in-flight TCP session rides across the migration: the VM runs a
	// sink, a co-member streams to it paced over ~10 s while the Apply
	// below relocates the VM.
	total := 100 * 16384
	received := 0
	var srvErr, sendErr error
	sendDone := false
	w.Eng.Spawn("vm-server", func(p *sim.Proc) {
		l, err := v.Stack().Listen(5001)
		if err != nil {
			srvErr = err
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 32<<10)
		for {
			nn, err := c.Read(p, buf)
			received += nn
			if err == io.EOF {
				return
			}
			if err != nil {
				srvErr = err
				return
			}
		}
	})
	w.Eng.Spawn("client", func(p *sim.Proc) {
		defer func() { sendDone = true }()
		c, err := member("pc01").Stack.Dial(p, netsim.Addr{IP: v.IP(), Port: 5001})
		if err != nil {
			sendErr = err
			return
		}
		chunk := make([]byte, 16384)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(p, chunk); err != nil {
				sendErr = err
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
		c.Close()
	})
	w.Eng.RunFor(500 * time.Millisecond) // let the stream establish

	spec.VMs[0].Host = "pc02"
	rep, err = w.ApplySync(spec)
	if err != nil {
		t.Fatalf("migrating apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "vm-migrate" {
		t.Fatalf("ops = %q, want exactly vm-migrate", ops)
	}
	if host, _ := w.VMHost("web"); host != "pc02" {
		t.Fatalf("VM on %q after migration, want pc02", host)
	}
	if v.Host().Name() != "pc02" {
		t.Fatalf("VM host port says %q, want pc02", v.Host().Name())
	}
	// Only members carry the tenant's segment — the vif cannot have
	// visited a host outside the network.
	if v.MigrationsDone != 1 || v.Aborts != 0 {
		t.Fatalf("VM migrations=%d aborts=%d, want 1 and 0", v.MigrationsDone, v.Aborts)
	}

	// Drain the stream to completion: every byte crossed the migration.
	for spent := 0; !sendDone && spent < 120; spent++ {
		w.Eng.RunFor(time.Second)
	}
	w.Eng.RunFor(5 * time.Second)
	if srvErr != nil || sendErr != nil {
		t.Fatalf("stream: srv=%v send=%v", srvErr, sendErr)
	}
	if received != total {
		t.Fatalf("received %d of %d across the migration", received, total)
	}

	// Idempotent: the converged spec re-applies to an empty report.
	again, err := w.ApplySync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("re-apply not idempotent: %v", again)
	}

	// Dropping the VM from the spec evicts it.
	spec.VMs = nil
	rep, err = w.ApplySync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "vm-evict" {
		t.Fatalf("ops = %q, want exactly vm-evict", ops)
	}
	if _, ok := w.ResolveVM("web"); ok {
		t.Fatal("evicted VM still resolvable")
	}
}

// TestPlacementSchedulerUsesLocality spreads a network over a tight and
// a distant cluster: with measured RTTs reported to the locator, an
// unpinned VM must land inside the tight cluster, and the tenant's VM
// quota must refuse a spec exceeding it.
func TestPlacementSchedulerUsesLocality(t *testing.T) {
	near := []string{"n0", "n1", "n2"}
	far := []string{"f0", "f1", "f2"}
	var specs []Spec
	for _, k := range near {
		specs = append(specs, Spec{Key: k, RTTToHub: time.Millisecond, AccessBps: 100e6, NAT: nat.FullCone})
	}
	for _, k := range far {
		specs = append(specs, Spec{Key: k, RTTToHub: 60 * time.Millisecond, AccessBps: 100e6, NAT: nat.FullCone})
	}
	w, err := Build(52, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.71.0.0/24", StaticAddressing: true,
			Members: append(append([]string(nil), near...), far...),
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	if err := w.ReportNetRTTs("vnet"); err != nil {
		t.Fatal(err)
	}
	spec.VMs = []vpc.VMSpec{{Name: "batch", Network: "vnet", IP: "10.71.0.200", MemoryMB: 32}}
	rep, err := w.ApplySync(spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	host, ok := w.VMHost("batch")
	if !ok {
		t.Fatal("VM not placed")
	}
	isNear := false
	for _, k := range near {
		if host == k {
			isNear = true
		}
	}
	if !isNear {
		t.Fatalf("scheduler placed the VM on %q, want a tight-cluster host %v", host, near)
	}
	reg := w.Scrape()
	if reg.Total("placement.placements") == 0 || reg.Total("placement.group_hits") == 0 {
		t.Fatalf("placement counters: want a locality-core hit\n%s", reg)
	}
	// A scheduler choice is sticky: re-applying does not move the VM.
	again, err := w.ApplySync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("re-apply not idempotent: %v", again)
	}

	// The VM quota is a declarative envelope: a spec past it is refused
	// before any state is touched.
	over := spec
	over.Quota.MaxVMs = 1
	over.VMs = append([]vpc.VMSpec(nil), spec.VMs...)
	over.VMs = append(over.VMs, vpc.VMSpec{Name: "extra", Network: "vnet", IP: "10.71.0.201"})
	if _, err := w.ApplySync(over); err == nil || !strings.Contains(err.Error(), "MaxVMs") {
		t.Fatalf("over-quota apply error = %v, want MaxVMs refusal", err)
	}
	if len(w.VPC().VMNames("acme")) != 1 {
		t.Fatalf("refused apply changed VM state: %v", w.VPC().VMNames("acme"))
	}
}

// TestChaosMigrationSurvivesBrokerFailover kills the source host's home
// broker in the middle of a live migration: the data plane carries the
// pre-copy to completion regardless, the orphaned host re-homes onto
// the surviving declared broker, and the VM answers pings afterwards.
func TestChaosMigrationSurvivesBrokerFailover(t *testing.T) {
	w, err := Build(53, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if _, err := w.AddBroker("b1", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	b2, err := w.AddBroker("b2", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	witness, err := w.AddBroker("witness", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{"pc00": "b1", "pc01": "b2", "pc02": "b2"} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "mnet", CIDR: "10.72.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02"},
			Brokers: []string{"b1", "b2"},
		}},
		VMs: []vpc.VMSpec{{
			Name: "db", Network: "mnet", IP: "10.72.0.200", MemoryMB: 64, Host: "pc00",
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}

	// Kill the source's home broker 2 s into the migration (64 MB at
	// ~100 Mbps runs ~6 s); the transfer must not notice.
	fi := w.Inject(KillBrokerAt(2*time.Second, "b1"))
	spec.VMs[0].Host = "pc01"
	rep, err := w.ApplySync(spec)
	if err != nil {
		t.Fatalf("migrating apply: %v (report: %v)", err, rep)
	}
	if ops := strings.Join(rep.Ops(), ","); ops != "vm-migrate" {
		t.Fatalf("ops = %q, want exactly vm-migrate", ops)
	}
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if host, _ := w.VMHost("db"); host != "pc01" {
		t.Fatalf("VM on %q, want pc01", host)
	}

	// The orphaned source re-homes onto the surviving declared broker.
	ttl := chaosBrokerCfg().SessionTTL
	w.Eng.RunFor(ttl + 10*time.Second)
	if home, ok := w.CurrentHome("pc00"); !ok || home != "b2" {
		t.Fatalf("pc00 homed on %q, want b2", home)
	}
	if !b2.HasSession("pc00") {
		t.Fatal("b2 has no session for the re-homed source host")
	}
	if w.M("pc00").WAV.Rehomes != 1 {
		t.Fatalf("pc00 counted %d rehomes, want 1", w.M("pc00").WAV.Rehomes)
	}

	// The VM converged and answers pings — including from the host that
	// just lost and re-elected its broker.
	v, _ := w.ResolveVM("db")
	n, _ := w.VPC().Get("mnet")
	for _, key := range []string{"pc00", "pc02"} {
		m, _ := n.Member(key)
		var pingErr error
		pinged := false
		w.Eng.Spawn("ping-"+key, func(p *sim.Proc) {
			_, pingErr = m.Stack.Ping(p, v.IP(), 56, 5*time.Second)
			pinged = true
		})
		w.Eng.RunFor(15 * time.Second)
		if !pinged || pingErr != nil {
			t.Fatalf("post-failover ping from %s: done=%v err=%v", key, pinged, pingErr)
		}
	}
	// The unnamed witness learned nothing through the whole episode.
	if got := witness.RecordsFor("mnet"); got != 0 {
		t.Fatalf("witness broker holds %d mnet records, want 0", got)
	}
}
