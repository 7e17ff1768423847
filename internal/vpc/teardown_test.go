package vpc_test

import (
	"testing"
	"time"

	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// Teardown promptness: with the interrupt flag sticky in the sim core,
// the mesh-repair and service-probe loops exit as soon as their stop
// request lands — no flag-gate in vpc/service code, no waiting out
// another interval, no zombie proc parked inside a nested wait.

func TestMeshRepairStopsOnTeardown(t *testing.T) {
	w, err := scenario.Build(31, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "app", CIDR: "10.70.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	n, ok := w.VPC().Get("app")
	if !ok || !n.MeshRepairAlive() {
		t.Fatal("mesh-repair loop not running after admission")
	}
	// Let the loop take a few rounds so it is parked mid-interval, the
	// steady state a teardown interrupts.
	w.Eng.RunFor(25 * time.Second)
	if !n.MeshRepairAlive() {
		t.Fatal("mesh-repair loop died on its own")
	}
	spec.Networks = nil
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	// ApplySync returns with the teardown's events drained: the loop
	// must already be dead, not merely signalled.
	if n.MeshRepairAlive() {
		t.Fatal("mesh-repair loop survives network teardown")
	}
}

func TestServiceProbeStopsWhileParkedInPing(t *testing.T) {
	w, err := scenario.Build(32, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "app", CIDR: "10.71.0.0/24", StaticAddressing: true,
			ServicePool: "10.71.0.64/28",
			Members:     []string{"pc00", "pc01", "pc02"},
		}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "app",
			Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc02"}},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	svc, ok := w.VPC().Service("web")
	if !ok || svc.ProbeDead() {
		t.Fatal("probe loop not running after apply")
	}
	// Cut the prober off from both backends: every probe now parks the
	// full timeout inside Ping, so a stop is near-certain to land while
	// the proc is deep in the stack's wait queue, not in its Sleep.
	if err := w.Partition("pc00", "pc01"); err != nil {
		t.Fatal(err)
	}
	if err := w.Partition("pc00", "pc02"); err != nil {
		t.Fatal(err)
	}
	// Watcher: the probes_sent bump happens just before the ping parks;
	// stopping at the next 10 ms tick catches the proc mid-ping.
	sent0 := svc.ProbesSent
	var stoppedAt sim.Time
	w.Eng.Spawn("watcher", func(p *sim.Proc) {
		for svc.ProbesSent == sent0 {
			p.Sleep(10 * time.Millisecond)
		}
		svc.Stop()
		stoppedAt = p.Now()
	})
	w.Eng.RunFor(30 * time.Second)
	if stoppedAt == 0 {
		t.Fatal("no probe was ever observed; fixture broken")
	}
	if !svc.ProbeDead() {
		t.Fatal("probe loop survives Stop")
	}
	// The loop must not have run another round after the stop landed.
	sentAtStop := svc.ProbesSent
	w.Eng.RunFor(10 * time.Second)
	if got := svc.ProbesSent; got != sentAtStop {
		t.Fatalf("probes kept flowing after Stop: %d -> %d", sentAtStop, got)
	}
}
