package vpc_test

import (
	"strings"
	"testing"
	"time"

	"wavnet/internal/scenario"
	"wavnet/internal/vpc"
)

// TestApplyServiceLifecycle drives one service through its declarative
// life: creation with a pool-drawn VIP, idempotent re-apply, a probe
// knob change (VIP stays sticky), a VIP re-pin, eviction, and a full
// tenant teardown where the service pre-pass runs before any eviction.
func TestApplyServiceLifecycle(t *testing.T) {
	w, err := scenario.Build(19, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustApply := func(spec vpc.TenantSpec, wantOps string) {
		t.Helper()
		rep, err := apply(t, w, spec)
		if err != nil {
			t.Fatalf("apply: %v (report so far: %v)", err, rep)
		}
		if got := ops(rep); got != wantOps {
			t.Fatalf("ops = %q, want %q", got, wantOps)
		}
		again, err := apply(t, w, spec)
		if err != nil {
			t.Fatalf("re-apply: %v", err)
		}
		if !again.Empty() {
			t.Fatalf("re-apply not idempotent: %v", again)
		}
	}

	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "app", CIDR: "10.34.0.0/24", StaticAddressing: true,
			ServicePool: "10.34.0.64/28",
			Members:     []string{"pc00", "pc01", "pc02"},
		}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "app",
			Backends: []vpc.BackendSpec{{Member: "pc01"}, {Member: "pc02"}},
		}},
	}
	mustApply(spec, "create-network,admit,admit,admit,service-create")
	vip, ok := w.VPC().ServiceVIP("web")
	if !ok || vip.String() != "10.34.0.64" {
		t.Fatalf("VIP = %v (ok=%v), want first pool address 10.34.0.64", vip, ok)
	}
	svc, ok := w.VPC().Service("web")
	if !ok || !svc.Running() {
		t.Fatal("service not running after apply")
	}

	// Members never landed inside the carve-out.
	n, _ := w.VPC().Get("app")
	for _, m := range n.Members() {
		if pool, has := n.ServicePool(); has && pool.Contains(m.IP) {
			t.Fatalf("member %s addressed inside the service pool: %s", m.Host.Name(), m.IP)
		}
	}

	// A probe-budget change rebuilds the service; the pool allocation is
	// sticky across the rebuild.
	spec.Services[0].Fall = 5
	mustApply(spec, "service-update")
	if vip2, _ := w.VPC().ServiceVIP("web"); vip2 != vip {
		t.Fatalf("VIP moved across a knob change: %s -> %s", vip, vip2)
	}

	// Re-pinning the VIP moves the service and releases the old address
	// back to the pool: a second service allocates it.
	spec.Services[0].VIP = "10.34.0.70"
	mustApply(spec, "service-update")
	if vip2, _ := w.VPC().ServiceVIP("web"); vip2.String() != "10.34.0.70" {
		t.Fatalf("VIP = %s after re-pin, want 10.34.0.70", vip2)
	}
	spec.Services = append(spec.Services, vpc.ServiceSpec{
		Name: "api", Network: "app",
		Backends: []vpc.BackendSpec{{Member: "pc02"}},
	})
	mustApply(spec, "service-create")
	if vip2, _ := w.VPC().ServiceVIP("api"); vip2.String() != "10.34.0.64" {
		t.Fatalf("api VIP = %s, want the released 10.34.0.64", vip2)
	}

	// Dropping one service evicts exactly it.
	spec.Services = spec.Services[:1]
	mustApply(spec, "service-evict")
	if _, ok := w.VPC().Service("api"); ok {
		t.Fatal("api still resolvable after eviction")
	}

	// Full teardown in one apply: the service pre-pass stops the service
	// while its network and backends still exist, then members leave,
	// then the network goes.
	spec.Networks = nil
	spec.Services = nil
	mustApply(spec, "service-evict,evict,evict,evict,delete-network")
	if svc.Running() {
		t.Fatal("service still running after teardown")
	}
	if names := w.VPC().ServiceNames("acme"); len(names) != 0 {
		t.Fatalf("services survive teardown: %v", names)
	}
}

// TestApplyServiceVIPReservationBlocksDHCP: a pinned VIP on a DHCP
// network is reserved against the network's server at service
// admission — a later member must lease around it — and released at
// eviction.
func TestApplyServiceVIPReservationBlocksDHCP(t *testing.T) {
	w, err := scenario.Build(23, scenario.EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.35.0.0/24",
			Members: []string{"pc00", "pc01"},
		}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	// Pool starts at .2; pc01 leased it. The VIP pins .3, which the
	// server would otherwise offer to the next client.
	spec.Services = []vpc.ServiceSpec{{
		Name: "web", Network: "vnet", VIP: "10.35.0.3",
		Backends: []vpc.BackendSpec{{Member: "pc01"}},
	}}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc02")
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	n, _ := w.VPC().Get("vnet")
	m, _ := n.Member("pc02")
	if m.IP.String() != "10.35.0.4" {
		t.Fatalf("pc02 leased %s, want 10.35.0.4 (VIP holds .3)", m.IP)
	}

	// Eviction releases the address: the next member leases it.
	spec.Services = nil
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc03")
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	m3, _ := n.Member("pc03")
	if m3.IP.String() != "10.35.0.3" {
		t.Fatalf("pc03 leased %s, want the released 10.35.0.3", m3.IP)
	}
}

// TestApplyServiceRejects: invalid service declarations must be refused
// at validation, before the apply mutates anything.
func TestApplyServiceRejects(t *testing.T) {
	w, err := scenario.Build(29, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := func() vpc.TenantSpec {
		return vpc.TenantSpec{
			Tenant: "acme",
			Networks: []vpc.NetworkSpec{{
				Name: "app", CIDR: "10.36.0.0/24", StaticAddressing: true,
				ServicePool: "10.36.0.64/28",
				Members:     []string{"pc00", "pc01"},
			}},
			VMs: []vpc.VMSpec{{Name: "job", Network: "app", IP: "10.36.0.40", MemoryMB: 16, Host: "pc00"}},
			Services: []vpc.ServiceSpec{{
				Name: "web", Network: "app",
				Backends: []vpc.BackendSpec{{Member: "pc01"}},
			}},
		}
	}
	cases := []struct {
		name string
		mut  func(*vpc.TenantSpec)
		want string
	}{
		{"vip outside the declared pool", func(s *vpc.TenantSpec) {
			s.Services[0].VIP = "10.36.0.5"
		}, "outside network \"app\"'s declared service pool"},
		{"vip outside the network", func(s *vpc.TenantSpec) {
			s.Services[0].VIP = "10.99.0.5"
		}, "outside network"},
		{"vip on the gateway", func(s *vpc.TenantSpec) {
			s.Services[0].VIP = "10.36.0.1"
		}, "gateway"},
		{"backend outside the network", func(s *vpc.TenantSpec) {
			s.Services[0].Backends = []vpc.BackendSpec{{Member: "pc02"}}
		}, "not a member of network"},
		{"backend names unknown vm", func(s *vpc.TenantSpec) {
			s.Services[0].Backends = []vpc.BackendSpec{{VM: "ghost"}}
		}, "unknown VM"},
		{"backend names both member and vm", func(s *vpc.TenantSpec) {
			s.Services[0].Backends = []vpc.BackendSpec{{Member: "pc01", VM: "job"}}
		}, "exactly one"},
		{"unpooled network with unpinned vip", func(s *vpc.TenantSpec) {
			s.Networks[0].ServicePool = ""
		}, "declares no service pool"},
		{"duplicate vip", func(s *vpc.TenantSpec) {
			s.Services[0].VIP = "10.36.0.70"
			s.Services = append(s.Services, vpc.ServiceSpec{
				Name: "web2", Network: "app", VIP: "10.36.0.70",
				Backends: []vpc.BackendSpec{{Member: "pc00"}},
			})
		}, "two services claim VIP"},
		{"vm address inside the pool", func(s *vpc.TenantSpec) {
			s.VMs[0].IP = "10.36.0.65"
		}, "falls inside network"},
		{"pool not strictly inside the cidr", func(s *vpc.TenantSpec) {
			s.Networks[0].ServicePool = "10.36.0.240/28"
			s.Services[0].VIP = "10.36.0.241"
		}, "strictly inside"},
		{"negative probe budget", func(s *vpc.TenantSpec) {
			s.Services[0].Timeout = -time.Second
		}, "negative probe budget"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mut(&spec)
		_, err := apply(t, w, spec)
		if err == nil {
			t.Fatalf("%s: apply succeeded, want rejection", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The world is untouched: the valid base spec still converges from
	// scratch.
	if _, err := apply(t, w, base()); err != nil {
		t.Fatalf("base spec after rejections: %v", err)
	}
}

// TestServiceTeardownGuards: a spec that drops a live service's backend
// member while the service still names it is refused before anything
// moves, while the spec-driven teardown converges deterministically.
func TestServiceTeardownGuards(t *testing.T) {
	w, err := scenario.Build(31, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "app", CIDR: "10.37.0.0/24", StaticAddressing: true,
			ServicePool: "10.37.0.64/28",
			Members:     []string{"pc00", "pc01"},
		}},
		Services: []vpc.ServiceSpec{{
			Name: "web", Network: "app",
			Backends: []vpc.BackendSpec{{Member: "pc01"}},
		}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}

	spec.Networks[0].Members = []string{"pc00"}
	if _, err := apply(t, w, spec); err == nil || !strings.Contains(err.Error(), "is not a member of network") {
		t.Fatalf("dropping a live backend = %v, want a validation refusal", err)
	}
	n, _ := w.VPC().Get("app")
	if _, in := n.Member("pc01"); !in {
		t.Fatal("refused apply evicted the backend")
	}
	if _, ok := w.VPC().Service("web"); !ok {
		t.Fatal("refused apply removed the service")
	}

	// The declarative path tears everything down in one deterministic
	// apply: service first, then members, then the network.
	spec.Networks = nil
	spec.Services = nil
	rep, err := apply(t, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(rep); got != "service-evict,evict,evict,delete-network" {
		t.Fatalf("teardown ops = %q", got)
	}
	if _, ok := w.VPC().Get("app"); ok {
		t.Fatal("network survives teardown")
	}
}
