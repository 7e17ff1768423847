package vpc_test

import (
	"strings"
	"testing"
	"time"

	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// apply converges one spec through the public synchronous entry point.
func apply(t *testing.T, w *scenario.World, spec vpc.TenantSpec) (*vpc.ApplyReport, error) {
	t.Helper()
	return w.ApplySync(spec)
}

func ops(rep *vpc.ApplyReport) string { return strings.Join(rep.Ops(), ",") }

// TestApplyLifecycle drives one tenant through its whole declarative
// life: create, grow, shrink, peer, unpeer, re-quota, tear down — and
// checks that every intermediate re-apply of the same spec is a no-op.
func TestApplyLifecycle(t *testing.T) {
	w, err := scenario.Build(5, scenario.EmulatedWANSpecs(4, 100e6), nil)
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

	// Birth: one network, two members, a quota.
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{
			{Name: "app", CIDR: "10.10.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true},
		},
		Quota: vpc.QuotaSpec{RateBps: 8e6},
	}
	mustApply(spec, "create-network,admit,admit,set-quota")
	n, _ := w.VPC().Get("app")
	if n.Tenant != "acme" {
		t.Fatalf("network owner %q", n.Tenant)
	}
	if q, ok := n.Members()[0].Host.VNIQuota(n.VNI); !ok || q.RateBps != 8e6 {
		t.Fatalf("member quota = %+v %v", q, ok)
	}

	// Growth: a second network, a third member, a peering.
	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc02")
	spec.Networks = append(spec.Networks, vpc.NetworkSpec{
		Name: "db", CIDR: "10.20.0.0/24", Members: []string{"pc03"}, StaticAddressing: true,
	})
	spec.Peerings = []vpc.PeeringSpec{{A: "app", B: "db"}}
	// Network creation reconciles before membership, so db appears
	// before pc02's admission into app.
	mustApply(spec, "create-network,admit,admit,peer,peer-connect,peer-connect,peer-connect")

	// Policy change alone re-peers without reconnecting.
	spec.Peerings[0].AllowB = []string{"10.20.0.0/31"}
	mustApply(spec, "repeer")

	// Shrink: drop a member; its host must be reusable afterwards.
	spec.Networks[0].Members = []string{"pc00", "pc01"}
	mustApply(spec, "evict")
	if net, vni := w.M("pc02").WAV.Network(); net != "" || vni != 0 {
		t.Fatalf("evicted host still scoped to %q/%d", net, vni)
	}

	// Unpeer and delete the db network in one apply: the peering goes
	// first (while both sides exist) and reports the tunnels it tears
	// down, then members, then the network. Only 2 of the 3 recorded
	// peer links still have their app-side host (pc02 was evicted), but
	// all 3 disconnects are reported.
	spec.Peerings = nil
	spec.Networks = spec.Networks[:1]
	mustApply(spec, "unpeer,peer-disconnect,peer-disconnect,peer-disconnect,evict,delete-network")
	if _, ok := w.VPC().Get("db"); ok {
		t.Fatal("db still exists")
	}

	// Quota withdrawal.
	spec.Quota = vpc.QuotaSpec{}
	mustApply(spec, "clear-quota")
	if _, ok := n.Members()[0].Host.VNIQuota(n.VNI); ok {
		t.Fatal("quota still set after clear")
	}

	// A snapshot of live state applies as a no-op.
	snap := w.VPC().SnapshotTenant("acme")
	rep, err := apply(t, w, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("snapshot apply not a no-op: %v", rep)
	}
}

// TestApplyMovesMemberBetweenNetworks: moving a host from one of the
// tenant's networks to another must converge regardless of the order
// the networks appear in the spec (all evictions run before any
// admission).
func TestApplyMovesMemberBetweenNetworks(t *testing.T) {
	w, err := scenario.Build(13, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{
			{Name: "b", CIDR: "10.20.0.0/24", Members: []string{"pc02"}, StaticAddressing: true},
			{Name: "a", CIDR: "10.10.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true},
		},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	// Move pc01 from a to b; the destination network is declared FIRST.
	spec.Networks[0].Members = []string{"pc02", "pc01"}
	spec.Networks[1].Members = []string{"pc00"}
	rep, err := apply(t, w, spec)
	if err != nil {
		t.Fatalf("move did not converge: %v", err)
	}
	if got := ops(rep); got != "evict,admit" {
		t.Fatalf("ops = %q, want evict,admit", got)
	}
	b, _ := w.VPC().Get("b")
	if _, in := b.Member("pc01"); !in {
		t.Fatal("pc01 not in b after the move")
	}
}

// TestJoinVPCAdoptsExistingMembers: a spec that joins a machine to an
// imperatively created network adopts the network and keeps the member
// that was already admitted outside the spec machinery.
func TestJoinVPCAdoptsExistingMembers(t *testing.T) {
	w, err := scenario.Build(17, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.VPC().Create("legacy", "10.7.0.0/24", vpc.NetworkConfig{StaticAddressing: true}); err != nil {
		t.Fatal(err)
	}
	// Admit pc00 through the raw manager (no tenant ownership at all).
	var admitErr error
	w.Eng.Spawn("admit", func(p *sim.Proc) {
		h, err := w.ResolveHost(p, "pc00")
		if err != nil {
			admitErr = err
			return
		}
		_, admitErr = w.VPC().Admit(p, h, "legacy")
	})
	w.Eng.RunFor(time.Minute)
	if admitErr != nil {
		t.Fatal(admitErr)
	}
	rep, err := w.ApplySync(vpc.TenantSpec{Tenant: "legacy", Networks: []vpc.NetworkSpec{{
		Name: "legacy", CIDR: "10.7.0.0/24", StaticAddressing: true, Members: []string{"pc00", "pc01"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(rep); got != "adopt-network,admit" {
		t.Fatalf("ops = %q, want adopt-network,admit", got)
	}
	n, _ := w.VPC().Get("legacy")
	if len(n.Members()) != 2 {
		t.Fatalf("members = %d, want 2 (adoption evicted the pre-existing member?)", len(n.Members()))
	}
	if _, in := n.Member("pc00"); !in {
		t.Fatal("pc00 was evicted by the adoption")
	}
	if n.Tenant != "legacy" {
		t.Fatalf("network not adopted: tenant %q", n.Tenant)
	}
}

// TestUnpeerKeepsSharedFabric: removing a peering tears down only the
// tunnels the peering created. A tunnel that predates it (the shared
// default-network fabric) keeps carrying its other traffic.
func TestUnpeerKeepsSharedFabric(t *testing.T) {
	w, err := scenario.Build(9, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default-network mesh FIRST: pc00-pc01 tunnel + Dom0 stacks.
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{
			{Name: "a", CIDR: "10.10.0.0/24", Members: []string{"pc00"}, StaticAddressing: true},
			{Name: "b", CIDR: "10.20.0.0/24", Members: []string{"pc01"}, StaticAddressing: true},
		},
		Peerings: []vpc.PeeringSpec{{A: "a", B: "b"}},
	}
	rep, err := apply(t, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The fabric tunnel already existed, so peering must not have
	// created (and therefore must not later destroy) any.
	for _, a := range rep.Actions {
		if a.Op == "peer-connect" {
			t.Fatalf("peer-connect over a pre-existing tunnel: %v", a)
		}
	}
	spec.Peerings = nil
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	tun, ok := w.M("pc00").WAV.Tunnel("pc01")
	if !ok || !tun.Established() {
		t.Fatal("unpeer severed the pre-existing shared-fabric tunnel")
	}
	// And the default virtual LAN still works over it.
	var rtt sim.Duration
	var pingErr error
	w.Eng.Spawn("ping", func(p *sim.Proc) {
		w.M("pc00").Dom0().Ping(p, w.M("pc01").VIP, 56, 5*time.Second)
		rtt, pingErr = w.M("pc00").Dom0().Ping(p, w.M("pc01").VIP, 56, 5*time.Second)
	})
	w.Eng.RunFor(30 * time.Second)
	if pingErr != nil || rtt <= 0 {
		t.Fatalf("default-LAN ping after unpeer: rtt=%v err=%v", rtt, pingErr)
	}
}

// TestApplyRejects covers the error paths: invalid specs, ownership
// collisions, and convergence the reconciler must refuse.
func TestApplyRejects(t *testing.T) {
	w, err := scenario.Build(6, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []vpc.TenantSpec{
		{}, // no tenant name
		{Tenant: "t", Networks: []vpc.NetworkSpec{{Name: "", CIDR: "10.0.0.0/24"}}},
		{Tenant: "t", Networks: []vpc.NetworkSpec{{Name: "a", CIDR: "nope"}}},
		{Tenant: "t", Networks: []vpc.NetworkSpec{
			{Name: "a", CIDR: "10.0.0.0/24"}, {Name: "a", CIDR: "10.1.0.0/24"}}},
		{Tenant: "t", Networks: []vpc.NetworkSpec{
			{Name: "a", CIDR: "10.0.0.0/24", Members: []string{"pc00"}},
			{Name: "b", CIDR: "10.1.0.0/24", Members: []string{"pc00"}}}},
		{Tenant: "t", Networks: []vpc.NetworkSpec{{Name: "a", CIDR: "10.0.0.0/24"}},
			Peerings: []vpc.PeeringSpec{{A: "a", B: "ghost"}}},
		{Tenant: "t", Networks: []vpc.NetworkSpec{{Name: "a", CIDR: "10.0.0.0/24"}},
			Peerings: []vpc.PeeringSpec{{A: "a", B: "a"}}},
	}
	for i, spec := range bad {
		if _, err := apply(t, w, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}

	// Ownership: tenant two cannot claim tenant one's network.
	good := vpc.TenantSpec{Tenant: "one", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.0.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true}}}
	if _, err := apply(t, w, good); err != nil {
		t.Fatal(err)
	}
	thief := vpc.TenantSpec{Tenant: "two", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.0.0.0/24"}}}
	if _, err := apply(t, w, thief); err == nil || !strings.Contains(err.Error(), "belongs to tenant") {
		t.Fatalf("ownership violation: %v", err)
	}

	// A populated network cannot silently change CIDR.
	moved := vpc.TenantSpec{Tenant: "one", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.9.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true}}}
	if _, err := apply(t, w, moved); err == nil || !strings.Contains(err.Error(), "cannot converge") {
		t.Fatalf("CIDR change on populated network: %v", err)
	}

	// Removing the anchor while keeping members cannot converge.
	headless := vpc.TenantSpec{Tenant: "one", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.0.0.0/24", Members: []string{"pc01"}, StaticAddressing: true}}}
	if _, err := apply(t, w, headless); err == nil || !strings.Contains(err.Error(), "anchors") {
		t.Fatalf("anchor removal: %v", err)
	}

	// An EMPTY network may change CIDR: recreate from the spec.
	empty := vpc.TenantSpec{Tenant: "one", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.0.0.0/24", StaticAddressing: true}}}
	if _, err := apply(t, w, empty); err != nil {
		t.Fatal(err)
	}
	recreated := vpc.TenantSpec{Tenant: "one", Networks: []vpc.NetworkSpec{
		{Name: "net", CIDR: "10.9.0.0/24", StaticAddressing: true}}}
	rep, err := apply(t, w, recreated)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(rep); got != "recreate-network" {
		t.Fatalf("ops = %q", got)
	}
}

// TestApplyVMFollowsMembership: when a VM's current host leaves its
// network in the same apply, the VM cannot migrate (its source end is
// leaving the tenant), so the pre-pass detaches it and the placement
// pass boots it fresh on a surviving member. An imperative eviction of
// a host still running a VM is refused outright.
func TestApplyVMFollowsMembership(t *testing.T) {
	w, err := scenario.Build(14, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.30.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02"},
		}},
		VMs: []vpc.VMSpec{{Name: "job", Network: "vnet", IP: "10.30.0.200", MemoryMB: 16, Host: "pc02"}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}

	// Evicting pc02 imperatively while the VM runs there is refused.
	n, _ := w.VPC().Get("vnet")
	m, _ := n.Member("pc02")
	evictErr := error(nil)
	evicted := false
	w.Eng.Spawn("evict", func(p *sim.Proc) {
		evictErr = w.VPC().Evict(p, m.Host, "vnet")
		evicted = true
	})
	w.Eng.RunFor(10 * time.Second)
	if !evicted || evictErr == nil || !strings.Contains(evictErr.Error(), "still runs VM") {
		t.Fatalf("evicting a VM's host: done=%v err=%v", evicted, evictErr)
	}

	// Declaratively dropping the host (with the VM unpinned) re-places
	// the VM on a surviving member: evict before the membership change,
	// place after it.
	spec.Networks[0].Members = []string{"pc00", "pc01"}
	spec.VMs[0].Host = ""
	rep, err := apply(t, w, spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	got := ops(rep)
	if !strings.Contains(got, "vm-evict") || !strings.Contains(got, "evict") ||
		!strings.Contains(got, "vm-place") {
		t.Fatalf("ops = %q, want vm-evict ... evict ... vm-place", got)
	}
	host, ok := w.VPC().VMHost("job")
	if !ok || (host != "pc00" && host != "pc01") {
		t.Fatalf("VM on %q, want a surviving member", host)
	}
	// Idempotent afterwards.
	again, err := apply(t, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("re-apply not idempotent: %v", again)
	}
}

// TestApplyVMAddressReservation: a VM's spec'd IP is pinned against the
// network's address pools — a spec claiming a member's live address is
// refused at placement, static assignment skips reserved addresses when
// later members join, and eviction releases the reservation.
func TestApplyVMAddressReservation(t *testing.T) {
	w, err := scenario.Build(15, scenario.EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.31.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01"},
		}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	n, _ := w.VPC().Get("vnet")
	// Static addressing: anchor pc00 = .1, pc01 = .2; a VM claiming .2
	// collides with pc01 and must be refused.
	taken := spec
	taken.VMs = []vpc.VMSpec{{Name: "clash", Network: "vnet", IP: "10.31.0.2", MemoryMB: 16, Host: "pc00"}}
	if _, err := apply(t, w, taken); err == nil || !strings.Contains(err.Error(), "already belongs to member") {
		t.Fatalf("member-address clash error = %v", err)
	}

	// A VM at .3 — exactly where the static cursor points next — forces
	// the next admitted member to skip to .4.
	spec.VMs = []vpc.VMSpec{{Name: "job", Network: "vnet", IP: "10.31.0.3", MemoryMB: 16, Host: "pc00"}}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc02")
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	m, _ := n.Member("pc02")
	if m.IP.String() != "10.31.0.4" {
		t.Fatalf("pc02 got %s, want 10.31.0.4 (VM holds .3)", m.IP)
	}

	// Eviction releases the reservation: the next member takes .3... the
	// cursor already moved past it, but a fresh VM may claim it again.
	spec.VMs = nil
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.VMs = []vpc.VMSpec{{Name: "job2", Network: "vnet", IP: "10.31.0.3", MemoryMB: 16, Host: "pc00"}}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatalf("re-claiming a released VM address: %v", err)
	}
}

// TestApplyVMReservationBlocksDHCP: on a DHCP-addressed network the
// VM's address is reserved on the per-network server, so a member
// joining later leases around it.
func TestApplyVMReservationBlocksDHCP(t *testing.T) {
	w, err := scenario.Build(16, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.32.0.0/24",
			Members: []string{"pc00", "pc01"},
		}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	// Pool starts at .2; pc01 leased it. The VM takes .3, which the
	// server would otherwise offer to the next client.
	spec.VMs = []vpc.VMSpec{{Name: "job", Network: "vnet", IP: "10.32.0.3", MemoryMB: 16, Host: "pc00"}}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.Networks[0].Members = append(spec.Networks[0].Members, "pc02")
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	n, _ := w.VPC().Get("vnet")
	m, _ := n.Member("pc02")
	v, _ := w.VPC().VM("job")
	if m.IP == v.IP() {
		t.Fatalf("DHCP leased the VM's reserved address %s to pc02", m.IP)
	}
	if m.IP.String() != "10.32.0.4" {
		t.Fatalf("pc02 leased %s, want 10.32.0.4 (VM holds .3)", m.IP)
	}
}

// TestApplyVMReservationSurvivesReplace is the regression guard for a
// one-apply race: a VM the spec still wants is evicted by the pre-pass
// (geometry change forces recreate) while a new DHCP member joins in
// the same apply. The VM's address reservation must survive the
// eviction, or the fresh member leases the address and the re-place
// fails on a perfectly valid spec.
func TestApplyVMReservationSurvivesReplace(t *testing.T) {
	w, err := scenario.Build(17, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "vnet", CIDR: "10.33.0.0/24", Members: []string{"pc00"},
		}},
		VMs: []vpc.VMSpec{{Name: "job", Network: "vnet", IP: "10.33.0.2", MemoryMB: 16, Host: "pc00"}},
	}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}
	spec.Networks[0].Members = []string{"pc00", "pc01"}
	if _, err := apply(t, w, spec); err != nil {
		t.Fatal(err)
	}

	// One apply: pc01 out, pc02 in, and the VM's memory doubles (the
	// pre-pass must evict + re-place it at the same address).
	spec.Networks[0].Members = []string{"pc00", "pc02"}
	spec.VMs[0].MemoryMB = 32
	rep, err := apply(t, w, spec)
	if err != nil {
		t.Fatalf("apply: %v (report: %v)", err, rep)
	}
	got := ops(rep)
	if !strings.Contains(got, "vm-evict") || !strings.Contains(got, "vm-place") {
		t.Fatalf("ops = %q, want vm-evict ... vm-place", got)
	}
	v, ok := w.VPC().VM("job")
	if !ok || v.IP().String() != "10.33.0.2" {
		t.Fatalf("VM missing or moved off its address: ok=%v ip=%v", ok, v.IP())
	}
	n, _ := w.VPC().Get("vnet")
	m, _ := n.Member("pc02")
	if m.IP == v.IP() {
		t.Fatalf("pc02 leased the VM's reserved address %s", m.IP)
	}
}
