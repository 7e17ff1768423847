package vpc_test

import (
	"strings"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

func TestParseCIDR(t *testing.T) {
	c, err := vpc.ParseCIDR("10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if c.Base != netsim.MustParseIP("10.0.0.0") || c.Bits != 24 {
		t.Fatalf("parsed %v", c)
	}
	if c.Mask() != netsim.MustParseIP("255.255.255.0") {
		t.Fatalf("mask %v", c.Mask())
	}
	if c.Broadcast() != netsim.MustParseIP("10.0.0.255") {
		t.Fatalf("broadcast %v", c.Broadcast())
	}
	if !c.Contains(netsim.MustParseIP("10.0.0.77")) || c.Contains(netsim.MustParseIP("10.0.1.1")) {
		t.Fatal("containment wrong")
	}
	// Non-aligned bases are truncated to the prefix.
	c2, err := vpc.ParseCIDR("10.0.0.9/24")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Base != netsim.MustParseIP("10.0.0.0") {
		t.Fatalf("base not masked: %v", c2.Base)
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/4", "nope/24", "10.0.0/24",
		"10.0.0.0/24x", "10.0.0.0/2 4", "10.0.0.0/24.", "10.0.0.0/"} {
		if _, err := vpc.ParseCIDR(bad); err == nil {
			t.Fatalf("ParseCIDR(%q) accepted", bad)
		}
	}
}

func TestManagerCRUD(t *testing.T) {
	mg := vpc.NewManager()
	red, err := mg.Create("red", "10.0.0.0/24", vpc.NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if red.VNI != 1 {
		t.Fatalf("auto VNI = %d, want 1", red.VNI)
	}
	blue, err := mg.Create("blue", "10.0.0.0/24", vpc.NetworkConfig{Default: true})
	if err != nil {
		t.Fatal(err)
	}
	if blue.VNI != 2 {
		t.Fatalf("auto VNI = %d, want 2", blue.VNI)
	}
	if _, err := mg.Create("red", "10.1.0.0/24", vpc.NetworkConfig{}); err != vpc.ErrNetworkExists {
		t.Fatalf("duplicate name: %v", err)
	}
	if _, err := mg.Create("green", "10.2.0.0/24", vpc.NetworkConfig{VNI: 2}); err != vpc.ErrVNIInUse {
		t.Fatalf("duplicate VNI: %v", err)
	}
	if _, err := mg.Create("usurper", "10.3.0.0/24", vpc.NetworkConfig{Default: true}); err != vpc.ErrDefaultExists {
		t.Fatalf("second default: %v", err)
	}
	if n, ok := mg.Get(""); !ok || n != blue {
		t.Fatal("default network not resolved")
	}
	if got := mg.Networks(); len(got) != 2 || got[0].Name != "blue" || got[1].Name != "red" {
		t.Fatalf("Networks() = %v", got)
	}
	if err := mg.Delete("red"); err != nil {
		t.Fatal(err)
	}
	if _, ok := mg.Get("red"); ok {
		t.Fatal("deleted network still resolvable")
	}
	// A deleted network's VNI may not come back even by explicit
	// pinning: stale segments for it could still pass the tag check.
	if _, err := mg.Create("necro", "10.4.0.0/24", vpc.NetworkConfig{VNI: red.VNI}); err != vpc.ErrVNIRetired {
		t.Fatalf("pinned retired VNI: %v", err)
	}
	if _, err := mg.Create("green", "10.2.0.0/24", vpc.NetworkConfig{}); err != nil {
		t.Fatal(err)
	}
	if n, _ := mg.Get("green"); n.VNI == red.VNI || n.VNI == blue.VNI {
		t.Fatalf("VNI %d reused", n.VNI)
	}
}

// applyNet declares a one-network tenant named after its network and
// converges the world onto it.
func applyNet(t *testing.T, w *scenario.World, name, cidr string, members ...string) {
	t.Helper()
	if _, err := w.ApplySync(vpc.TenantSpec{Tenant: name, Networks: []vpc.NetworkSpec{{
		Name: name, CIDR: cidr, Members: members,
	}}}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoTenantsOverlappingCIDR is the subsystem's acceptance test: two
// VPCs with the SAME 10.0.0.0/24 address space run concurrently over
// one shared physical WAN. Intra-tenant ping succeeds, cross-tenant
// ping (to an address only the other tenant owns) fails because ARP
// never resolves across tenants, and rendezvous Lookup from a tenant
// host sees co-tenants only.
func TestTwoTenantsOverlappingCIDR(t *testing.T) {
	w, err := scenario.Build(1, scenario.EmulatedWANSpecs(5, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	applyNet(t, w, "red", "10.0.0.0/24", "pc00", "pc01")
	applyNet(t, w, "blue", "10.0.0.0/24", "pc02", "pc03", "pc04")
	red, _ := w.VPC().Get("red")
	blue, _ := w.VPC().Get("blue")

	// Overlap: both anchors sit on 10.0.0.1, both second members lease
	// 10.0.0.2 from their own pool.
	rm, bm := red.Members(), blue.Members()
	if len(rm) != 2 || len(bm) != 3 {
		t.Fatalf("membership %d/%d", len(rm), len(bm))
	}
	if rm[0].IP != bm[0].IP || rm[0].IP != netsim.MustParseIP("10.0.0.1") {
		t.Fatalf("anchors %v/%v, want both 10.0.0.1", rm[0].IP, bm[0].IP)
	}
	if rm[1].IP != bm[1].IP || rm[1].IP != netsim.MustParseIP("10.0.0.2") {
		t.Fatalf("second members %v/%v, want both 10.0.0.2", rm[1].IP, bm[1].IP)
	}
	if blue.DHCPServer() == nil || len(blue.DHCPServer().Leases()) != 2 {
		t.Fatalf("blue DHCP leases = %v", blue.DHCPServer().Leases())
	}

	// Intra-tenant ping succeeds in both tenants — concurrently, on the
	// same addresses.
	var redRTT, blueRTT sim.Duration
	var redErr, blueErr error
	w.Eng.Spawn("red-ping", func(p *sim.Proc) {
		rm[0].Stack.Ping(p, rm[1].IP, 56, 5*time.Second) // warm ARP
		redRTT, redErr = rm[0].Stack.Ping(p, rm[1].IP, 56, 5*time.Second)
	})
	w.Eng.Spawn("blue-ping", func(p *sim.Proc) {
		bm[0].Stack.Ping(p, bm[1].IP, 56, 5*time.Second)
		blueRTT, blueErr = bm[0].Stack.Ping(p, bm[1].IP, 56, 5*time.Second)
	})
	w.Eng.RunFor(30 * time.Second)
	if redErr != nil || blueErr != nil {
		t.Fatalf("intra-tenant ping: red=%v blue=%v", redErr, blueErr)
	}
	if redRTT <= 0 || blueRTT <= 0 {
		t.Fatalf("rtts %v/%v", redRTT, blueRTT)
	}

	// Cross-tenant: 10.0.0.3 exists in blue only. A red host pinging it
	// gets nothing — its ARP broadcast never leaves the red tenant.
	target := bm[2].IP
	if target != netsim.MustParseIP("10.0.0.3") {
		t.Fatalf("blue third member at %v", target)
	}
	var crossErr, blueToThirdErr error
	w.Eng.Spawn("cross-ping", func(p *sim.Proc) {
		_, crossErr = rm[0].Stack.Ping(p, target, 56, 5*time.Second)
	})
	w.Eng.Spawn("blue-third", func(p *sim.Proc) {
		bm[0].Stack.Ping(p, target, 56, 5*time.Second)
		_, blueToThirdErr = bm[0].Stack.Ping(p, target, 56, 5*time.Second)
	})
	w.Eng.RunFor(30 * time.Second)
	if crossErr == nil {
		t.Fatal("cross-tenant ping succeeded; tenants are not isolated")
	}
	if blueToThirdErr != nil {
		t.Fatalf("blue-internal ping to %v failed: %v", target, blueToThirdErr)
	}

	// Rendezvous scoping: a red host resolves co-tenants but not blue
	// hosts, and a brokered cross-tenant connect is refused.
	redHost := rm[0].Host
	var coRecs, crossRecs int
	var lookErr, connErr error
	w.Eng.Spawn("lookups", func(p *sim.Proc) {
		recs, err := redHost.Lookup(p, "pc01")
		if err != nil {
			lookErr = err
			return
		}
		coRecs = len(recs)
		recs, err = redHost.Lookup(p, "pc02")
		if err != nil {
			lookErr = err
			return
		}
		crossRecs = len(recs)
		_, connErr = redHost.ConnectTo(p, "pc02")
	})
	w.Eng.RunFor(90 * time.Second)
	if lookErr != nil {
		t.Fatalf("lookup: %v", lookErr)
	}
	if coRecs != 1 {
		t.Fatalf("co-tenant lookup returned %d records, want 1", coRecs)
	}
	if crossRecs != 0 {
		t.Fatalf("cross-tenant lookup returned %d records, want 0", crossRecs)
	}
	if connErr == nil {
		t.Fatal("cross-tenant ConnectTo succeeded")
	}
	if !strings.Contains(connErr.Error(), "cross-tenant") &&
		connErr != nil && !strings.Contains(connErr.Error(), "punch") {
		t.Logf("cross-tenant connect failed with: %v", connErr)
	}

	// No tunnel ever crossed tenants, so no frames were dropped by the
	// data-plane tag check either — isolation held at the control plane.
	for _, m := range append(rm, bm...) {
		for peer := range m.Host.Tunnels() {
			sameNet := false
			for _, co := range append(rm, bm...) {
				if co.Host.Name() == peer {
					n1, _ := m.Host.Network()
					n2, _ := co.Host.Network()
					sameNet = n1 == n2
				}
			}
			if !sameNet {
				t.Fatalf("%s holds a tunnel to foreign host %s", m.Host.Name(), peer)
			}
		}
	}
}

// TestEvict checks membership teardown ordering.
func TestEvict(t *testing.T) {
	w, err := scenario.Build(3, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	applyNet(t, w, "solo", "10.5.0.0/24", "pc00", "pc01")
	n, _ := w.VPC().Get("solo")
	anchor := n.Members()[0]
	other := n.Members()[1]
	if err := w.VPC().Delete("solo"); err != vpc.ErrNotEmpty {
		t.Fatalf("delete non-empty: %v", err)
	}
	var pinErr, evictOtherErr, evictAnchorErr error
	w.Eng.Spawn("evict", func(p *sim.Proc) {
		pinErr = w.VPC().Evict(p, anchor.Host, "solo")
		evictOtherErr = w.VPC().Evict(p, other.Host, "solo")
		evictAnchorErr = w.VPC().Evict(p, anchor.Host, "solo")
	})
	w.Eng.RunFor(time.Minute)
	if pinErr != vpc.ErrAnchorPinned {
		t.Fatalf("anchor evict: %v", pinErr)
	}
	if evictOtherErr != nil || evictAnchorErr != nil {
		t.Fatalf("evict: %v / %v", evictOtherErr, evictAnchorErr)
	}
	// Eviction must restore the hosts' default scope so they can be
	// admitted elsewhere.
	if net, vni := other.Host.Network(); net != "" || vni != 0 {
		t.Fatalf("evicted host still scoped to %q/%d", net, vni)
	}
	if err := w.VPC().Delete("solo"); err != nil {
		t.Fatal(err)
	}
	// And a fresh admission of an evicted host works end to end.
	applyNet(t, w, "next", "10.6.0.0/24", "pc00", "pc01")
	next, _ := w.VPC().Get("next")
	if len(next.Members()) != 2 {
		t.Fatalf("re-admission got %d members", len(next.Members()))
	}
}
