// Multitenant: two Virtual Private Clouds — "red" and "blue", both
// using the SAME 10.0.0.0/24 address space — run concurrently over one
// shared physical WAN and one shared rendezvous server. Each tenant's
// hosts mesh only with co-tenants, lease addresses from their own
// per-network DHCP pool, and never see the other tenant's ARP,
// broadcast or unicast traffic: ping works inside a tenant and fails
// across, and a rendezvous lookup from a red host cannot even resolve
// a blue host's record.
//
// The second half replays the same idea through the tenant API v2: one
// declarative TenantSpec (networks + members + a policy-carrying
// peering + a quota) converged by World.Apply, idempotently.
package main

import (
	"fmt"
	"log"
	"time"

	"wavnet"
)

func main() {
	// One shared physical substrate: five NATed PCs on an emulated WAN.
	world, err := wavnet.NewEmulatedWAN(42, 5, 100e6)
	if err != nil {
		log.Fatal(err)
	}

	// Two isolated virtual networks with identical CIDRs, one tenant each.
	for _, ns := range []wavnet.NetworkSpec{
		{Name: "red", CIDR: "10.0.0.0/24", Members: []string{"pc00", "pc01"}},
		{Name: "blue", CIDR: "10.0.0.0/24", Members: []string{"pc02", "pc03", "pc04"}},
	} {
		spec := wavnet.TenantSpec{Tenant: ns.Name, Networks: []wavnet.NetworkSpec{ns}}
		if _, err := world.ApplySync(spec); err != nil {
			log.Fatal(err)
		}
	}

	red, _ := world.VPC().Get("red")
	blue, _ := world.VPC().Get("blue")
	for _, n := range []*wavnet.VPCNetwork{red, blue} {
		fmt.Printf("VPC %q (VNI %d, %s):\n", n.Name, n.VNI, n.CIDR)
		for _, m := range n.Members() {
			how := "DHCP lease"
			if m.Anchor() {
				how = "anchor (runs the tenant's DHCP server)"
			}
			fmt.Printf("  %-5s -> %-10s %s\n", m.Host.Name(), m.IP, how)
		}
	}

	rm, bm := red.Members(), blue.Members()
	world.Eng.Spawn("demo", func(p *wavnet.Proc) {
		// Intra-tenant: red pings red, blue pings blue — on the same
		// overlapping addresses, at the same time.
		rm[0].Stack.Ping(p, rm[1].IP, 56, 5*time.Second) // resolve ARP
		rtt, err := rm[0].Stack.Ping(p, rm[1].IP, 56, 5*time.Second)
		fmt.Printf("\nred   %s -> %s: rtt=%v err=%v\n", rm[0].IP, rm[1].IP, rtt, err)
		bm[0].Stack.Ping(p, bm[1].IP, 56, 5*time.Second)
		rtt, err = bm[0].Stack.Ping(p, bm[1].IP, 56, 5*time.Second)
		fmt.Printf("blue  %s -> %s: rtt=%v err=%v\n", bm[0].IP, bm[1].IP, rtt, err)

		// Cross-tenant: 10.0.0.3 exists only in blue. Red's ARP for it
		// never crosses the tenant boundary, so the ping times out.
		_, err = rm[0].Stack.Ping(p, bm[2].IP, 56, 5*time.Second)
		fmt.Printf("red   %s -> blue's %s: err=%v (isolated!)\n", rm[0].IP, bm[2].IP, err)

		// Control plane is scoped too: red cannot resolve blue hosts.
		recs, _ := rm[0].Host.Lookup(p, "pc01")
		fmt.Printf("red lookup of co-tenant pc01:  %d record(s)\n", len(recs))
		recs, _ = rm[0].Host.Lookup(p, "pc02")
		fmt.Printf("red lookup of blue's    pc02:  %d record(s)\n", len(recs))
	})
	world.Eng.RunFor(2 * time.Minute)

	fmt.Printf("\nblue DHCP pool leased %d address(es); red and blue never shared a tunnel.\n",
		len(blue.DHCPServer().Leases()))

	applyDemo()
}

// applyDemo is the declarative variant: the whole tenant — two
// networks, a peering that exposes only the db anchor to the web tier,
// and a bandwidth quota — is one spec, and Apply converges a fresh
// world onto it.
func applyDemo() {
	world, err := wavnet.NewEmulatedWAN(43, 3, 100e6)
	if err != nil {
		log.Fatal(err)
	}
	spec := wavnet.TenantSpec{
		Tenant: "acme",
		Networks: []wavnet.NetworkSpec{
			{Name: "web", CIDR: "10.10.0.0/24", Members: []string{"pc00", "pc01"}},
			{Name: "db", CIDR: "10.20.0.0/24", Members: []string{"pc02"}},
		},
		Peerings: []wavnet.PeeringSpec{
			{A: "web", B: "db", AllowB: []string{"10.20.0.1/32"}},
		},
		Quota: wavnet.QuotaSpec{RateBps: 20e6},
	}
	var rep, again *wavnet.ApplyReport
	var applyErr error
	world.Eng.Spawn("apply", func(p *wavnet.Proc) {
		if rep, applyErr = world.Apply(p, spec); applyErr != nil {
			return
		}
		again, applyErr = world.Apply(p, spec)
	})
	world.Eng.RunFor(3 * time.Minute)
	if applyErr != nil {
		log.Fatal(applyErr)
	}
	fmt.Printf("\n-- tenant API v2 --\n%s", rep)
	fmt.Printf("re-apply: %s\n", again)

	// The peering policy in action: web reaches the db anchor, and
	// nothing else of db.
	web, _ := world.VPC().Get("web")
	db, _ := world.VPC().Get("db")
	world.Eng.Spawn("probe", func(p *wavnet.Proc) {
		sender := web.Members()[0]
		sender.Stack.Ping(p, db.Members()[0].IP, 56, 5*time.Second)
		rtt, err := sender.Stack.Ping(p, db.Members()[0].IP, 56, 5*time.Second)
		fmt.Printf("web %s -> db anchor %s: rtt=%v err=%v\n", sender.IP, db.Members()[0].IP, rtt, err)
		_, err = sender.Stack.Ping(p, db.CIDR.Base+77, 56, 5*time.Second)
		fmt.Printf("web %s -> db 10.20.0.77: err=%v (outside the allowed prefix)\n", sender.IP, err)
	})
	world.Eng.RunFor(time.Minute)
}
