package experiments

import (
	"fmt"
	"strings"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// VPCRow is one tenant-count sweep point.
type VPCRow struct {
	Tenants, HostsPerTenant int
	// Setup is the simulated time to admit every host into its tenant
	// (rendezvous join, scoped mesh, DHCP lease).
	Setup sim.Duration
	// IntraRTT is the mean anchor->member virtual-LAN RTT across tenants.
	IntraRTT sim.Duration
	// FloodSuppressed counts frames the attacker's own VNI-aware
	// flooding refused to send toward foreign tunnels (smarter
	// flooding: the first isolation layer).
	FloodSuppressed uint64
	// CrossDropped counts frames that crossed the deliberately forced
	// inter-tenant tunnel — with suppression disabled — and died at the
	// receiver's VNI tag check (the second layer).
	CrossDropped uint64
	// CrossDelivered counts frames that leaked into a foreign tenant's
	// bridges (must be zero).
	CrossDelivered uint64
	// LookupLeaks counts rendezvous records a tenant host could resolve
	// about foreign hosts (must be zero).
	LookupLeaks int
}

// VPCResult reports the multi-tenant isolation/scale sweep.
type VPCResult struct {
	Rows []VPCRow
}

// String renders the sweep.
func (r *VPCResult) String() string {
	t := table{
		title:  "VPC isolation & scale — tenants with overlapping 10.0.0.0/24 spaces over one shared WAN (beyond the paper)",
		header: []string{"Tenants", "Hosts/tenant", "Setup (s)", "Intra RTT (ms)", "Flood suppressed", "Cross dropped", "Cross delivered", "Lookup leaks"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%d", row.Tenants),
			fmt.Sprintf("%d", row.HostsPerTenant),
			secs(row.Setup),
			ms(row.IntraRTT),
			fmt.Sprintf("%d", row.FloodSuppressed),
			fmt.Sprintf("%d", row.CrossDropped),
			fmt.Sprintf("%d", row.CrossDelivered),
			fmt.Sprintf("%d", row.LookupLeaks),
		)
	}
	t.notes = append(t.notes,
		"every tenant runs the same CIDR; cross delivered and lookup leaks must be 0",
		"flood suppressed > 0: VNI-aware flooding kept tagged broadcast off the forced inter-tenant tunnel",
		"cross dropped > 0 proves traffic really crossed that tunnel (suppression disabled) and died at the VNI check")
	return t.String()
}

// VPCScale sweeps the tenant count over one shared emulated WAN. Every
// tenant gets the same 10.0.0.0/24 CIDR — the strongest overlap — and
// a tunnel between the first two tenants' anchors is forced BEFORE the
// tenants split, so the data-plane tag check (not just control-plane
// scoping) is what the leak counters measure.
func VPCScale(o Options) (*VPCResult, error) {
	o = o.withDefaults()
	tenantCounts := []int{1, 2, 4}
	hostsPer := 2
	if !o.Quick {
		tenantCounts = []int{2, 4, 8}
		hostsPer = 3
	}
	rows, err := sweep(tenantCounts, func(_ int, tenants int) (*VPCRow, error) {
		return vpcOnce(o, tenants, hostsPer)
	}, func(tenants int) string { return fmt.Sprintf("vpc sweep %d tenants", tenants) })
	if err != nil {
		return nil, err
	}
	return &VPCResult{Rows: rows}, nil
}

func vpcOnce(o Options, tenants, hostsPer int) (*VPCRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(tenants*hostsPer, 100e6), nil, func(w *scenario.World) (*VPCRow, error) {
		key := func(tenant, i int) string { return pc(tenant*hostsPer + i) }

		// Force a shared-fabric tunnel between the first two tenants'
		// anchors before the split (with one tenant there is nothing to
		// force).
		if tenants > 1 {
			if err := w.WAVNetUp(key(0, 0), key(1, 0)); err != nil {
				return nil, err
			}
		}

		start := w.Eng.Now()
		nets := make([]*vpc.Network, tenants)
		for tnt := 0; tnt < tenants; tnt++ {
			// Network first, members second: the Setup column times these
			// two converges per tenant.
			name := fmt.Sprintf("tenant%02d", tnt)
			spec := vpc.TenantSpec{Tenant: name, Networks: []vpc.NetworkSpec{{Name: name, CIDR: "10.0.0.0/24"}}}
			if _, err := w.ApplySync(spec); err != nil {
				return nil, err
			}
			keys := make([]string, hostsPer)
			for i := range keys {
				keys[i] = key(tnt, i)
			}
			spec.Networks[0].Members = keys
			if _, err := w.ApplySync(spec); err != nil {
				return nil, err
			}
			nets[tnt], _ = w.VPC().Get(name)
		}
		row := &VPCRow{Tenants: tenants, HostsPerTenant: hostsPer, Setup: w.Eng.Now().Sub(start)}

		// Intra-tenant RTT: anchor -> second member in every tenant.
		var rttSum sim.Duration
		pinged := 0
		for _, n := range nets {
			mem := n.Members()
			if len(mem) < 2 {
				continue
			}
			var rtt sim.Duration
			var pingErr error
			w.RunProc("intra", 15*time.Second, 15*time.Second, func(p *sim.Proc) {
				mem[0].Stack.Ping(p, mem[1].IP, 56, 5*time.Second) // warm ARP
				rtt, pingErr = mem[0].Stack.Ping(p, mem[1].IP, 56, 5*time.Second)
			})
			if pingErr != nil {
				return nil, fmt.Errorf("intra-tenant ping in %s: %w", n.Name, pingErr)
			}
			rttSum += rtt
			pinged++
		}
		if pinged > 0 {
			row.IntraRTT = rttSum / sim.Duration(pinged)
		}

		if tenants > 1 {
			// Leak detection: listeners on every bridge of tenant 1's anchor
			// count frames from foreign source MACs (tenant 1's own ARP and
			// DHCP chatter must not read as a leak); tenant 0's anchor
			// floods ARP for an unowned address, which crosses the forced
			// tunnel.
			victim := nets[1].Members()[0].Host
			coMACs := make(map[ether.MAC]bool)
			for _, mem := range nets[1].Members() {
				if mem.Stack != nil {
					coMACs[mem.Stack.MAC()] = true
				}
			}
			delivered := uint64(0)
			for _, vni := range victim.VNIs() {
				br, ok := victim.SegmentBridge(vni)
				if !ok {
					continue
				}
				vni := vni
				br.AddPort("leak-listener").SetRecv(func(f *ether.Frame) {
					if vni != 0 && !coMACs[f.Src] {
						delivered++
					}
				})
			}
			attacker := nets[0].Members()[0]
			// 10.0.0.200 is inside every tenant's CIDR but owned by no one:
			// each attempt broadcasts ARP through all tunnels, including the
			// forced cross-tenant one. Counters come from the uniform
			// metrics export, not struct fields.
			flood := func() {
				w.RunProc("cross", 30*time.Second, 30*time.Second, func(p *sim.Proc) {
					for i := 0; i < 10; i++ {
						attacker.Stack.Ping(p, attacker.Net.CIDR.Base+200, 56, time.Second)
					}
				})
			}

			// Layer 1 — smarter flooding: the attacker's host knows (from
			// VNI announcements) that the victim carries a different tenant
			// and suppresses the tagged broadcast before the wire.
			suppressedBefore := attacker.Host.SuppressedFloods
			flood()
			row.FloodSuppressed = attacker.Host.SuppressedFloods - suppressedBefore
			if row.FloodSuppressed == 0 {
				return nil, fmt.Errorf("no floods were suppressed toward the forced tunnel")
			}

			// Layer 2 — receiver-side tag check: disable suppression so the
			// frames really cross, and count them dying at the victim.
			attacker.Host.SetFloodAll(true)
			dropsBefore := victim.CrossVNIDrops
			flood()
			row.CrossDropped = victim.CrossVNIDrops - dropsBefore
			row.CrossDelivered = delivered
			if row.CrossDropped == 0 {
				return nil, fmt.Errorf("no frames crossed the forced tunnel; leak counters are vacuous")
			}

			// Control-plane leak: can tenant 0 resolve tenant 1's hosts?
			probe := nets[0].Members()[0].Host
			leaks := 0
			var lookErr error
			w.RunProc("leak-lookup", 60*time.Second, 60*time.Second, func(p *sim.Proc) {
				for i := 0; i < hostsPer; i++ {
					recs, err := probe.Lookup(p, key(1, i))
					if err != nil {
						lookErr = err
						return
					}
					leaks += len(recs)
				}
			})
			if lookErr != nil {
				return nil, lookErr
			}
			row.LookupLeaks = leaks

			// Flow telemetry must surface the deliberately hot flow: the
			// attacker's ARP flood for the unowned 10.0.0.200 ranks among the
			// attacker tenant's top talkers.
			target := (attacker.Net.CIDR.Base + 200).String()
			hot := false
			for _, tk := range w.TopTalkers(nets[0].Name, 10) {
				if strings.Contains(tk.Key, ">"+target) && tk.Bytes > 0 {
					hot = true
				}
			}
			if !hot {
				return nil, fmt.Errorf("ARP flood toward %s missing from top talkers: %v",
					target, w.TopTalkers(nets[0].Name, 10))
			}
		}
		return row, nil
	})
}
