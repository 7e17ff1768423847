// Tenant-aware VM placement: the reconciler's VM pass. A VMSpec
// declares where a VM plugs in (network + IP) and where it runs (a
// member host, or "" for a scheduler choice); this file diffs desired
// against live placement and converges it — booting VMs onto member
// segments (vm-place), moving them with the pre-copy live-migration
// engine when the desired host changes (vm-migrate), and detaching
// those the spec dropped (vm-evict). Migration traffic rides the
// members' per-network stacks, so the image transfer itself never
// leaves the tenant's overlay.

package vpc

import (
	"fmt"
	"sort"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/placement"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
)

// vmPort adapts one network membership to vm.HostPort: the VM's vif
// attaches to the member's VNI segment (never the default bridge), and
// the migration channel runs over the member's per-network stack.
type vmPort struct {
	h    *core.Host
	vni  uint32
	dom0 *ipstack.Stack
}

func newVMPort(m *Member) *vmPort {
	return &vmPort{h: m.Host, vni: m.Net.VNI, dom0: m.Stack}
}

func (pt *vmPort) Name() string { return pt.h.Name() }

func (pt *vmPort) AttachVIF(name string) ether.NIC {
	nic, err := pt.h.AttachVIFOn(pt.vni, name)
	if err != nil {
		// A member's segment exists for as long as the membership does,
		// and the reconciler evicts VMs before members; losing it while
		// a VM is attached is a wiring error.
		panic(fmt.Sprintf("vpc: %s lost segment %d under a VM: %v", pt.h.Name(), pt.vni, err))
	}
	return nic
}

func (pt *vmPort) DetachVIF(nic ether.NIC) { pt.h.DetachVIF(nic) }
func (pt *vmPort) Dom0() *ipstack.Stack    { return pt.dom0 }
func (pt *vmPort) NewMAC() ether.MAC       { return pt.h.NewMAC() }
func (pt *vmPort) VirtualMTU() int         { return pt.h.SegmentMTU(pt.vni) }
func (pt *vmPort) Pool() *netsim.Pool      { return pt.h.Pool() }

// vmRec is the reconciler's memory of one placed VM.
type vmRec struct {
	spec VMSpec // normalized; Host as declared ("" = scheduler's call)
	host string // machine key the VM currently runs on
	vm   *vm.VM
}

// scheduler returns the manager's placement scheduler (created lazily).
func (mg *Manager) scheduler() *placement.Scheduler {
	if mg.sched == nil {
		mg.sched = placement.New(placement.Config{})
	}
	return mg.sched
}

// vmRecByName resolves a managed VM record by name. Tenants are
// scanned in sorted order so a cross-tenant name collision resolves
// deterministically (to the lexically first tenant's VM).
func (mg *Manager) vmRecByName(name string) (*vmRec, bool) {
	tenants := make([]string, 0, len(mg.tenants))
	for t := range mg.tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if rec, ok := mg.tenants[t].vms[name]; ok {
			return rec, true
		}
	}
	return nil, false
}

// VM resolves a reconciler-managed VM by name across tenants.
func (mg *Manager) VM(name string) (*vm.VM, bool) {
	rec, ok := mg.vmRecByName(name)
	if !ok {
		return nil, false
	}
	return rec.vm, true
}

// VMHost reports the machine key a managed VM currently runs on.
func (mg *Manager) VMHost(name string) (string, bool) {
	rec, ok := mg.vmRecByName(name)
	if !ok {
		return "", false
	}
	return rec.host, true
}

// VMNames lists a tenant's managed VMs, sorted.
func (mg *Manager) VMNames(tenant string) []string {
	ts, ok := mg.tenants[tenant]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(ts.vms))
	for name := range ts.vms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// vmPlacementEqual reports whether a live VM already satisfies the
// spec's immutable attachment (network, IP, image geometry). A mismatch
// means recreate, not migrate.
func vmPlacementEqual(live, want VMSpec) bool {
	return live.Network == want.Network &&
		live.IP == want.IP &&
		live.MemoryMB == want.MemoryMB &&
		live.DirtyRate == want.DirtyRate
}

// evictVM detaches one VM and drops its record, reporting the action.
// keepIP retains the address reservation: the pre-pass sets it when the
// desired spec still claims the same (network, IP) — the VM will be
// re-placed there later in the same apply, and releasing in between
// would let a DHCP member admitted by the membership pass lease the
// address out from under it.
func (mg *Manager) evictVM(ts *tenantState, name string, keepIP bool, rep *ApplyReport) {
	rec := ts.vms[name]
	rec.vm.Pause() // detaches the vif; the VM object is abandoned
	if n, ok := mg.networks[rec.spec.Network]; ok && !keepIP {
		n.releaseIP(rec.vm.IP())
	}
	delete(ts.vms, name)
	Action{Op: "vm-evict", Network: rec.spec.Network, Host: rec.host, Detail: name}.record(rep)
}

// reconcileVMsPre runs BEFORE networks and memberships change: it
// evicts every live VM the desired spec no longer supports — dropped
// outright, re-attached elsewhere (network/IP/geometry changed), on a
// network leaving the spec, or on a host leaving its network's member
// list. Anything evicted here that the spec still wants is re-placed by
// the main VM pass after memberships converge.
func (mg *Manager) reconcileVMsPre(spec *TenantSpec, ts *tenantState, rep *ApplyReport) {
	desired := make(map[string]VMSpec, len(spec.VMs))
	for _, vs := range spec.VMs {
		desired[vs.Name] = vs.normalized()
	}
	nets := make(map[string]*NetworkSpec, len(spec.Networks))
	for i := range spec.Networks {
		nets[spec.Networks[i].Name] = &spec.Networks[i]
	}
	names := make([]string, 0, len(ts.vms))
	for name := range ts.vms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := ts.vms[name]
		want, keep := desired[name]
		ns := nets[rec.spec.Network]
		hostStays := false
		if ns != nil {
			for _, m := range ns.Members {
				if m == rec.host {
					hostStays = true
					break
				}
			}
		}
		// The reservation survives the eviction when the spec still
		// claims the same address in the same network — the placement
		// pass re-places the VM there after memberships converge.
		keepIP := keep && want.Network == rec.spec.Network && want.IP == rec.spec.IP
		switch {
		case !keep:
			mg.evictVM(ts, name, false, rep)
		case !vmPlacementEqual(rec.spec, want):
			// The attachment itself changed: a migration cannot carry a
			// VM to a different network or address, so recreate.
			mg.evictVM(ts, name, keepIP, rep)
		case ns == nil || !hostStays:
			// The current host is leaving the VM's network (or the
			// network is going away entirely): the source end of any
			// migration would disappear mid-apply, so detach now and let
			// the placement pass boot it fresh on a surviving member.
			mg.evictVM(ts, name, keepIP, rep)
		}
	}
}

// reconcileVMs is the placement pass, run after memberships have
// converged: it places missing VMs (pinned host or scheduler choice)
// and live-migrates the ones whose desired host moved.
func (mg *Manager) reconcileVMs(p *sim.Proc, spec *TenantSpec, ts *tenantState, fab Fabric, rep *ApplyReport) error {
	for i := range spec.VMs {
		want := spec.VMs[i].normalized()
		n := mg.networks[want.Network]
		rec, live := ts.vms[want.Name]
		if live {
			// Attachment already matches (the pre-pass evicted
			// mismatches); converge the host.
			target := want.Host
			if target == "" {
				target = rec.host // scheduler choices are sticky
			}
			rec.spec = want
			if target == rec.host {
				continue
			}
			dstM, ok := n.Member(target)
			if !ok {
				return fmt.Errorf("vpc: VM %q: migration target %s is not a member of %s",
					want.Name, target, want.Network)
			}
			dst := newVMPort(dstM)
			// Parent the migration span under this apply's span, so the
			// timeline shows which reconcile ordered the move.
			rec.vm.SetTraceParent(rep.span)
			mrep, err := rec.vm.Migrate(p, dst)
			if err != nil {
				return fmt.Errorf("vpc: VM %q: migrate %s -> %s: %w", want.Name, rec.host, target, err)
			}
			from := rec.host
			rec.host = target
			Action{Op: "vm-migrate", Network: want.Network, Host: target,
				Detail: fmt.Sprintf("%s from %s in %.1fs (downtime %.0fms)",
					want.Name, from, mrep.Total().Seconds(),
					float64(mrep.Downtime)/1e6)}.record(rep)
			continue
		}
		// Place: pinned host, or the scheduler's pick over the network's
		// members.
		target := want.Host
		if target == "" {
			choice, err := mg.placeVM(want, n, ts, fab)
			if err != nil {
				return fmt.Errorf("vpc: VM %q: %w", want.Name, err)
			}
			target = choice
		}
		m, ok := n.Member(target)
		if !ok {
			return fmt.Errorf("vpc: VM %q: host %s is not a member of %s", want.Name, target, want.Network)
		}
		ip, _ := netsim.ParseIP(want.IP) // validated
		// Pin the address: a VM must never share an IP with a member's
		// stack, and neither static assignment nor the DHCP pool may
		// hand it out later.
		if err := n.reserveIP(ip); err != nil {
			return fmt.Errorf("vpc: VM %q: %w", want.Name, err)
		}
		v := vm.New(newVMPort(m), want.Name, ip, vm.Config{
			MemoryMB:  want.MemoryMB,
			DirtyRate: want.DirtyRate,
			Tracer:    mg.tracer,
		})
		ts.vms[want.Name] = &vmRec{spec: want, host: target, vm: v}
		Action{Op: "vm-place", Network: want.Network, Host: target,
			Detail: fmt.Sprintf("%s %s (%d MB)", want.Name, want.IP, want.MemoryMB)}.record(rep)
	}
	// Reservation sweep: with every desired VM placed, any reserved
	// address no live VM holds is an orphan — left by a kept-through-
	// eviction reservation whose apply failed before re-placement, then
	// resolved by a later spec that dropped the VM. Release them so the
	// pools get the addresses back. Service VIPs also live in the
	// reserved map (including those carried through a same-apply
	// rebuild, which the service pass re-binds after this sweep), so
	// they count as claimed.
	for i := range spec.Networks {
		n, ok := mg.networks[spec.Networks[i].Name]
		if !ok {
			continue
		}
		claimed := make(map[netsim.IP]bool)
		for _, rec := range ts.vms {
			if rec.spec.Network == n.Name {
				claimed[rec.vm.IP()] = true
			}
		}
		for _, rec := range ts.services {
			if rec.spec.Network == n.Name && rec.vip != 0 {
				claimed[rec.vip] = true
			}
		}
		for ip := range n.reserved {
			if !claimed[ip] {
				n.releaseIP(ip)
			}
		}
	}
	return nil
}

// ScrapeInto adds the control plane's labeled series to r: every
// managed VM's migration counters under the VM's {tenant, net, host}
// labels (prefixed "vm."), every live service's probe counters under
// the service's {tenant, net} labels (prefixed "service.<name>."), and
// the placement scheduler's decision counters under a "placement."
// prefix when the scheduler has run.
func (mg *Manager) ScrapeInto(r *obs.Registry) {
	// Map order is fine here: the series are counters, which sum exactly
	// under one name+labels, and every render sorts.
	for t, ts := range mg.tenants {
		for _, rec := range ts.vms {
			rec.vm.ScrapeInto(r, obs.Labels{Tenant: t, Net: rec.spec.Network, Host: rec.host})
		}
		for _, rec := range ts.services {
			if rec.svc != nil {
				rec.svc.ScrapeInto(r, obs.Labels{Tenant: t, Net: rec.spec.Network})
			}
		}
	}
	if mg.sched != nil {
		mg.sched.ScrapeInto(r, obs.Labels{})
	}
}

// placeVM asks the placement scheduler for a host: candidates are the
// network's members with their declared home brokers and current VM
// load, scored against the distance locator's measured RTT matrix.
func (mg *Manager) placeVM(want VMSpec, n *Network, ts *tenantState, fab Fabric) (string, error) {
	members := n.Members()
	cands := make([]placement.Candidate, 0, len(members))
	for _, m := range members {
		key := m.Host.Name()
		c := placement.Candidate{Key: key, Broker: fab.HomeBroker(key)}
		for _, rec := range ts.vms {
			if rec.host == key {
				c.VMs++
				c.MemMB += rec.spec.MemoryMB
			}
		}
		cands = append(cands, c)
	}
	names, rtts := fab.Locality(n.Name)
	dec, err := mg.scheduler().Choose(placement.Request{
		VM:       want.Name,
		MemoryMB: want.MemoryMB,
		Brokers:  n.Brokers,
	}, cands, names, rtts)
	if err != nil {
		return "", err
	}
	return dec.Host, nil
}
