// Tenant L3 services: the reconciler's service pass. A ServiceSpec
// declares a VIP (pinned, or drawn from the network's ServicePool), a
// backend set of member hosts and/or managed VMs, and a steering
// policy; this file diffs desired against live services and converges
// them through the service controller (internal/service) — reserving
// the VIP against the network's address pools exactly like a VM
// address, programming every member host's steering table, and running
// the health-probe loop that withdraws dead backends.
//
// The pass is split like the VM pass: a pre-pass (before any network or
// membership change) stops every service the spec dropped or changed —
// while its network, members and backends still exist — and a main
// pass (after VM placement, so backend VMs are resolved post-migration)
// builds what the spec wants. A service rebuilt in the same apply keeps
// its VIP reservation and inherits observed backend health.

package vpc

import (
	"fmt"
	"sort"

	"wavnet/internal/core"
	"wavnet/internal/netsim"
	"wavnet/internal/service"
	"wavnet/internal/sim"
)

// svcRec is the reconciler's memory of one applied service.
type svcRec struct {
	spec ServiceSpec // normalized
	vip  netsim.IP   // resolved VIP, reserved in the network
	svc  *service.Service
	// health is the last observed backend health, stashed when the
	// pre-pass stops a changed service so the rebuild inherits it.
	health map[string]bool
}

// svcRecByName resolves a managed service record by name, scanning
// tenants in sorted order (like vmRecByName).
func (mg *Manager) svcRecByName(name string) (*svcRec, bool) {
	tenants := make([]string, 0, len(mg.tenants))
	for t := range mg.tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if rec, ok := mg.tenants[t].services[name]; ok {
			return rec, true
		}
	}
	return nil, false
}

// Service resolves a reconciler-managed service by name across tenants.
func (mg *Manager) Service(name string) (*service.Service, bool) {
	rec, ok := mg.svcRecByName(name)
	if !ok || rec.svc == nil {
		return nil, false
	}
	return rec.svc, true
}

// ServiceVIP reports the resolved VIP of a managed service.
func (mg *Manager) ServiceVIP(name string) (netsim.IP, bool) {
	rec, ok := mg.svcRecByName(name)
	if !ok {
		return 0, false
	}
	return rec.vip, true
}

// evictService stops one service and drops its record: probe loop down,
// steering tables cleared, the VIP reservation released back to the
// network's pools.
func (mg *Manager) evictService(ts *tenantState, name string, rep *ApplyReport) {
	rec := ts.services[name]
	if rec.svc != nil {
		rec.svc.Stop()
	}
	if n, ok := mg.networks[rec.spec.Network]; ok && rec.vip != 0 {
		n.releaseIP(rec.vip)
	}
	delete(ts.services, name)
	Action{Op: "service-evict", Network: rec.spec.Network,
		Detail: fmt.Sprintf("%s vip %s", name, rec.vip)}.record(rep)
}

// reconcileServicesPre runs FIRST, before any network, membership or VM
// change: services the spec dropped (or whose network is going away)
// are evicted outright; services whose spec changed are stopped — their
// backends, members and probe targets may be about to move — with the
// VIP reservation and observed health carried over for the main pass to
// rebuild from. Runs before the VM pre-pass so a service never probes a
// backend that was detached under it.
func (mg *Manager) reconcileServicesPre(spec *TenantSpec, ts *tenantState, rep *ApplyReport) {
	desired := make(map[string]ServiceSpec, len(spec.Services))
	for _, ss := range spec.Services {
		desired[ss.Name] = ss.normalized()
	}
	nets := make(map[string]bool, len(spec.Networks))
	for i := range spec.Networks {
		nets[spec.Networks[i].Name] = true
	}
	names := make([]string, 0, len(ts.services))
	for name := range ts.services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := ts.services[name]
		want, keep := desired[name]
		switch {
		case !keep, !nets[rec.spec.Network], keep && want.Network != rec.spec.Network:
			mg.evictService(ts, name, rep)
		case !serviceSpecEqual(rec.spec, want):
			// Stop now, rebuild in the main pass (reported there as one
			// service-update). The VIP reservation survives when the new
			// spec resolves to the same address: pinned to it, or drawing
			// from the pool (sticky allocation).
			if rec.svc != nil {
				rec.health = rec.svc.HealthSnapshot()
				rec.svc.Stop()
				rec.svc = nil
			}
			if want.VIP != "" {
				if vip, err := netsim.ParseIP(want.VIP); err == nil && vip != rec.vip {
					if n, ok := mg.networks[rec.spec.Network]; ok && rec.vip != 0 {
						n.releaseIP(rec.vip)
					}
					rec.vip = 0
				}
			}
		}
	}
}

// reconcileServices is the main service pass, run LAST — after
// memberships converged and the VM pass placed or migrated every
// backend VM — so backends resolve to their final host, address and
// stack. Unchanged live services — same spec, backends and member set —
// are left untouched (re-apply is a no-op); everything else is built,
// reported as service-create for new names and service-update for
// rebuilt ones.
func (mg *Manager) reconcileServices(spec *TenantSpec, ts *tenantState, fab Fabric, rep *ApplyReport) error {
	for i := range spec.Services {
		want := spec.Services[i].normalized()
		n := mg.networks[want.Network]
		rec := ts.services[want.Name]
		backends, err := mg.resolveBackends(want, n, ts)
		if err != nil {
			return err
		}
		var vip netsim.IP
		switch {
		case want.VIP != "":
			vip, _ = netsim.ParseIP(want.VIP) // validated
		case rec != nil && rec.vip != 0:
			vip = rec.vip // sticky pool allocation
		default:
			vip, err = n.allocVIP()
			if err != nil {
				return fmt.Errorf("vpc: service %q: %w", want.Name, err)
			}
		}
		members := make([]*core.Host, 0, len(n.order))
		for _, m := range n.Members() {
			members = append(members, m.Host)
		}
		if rec != nil && rec.svc != nil && rec.vip == vip && serviceSpecEqual(rec.spec, want) &&
			backendsEqual(rec.svc.Backends(), backends) && sameHosts(rec.svc.Members(), members) {
			continue // in sync
		}
		existed := rec != nil
		var health map[string]bool
		if rec != nil {
			health = rec.health
			if rec.svc != nil {
				// Live but drifted (a backend VM migrated, a member's
				// stack changed, a member came or went): rebuild in
				// place with observed health.
				health = rec.svc.HealthSnapshot()
				rec.svc.Stop()
			}
			if rec.vip != 0 && rec.vip != vip {
				n.releaseIP(rec.vip)
			}
		}
		if rec == nil || rec.vip != vip {
			if err := n.reserveIP(vip); err != nil {
				return fmt.Errorf("vpc: service %q: %w", want.Name, err)
			}
		}
		anchorM := n.Members()[0]
		netName := want.Network
		dist := func(from, to string) (sim.Duration, bool) {
			names, rtts := fab.Locality(netName)
			fi, ti := -1, -1
			for k, nm := range names {
				if nm == from {
					fi = k
				}
				if nm == to {
					ti = k
				}
			}
			if fi < 0 || ti < 0 || rtts[fi][ti] == 0 {
				return 0, false
			}
			return rtts[fi][ti], true
		}
		svc := service.New(anchorM.Host.Phys().Engine(), service.Config{
			Name: want.Name, Tenant: spec.Tenant, Net: want.Network,
			VNI: n.VNI, VIP: vip, Policy: want.Policy,
			Interval: want.Interval, Timeout: want.Timeout,
			Fall: want.Fall, Rise: want.Rise,
			Distance: dist, Tracer: mg.tracer, InitialHealth: health,
		}, anchorM.Host, anchorM.Stack, members, backends)
		svc.Start()
		ts.services[want.Name] = &svcRec{spec: want, vip: vip, svc: svc}
		op := "service-create"
		if existed {
			op = "service-update"
		}
		Action{Op: op, Network: want.Network,
			Detail: fmt.Sprintf("%s vip %s %s, %d backend(s)",
				want.Name, vip, want.Policy, len(backends))}.record(rep)
	}
	return nil
}

// resolveBackends pins each declared backend down to what the steering
// layer needs: the member's (or VM's) current host, address, MAC and
// stack. Declared order becomes the failover rank.
func (mg *Manager) resolveBackends(want ServiceSpec, n *Network, ts *tenantState) ([]service.Backend, error) {
	out := make([]service.Backend, 0, len(want.Backends))
	for i, bs := range want.Backends {
		if bs.Member != "" {
			m, ok := n.Member(bs.Member)
			if !ok {
				return nil, fmt.Errorf("vpc: service %q: backend %s is not admitted into %s",
					want.Name, bs.Member, n.Name)
			}
			out = append(out, service.Backend{
				Name: bs.Member, Host: m.Host.Name(), IP: m.IP,
				MAC: m.Stack.MAC(), Order: i, Stack: m.Stack,
			})
			continue
		}
		rec, ok := ts.vms[bs.VM]
		if !ok {
			return nil, fmt.Errorf("vpc: service %q: backend VM %q is not placed", want.Name, bs.VM)
		}
		out = append(out, service.Backend{
			Name: bs.VM, Host: rec.host, IP: rec.vm.IP(),
			MAC: rec.vm.MAC(), Order: i, Stack: rec.vm.Stack(),
		})
	}
	return out, nil
}

// backendsEqual compares two resolved backend sets field by field
// (both sides sorted by name; the stack pointer identifies the actual
// instance — a recreated VM resolves unequal even at the same address).
func backendsEqual(a, b []service.Backend) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]service.Backend(nil), a...)
	bs := append([]service.Backend(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// sameHosts reports whether two host lists hold the same hosts.
func sameHosts(a, b []*core.Host) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[*core.Host]bool, len(a))
	for _, h := range a {
		in[h] = true
	}
	for _, h := range b {
		if !in[h] {
			return false
		}
	}
	return true
}

// allocVIP hands out the first free address of the service pool.
func (n *Network) allocVIP() (netsim.IP, error) {
	if n.pool == "" {
		return 0, fmt.Errorf("network %q declares no service pool", n.Name)
	}
	for ip := n.svcPool.Base; ip <= n.svcPool.Broadcast(); ip++ {
		if !n.reserved[ip] {
			return ip, nil
		}
	}
	return 0, ErrPoolExhausted
}
