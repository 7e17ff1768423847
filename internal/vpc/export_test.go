package vpc

import "sort"

// ServiceNames lists a tenant's managed services, sorted.
func (mg *Manager) ServiceNames(tenant string) []string {
	ts, ok := mg.tenants[tenant]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(ts.services))
	for name := range ts.services {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SnapshotTenant reconstructs a TenantSpec from a tenant's live state
// (networks sorted by name, members in admission order, applied
// peerings and quota). Applying the snapshot back is a no-op.
func (mg *Manager) SnapshotTenant(tenant string) TenantSpec {
	spec := TenantSpec{Tenant: tenant}
	for _, n := range mg.Networks() {
		if n.Tenant != tenant {
			continue
		}
		ns := NetworkSpec{
			Name:             n.Name,
			CIDR:             n.CIDR.String(),
			VNI:              n.VNI,
			StaticAddressing: n.static,
			Lease:            n.lease,
			Brokers:          append([]string(nil), n.Brokers...),
			ServicePool:      n.pool,
		}
		for _, m := range n.Members() {
			ns.Members = append(ns.Members, m.Host.Name())
		}
		spec.Networks = append(spec.Networks, ns)
	}
	if ts, ok := mg.tenants[tenant]; ok {
		keys := make([][2]string, 0, len(ts.peerings))
		for k := range ts.peerings {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		for _, k := range keys {
			spec.Peerings = append(spec.Peerings, ts.peerings[k])
		}
		if ts.quotaSet {
			spec.Quota = ts.quota
		}
		vmNames := make([]string, 0, len(ts.vms))
		for name := range ts.vms {
			vmNames = append(vmNames, name)
		}
		sort.Strings(vmNames)
		for _, name := range vmNames {
			spec.VMs = append(spec.VMs, ts.vms[name].spec)
		}
		svcNames := make([]string, 0, len(ts.services))
		for name := range ts.services {
			svcNames = append(svcNames, name)
		}
		sort.Strings(svcNames)
		for _, name := range svcNames {
			spec.Services = append(spec.Services, ts.services[name].spec)
		}
	}
	return spec
}

// MeshRepairAlive reports whether the network's repair loop is running;
// teardown tests pin the loop's prompt exit on it.
func (n *Network) MeshRepairAlive() bool {
	return n.repair != nil && !n.repair.Dead()
}

// ServicePool reports the network's VIP carve-out (false when none is
// declared).
func (n *Network) ServicePool() (CIDR, bool) { return n.svcPool, n.pool != "" }
