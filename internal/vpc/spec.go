// Tenant API v2: declarative specs. A TenantSpec is pure data — the
// networks a tenant wants, who is in them, how they peer and what rate
// they may spend — and the reconciler (reconcile.go) converges live
// state onto it. Applying the same spec twice is a no-op.

package vpc

import (
	"fmt"
	"strconv"
	"strings"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// TenantSpec is the desired state of one tenant's private cloud.
type TenantSpec struct {
	// Tenant names the owner; every network in the spec belongs to it.
	Tenant string
	// Networks are the tenant's virtual networks. Networks the tenant
	// owns that are missing from the spec are torn down.
	Networks []NetworkSpec
	// Peerings are policy-controlled routes between pairs of the
	// tenant's networks. Absent pairs are absolutely isolated.
	Peerings []PeeringSpec
	// VMs are the tenant's virtual machines: each plugs its vif into one
	// of the spec's networks and runs on a declared (or
	// scheduler-chosen) member host. VMs missing from the spec are
	// evicted; a VM whose desired host differs from where it runs is
	// converged by live migration.
	VMs []VMSpec
	// Services are the tenant's L3 services: a VIP backed by member
	// hosts and/or managed VMs, health-checked and steered per policy.
	// Services missing from the spec are evicted (VIP released).
	Services []ServiceSpec
	// Quota caps the tenant's send rate per (member host, tunnel);
	// RateBps 0 means unmetered.
	Quota QuotaSpec
}

// NetworkSpec describes one virtual network declaratively.
type NetworkSpec struct {
	// Name is the network's unique name.
	Name string
	// CIDR is the address space, e.g. "10.0.0.0/24".
	CIDR string
	// VNI pins the network identifier; 0 auto-allocates.
	VNI uint32
	// Members are the machine keys to admit, in admission order; the
	// first member anchors the network (gateway + DHCP server). Members
	// not listed are evicted.
	Members []string
	// StaticAddressing skips DHCP: members get sequential addresses at
	// admission.
	StaticAddressing bool
	// Lease is the DHCP lease duration (default 10 minutes).
	Lease sim.Duration
	// Brokers is the network's federation: the named rendezvous brokers
	// replicate this network's host records among themselves, and only
	// among themselves — a broker the spec does not name never learns
	// about the network. Members must home on one of the named brokers.
	// Empty keeps the network on the fabric's primary broker alone.
	Brokers []string
	// ServicePool is a sub-CIDR of CIDR carved out for service VIPs
	// (e.g. "10.0.0.240/28"). Its addresses are reserved against the
	// network's DHCP server and skipped by static assignment; services
	// without a pinned VIP draw from it, and a pinned VIP must fall
	// inside it. Empty means services must pin their VIPs explicitly.
	ServicePool string
}

// PeeringSpec is a policy-carrying route between two of the tenant's
// networks. Traffic crosses only when the destination address is
// allowed: frames entering A must match AllowA, frames entering B must
// match AllowB. An empty list defaults to the whole CIDR of that side.
type PeeringSpec struct {
	A, B string
	// AllowA are destination prefixes within A reachable from B.
	AllowA []string
	// AllowB are destination prefixes within B reachable from A.
	AllowB []string
}

// VMSpec declares one virtual machine of the tenant: where it plugs in
// (a network and an address inside its CIDR) and where it should run.
// The reconciler keeps the VM where the spec says via live migration:
// changing Host on an applied spec pre-copies the image to the new
// member and resumes it there without the vif ever leaving the tenant.
type VMSpec struct {
	// Name is the VM's unique name within the tenant.
	Name string
	// Network names the tenant network whose segment the VM's vif joins.
	Network string
	// IP is the VM's address inside the network's CIDR. Placement
	// reserves it against the network's address pools: it must not
	// already belong to a member, and neither static assignment nor the
	// DHCP server will hand it out while the VM exists.
	IP string
	// MemoryMB sizes the VM image (default 256).
	MemoryMB int
	// DirtyRate is the page-dirtying rate while the VM runs (pages/s,
	// default 2000); it drives pre-copy convergence.
	DirtyRate float64
	// Host pins the VM to a member machine key of its network. "" lets
	// the placement scheduler choose: locality-scored over the distance
	// locator's measured RTTs, load-balanced, and constrained to hosts
	// homed on the network's declared brokers. A scheduler choice is
	// sticky — re-applying does not move the VM while its host remains a
	// valid member.
	Host string
}

// ServiceSpec declares one L3 service of the tenant: a VIP on one of
// the tenant's networks, a backend set, a steering policy and the
// health-probe budget. The reconciler converges it through the service
// controller (internal/service): backends alias the VIP, member hosts
// steer clients to the first healthy backend of their per-host
// preference list, and the probe loop withdraws dead backends within
// the fall budget.
type ServiceSpec struct {
	// Name is the service's unique name within the tenant.
	Name string
	// Network names the tenant network the VIP lives on.
	Network string
	// VIP pins the service address inside the network's CIDR (and
	// inside its ServicePool, when one is declared). Empty draws the
	// first free address from the pool; the allocation is sticky across
	// re-applies.
	VIP string
	// Policy is the steering policy: "anycast-nearest" (default — each
	// client host prefers the closest healthy backend by measured RTT)
	// or "failover-ordered" (every host prefers the first healthy
	// backend in declared order).
	Policy string
	// Backends are the service's backends in declared preference order
	// (the rank failover-ordered steering follows). Each names exactly
	// one member host or one managed VM of the service's network.
	Backends []BackendSpec
	// Interval is the probe period (default 1s); Timeout bounds one
	// probe (default 250ms).
	Interval sim.Duration
	Timeout  sim.Duration
	// Fall consecutive probe failures withdraw a backend (default 3);
	// Rise consecutive successes re-announce it (default 2).
	Fall int
	Rise int
}

// BackendSpec names one backend of a service: exactly one of Member (a
// machine key listed in the network's Members) or VM (a VMSpec name on
// the same network).
type BackendSpec struct {
	Member string
	VM     string
}

// name is the backend's name within the service.
func (b BackendSpec) name() string {
	if b.Member != "" {
		return b.Member
	}
	return b.VM
}

// normalized fills a ServiceSpec's defaulted fields so live state can
// be compared against the spec field by field.
func (s ServiceSpec) normalized() ServiceSpec {
	if s.Policy == "" {
		s.Policy = "anycast-nearest"
	}
	if s.Interval <= 0 {
		s.Interval = 1 * sim.Second
	}
	if s.Timeout <= 0 {
		s.Timeout = 250 * sim.Millisecond
	}
	if s.Fall <= 0 {
		s.Fall = 3
	}
	if s.Rise <= 0 {
		s.Rise = 2
	}
	return s
}

// serviceSpecEqual compares two normalized service specs field by
// field (backend order matters: it is the failover rank).
func serviceSpecEqual(x, y ServiceSpec) bool {
	x, y = x.normalized(), y.normalized()
	if x.Name != y.Name || x.Network != y.Network || x.VIP != y.VIP ||
		x.Policy != y.Policy || x.Interval != y.Interval || x.Timeout != y.Timeout ||
		x.Fall != y.Fall || x.Rise != y.Rise || len(x.Backends) != len(y.Backends) {
		return false
	}
	for i := range x.Backends {
		if x.Backends[i] != y.Backends[i] {
			return false
		}
	}
	return true
}

// QuotaSpec is a per-tenant rate limit, enforced by a token bucket per
// (member host, tunnel) in the data plane, plus the tenant's VM
// capacity envelope enforced by the placement pass.
type QuotaSpec struct {
	// RateBps is the sustained rate in bits per second; 0 = unmetered.
	RateBps float64
	// BurstBytes is the bucket depth (default 64 KiB).
	BurstBytes int
	// MaxVMs caps the tenant's VM count across all networks (0 =
	// unlimited).
	MaxVMs int
	// MaxVMMemoryMB caps the tenant's total declared VM memory in MB,
	// defaults included (0 = unlimited).
	MaxVMMemoryMB int
}

// ParsePrefix parses a policy prefix "a.b.c.d/n" with 1 <= n <= 32
// (network CIDRs stay restricted to /8../30, but policy may name a
// single host or half a subnet).
func ParsePrefix(s string) (ether.Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return ether.Prefix{}, fmt.Errorf("vpc: bad prefix %q (no length)", s)
	}
	ip, err := netsim.ParseIP(s[:slash])
	if err != nil {
		return ether.Prefix{}, err
	}
	bits, err2 := strconv.Atoi(s[slash+1:])
	if err2 != nil || bits < 1 || bits > 32 {
		return ether.Prefix{}, fmt.Errorf("vpc: bad prefix length in %q", s)
	}
	return ether.Prefix{IP: ip, Bits: bits}, nil
}

// Action is one state change the reconciler performed.
type Action struct {
	// Op identifies the change: create-network, recreate-network, delete-network, admit, evict, peer, repeer,
	// unpeer, peer-connect, peer-disconnect, set-quota, clear-quota,
	// federate, defederate, vm-place, vm-migrate, vm-evict,
	// service-create, service-update, service-evict.
	Op string
	// Network is the affected network (or "a<->b" pair for peerings).
	Network string
	// Host is the affected machine key, when the change is per-host.
	Host string
	// Detail carries human-readable specifics (CIDR, policy, rate).
	Detail string
}

// String renders "op network[/host] (detail)".
func (a Action) String() string {
	var b strings.Builder
	b.WriteString(a.Op)
	if a.Network != "" {
		b.WriteByte(' ')
		b.WriteString(a.Network)
	}
	if a.Host != "" {
		b.WriteByte('/')
		b.WriteString(a.Host)
	}
	if a.Detail != "" {
		fmt.Fprintf(&b, " (%s)", a.Detail)
	}
	return b.String()
}

// ApplyReport lists every action one Apply took, in execution order. An
// empty report means live state already matched the spec.
type ApplyReport struct {
	Tenant  string
	Actions []Action

	// span is the "apply" span covering this reconcile; record emits
	// each action as a timestamped event on it (nil-safe).
	span *obs.Span
}

// Empty reports whether the apply was a no-op.
func (r *ApplyReport) Empty() bool { return len(r.Actions) == 0 }

// Ops returns just the action op names, in order (handy for tests and
// examples).
func (r *ApplyReport) Ops() []string {
	out := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		out[i] = a.Op
	}
	return out
}

// String renders one action per line.
func (r *ApplyReport) String() string {
	if r.Empty() {
		return fmt.Sprintf("tenant %s: in sync (no actions)", r.Tenant)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tenant %s: %d action(s)\n", r.Tenant, len(r.Actions))
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	return b.String()
}

func (a Action) record(rep *ApplyReport) {
	rep.span.Event("%s", a)
	rep.Actions = append(rep.Actions, a)
}

// validate checks a spec's internal consistency before any state is
// touched.
func (spec *TenantSpec) validate() error {
	if spec.Tenant == "" {
		return fmt.Errorf("vpc: tenant needs a name")
	}
	names := make(map[string]*NetworkSpec, len(spec.Networks))
	owner := make(map[string]string) // member -> network
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		if ns.Name == "" {
			return fmt.Errorf("vpc: tenant %s: network %d needs a name", spec.Tenant, i)
		}
		if _, dup := names[ns.Name]; dup {
			return fmt.Errorf("vpc: tenant %s: duplicate network %q", spec.Tenant, ns.Name)
		}
		names[ns.Name] = ns
		if _, err := ParseCIDR(ns.CIDR); err != nil {
			return fmt.Errorf("vpc: tenant %s: network %q: %w", spec.Tenant, ns.Name, err)
		}
		seen := make(map[string]bool, len(ns.Members))
		for _, m := range ns.Members {
			if m == "" {
				return fmt.Errorf("vpc: tenant %s: network %q lists an empty member", spec.Tenant, ns.Name)
			}
			if seen[m] {
				return fmt.Errorf("vpc: tenant %s: network %q lists %q twice", spec.Tenant, ns.Name, m)
			}
			seen[m] = true
			if other, ok := owner[m]; ok {
				return fmt.Errorf("vpc: tenant %s: member %q in both %q and %q (hosts join one network)",
					spec.Tenant, m, other, ns.Name)
			}
			owner[m] = ns.Name
		}
		seenBrokers := make(map[string]bool, len(ns.Brokers))
		for _, b := range ns.Brokers {
			if b == "" {
				return fmt.Errorf("vpc: tenant %s: network %q lists an empty broker", spec.Tenant, ns.Name)
			}
			if seenBrokers[b] {
				return fmt.Errorf("vpc: tenant %s: network %q lists broker %q twice", spec.Tenant, ns.Name, b)
			}
			seenBrokers[b] = true
		}
		if ns.ServicePool != "" {
			pool, err := ParseCIDR(ns.ServicePool)
			if err != nil {
				return fmt.Errorf("vpc: tenant %s: network %q service pool: %w", spec.Tenant, ns.Name, err)
			}
			cidr, _ := ParseCIDR(ns.CIDR) // validated above
			if !cidr.Contains(pool.Base) || !cidr.Contains(pool.Broadcast()) ||
				pool.Base <= cidr.Base+1 || pool.Broadcast() >= cidr.Broadcast() {
				return fmt.Errorf("vpc: tenant %s: network %q service pool %s must sit strictly inside %s (past the gateway, before broadcast)",
					spec.Tenant, ns.Name, ns.ServicePool, ns.CIDR)
			}
		}
	}
	pairs := make(map[[2]string]bool, len(spec.Peerings))
	for _, pe := range spec.Peerings {
		if pe.A == pe.B {
			return fmt.Errorf("vpc: tenant %s: peering %q with itself", spec.Tenant, pe.A)
		}
		for _, side := range []string{pe.A, pe.B} {
			if _, ok := names[side]; !ok {
				return fmt.Errorf("vpc: tenant %s: peering names unknown network %q", spec.Tenant, side)
			}
		}
		key := pairKey(pe.A, pe.B)
		if pairs[key] {
			return fmt.Errorf("vpc: tenant %s: duplicate peering %s<->%s", spec.Tenant, key[0], key[1])
		}
		pairs[key] = true
		for _, ps := range append(append([]string(nil), pe.AllowA...), pe.AllowB...) {
			if _, err := ParsePrefix(ps); err != nil {
				return fmt.Errorf("vpc: tenant %s: peering %s<->%s: %w", spec.Tenant, pe.A, pe.B, err)
			}
		}
	}
	if spec.Quota.RateBps < 0 {
		return fmt.Errorf("vpc: tenant %s: negative quota rate", spec.Tenant)
	}
	if spec.Quota.MaxVMs < 0 || spec.Quota.MaxVMMemoryMB < 0 {
		return fmt.Errorf("vpc: tenant %s: negative VM quota", spec.Tenant)
	}
	vmNames := make(map[string]bool, len(spec.VMs))
	vmIPs := make(map[string]map[netsim.IP]bool)
	totalMem := 0
	for i := range spec.VMs {
		vs := &spec.VMs[i]
		if vs.Name == "" {
			return fmt.Errorf("vpc: tenant %s: VM %d needs a name", spec.Tenant, i)
		}
		if vmNames[vs.Name] {
			return fmt.Errorf("vpc: tenant %s: duplicate VM %q", spec.Tenant, vs.Name)
		}
		vmNames[vs.Name] = true
		ns, ok := names[vs.Network]
		if !ok {
			return fmt.Errorf("vpc: tenant %s: VM %q names unknown network %q", spec.Tenant, vs.Name, vs.Network)
		}
		if vs.MemoryMB < 0 || vs.DirtyRate < 0 {
			return fmt.Errorf("vpc: tenant %s: VM %q: negative memory or dirty rate", spec.Tenant, vs.Name)
		}
		ip, err := netsim.ParseIP(vs.IP)
		if err != nil {
			return fmt.Errorf("vpc: tenant %s: VM %q: %w", spec.Tenant, vs.Name, err)
		}
		cidr, _ := ParseCIDR(ns.CIDR) // validated above
		switch {
		case !cidr.Contains(ip):
			return fmt.Errorf("vpc: tenant %s: VM %q: IP %s outside network %q (%s)",
				spec.Tenant, vs.Name, vs.IP, ns.Name, ns.CIDR)
		case ip == cidr.Base || ip == cidr.Broadcast():
			return fmt.Errorf("vpc: tenant %s: VM %q: IP %s is the network/broadcast address",
				spec.Tenant, vs.Name, vs.IP)
		case ip == cidr.Base+1:
			return fmt.Errorf("vpc: tenant %s: VM %q: IP %s is the network's gateway",
				spec.Tenant, vs.Name, vs.IP)
		}
		if ns.ServicePool != "" {
			if pool, err := ParseCIDR(ns.ServicePool); err == nil && pool.Contains(ip) {
				return fmt.Errorf("vpc: tenant %s: VM %q: IP %s falls inside network %q's service pool %s",
					spec.Tenant, vs.Name, vs.IP, ns.Name, ns.ServicePool)
			}
		}
		if vmIPs[ns.Name] == nil {
			vmIPs[ns.Name] = make(map[netsim.IP]bool)
		}
		if vmIPs[ns.Name][ip] {
			return fmt.Errorf("vpc: tenant %s: two VMs claim %s in network %q", spec.Tenant, vs.IP, ns.Name)
		}
		vmIPs[ns.Name][ip] = true
		if vs.Host != "" {
			member := false
			for _, m := range ns.Members {
				if m == vs.Host {
					member = true
					break
				}
			}
			if !member {
				return fmt.Errorf("vpc: tenant %s: VM %q pins host %q, which network %q does not list as a member",
					spec.Tenant, vs.Name, vs.Host, ns.Name)
			}
		}
		totalMem += vs.normalized().MemoryMB
	}
	svcNames := make(map[string]bool, len(spec.Services))
	svcVIPs := make(map[string]map[netsim.IP]bool)
	for i := range spec.Services {
		ss := &spec.Services[i]
		if ss.Name == "" {
			return fmt.Errorf("vpc: tenant %s: service %d needs a name", spec.Tenant, i)
		}
		if svcNames[ss.Name] {
			return fmt.Errorf("vpc: tenant %s: duplicate service %q", spec.Tenant, ss.Name)
		}
		svcNames[ss.Name] = true
		ns, ok := names[ss.Network]
		if !ok {
			return fmt.Errorf("vpc: tenant %s: service %q names unknown network %q", spec.Tenant, ss.Name, ss.Network)
		}
		if len(ns.Members) == 0 {
			return fmt.Errorf("vpc: tenant %s: service %q: network %q has no members to probe from",
				spec.Tenant, ss.Name, ss.Network)
		}
		switch ss.Policy {
		case "", "anycast-nearest", "failover-ordered":
		default:
			return fmt.Errorf("vpc: tenant %s: service %q: unknown policy %q", spec.Tenant, ss.Name, ss.Policy)
		}
		if ss.Interval < 0 || ss.Timeout < 0 || ss.Fall < 0 || ss.Rise < 0 {
			return fmt.Errorf("vpc: tenant %s: service %q: negative probe budget", spec.Tenant, ss.Name)
		}
		if len(ss.Backends) == 0 {
			return fmt.Errorf("vpc: tenant %s: service %q has no backends", spec.Tenant, ss.Name)
		}
		seenBackends := make(map[string]bool, len(ss.Backends))
		for _, bs := range ss.Backends {
			if (bs.Member == "") == (bs.VM == "") {
				return fmt.Errorf("vpc: tenant %s: service %q: a backend names exactly one member or VM",
					spec.Tenant, ss.Name)
			}
			if seenBackends[bs.name()] {
				return fmt.Errorf("vpc: tenant %s: service %q lists backend %q twice",
					spec.Tenant, ss.Name, bs.name())
			}
			seenBackends[bs.name()] = true
			if bs.Member != "" {
				member := false
				for _, m := range ns.Members {
					if m == bs.Member {
						member = true
						break
					}
				}
				if !member {
					return fmt.Errorf("vpc: tenant %s: service %q: backend %q is not a member of network %q",
						spec.Tenant, ss.Name, bs.Member, ss.Network)
				}
				continue
			}
			found := false
			for j := range spec.VMs {
				if spec.VMs[j].Name != bs.VM {
					continue
				}
				found = true
				if spec.VMs[j].Network != ss.Network {
					return fmt.Errorf("vpc: tenant %s: service %q: backend VM %q lives in network %q, not %q",
						spec.Tenant, ss.Name, bs.VM, spec.VMs[j].Network, ss.Network)
				}
			}
			if !found {
				return fmt.Errorf("vpc: tenant %s: service %q: backend names unknown VM %q",
					spec.Tenant, ss.Name, bs.VM)
			}
		}
		if ss.VIP == "" {
			if ns.ServicePool == "" {
				return fmt.Errorf("vpc: tenant %s: service %q: no VIP pinned and network %q declares no service pool",
					spec.Tenant, ss.Name, ss.Network)
			}
			continue
		}
		vip, err := netsim.ParseIP(ss.VIP)
		if err != nil {
			return fmt.Errorf("vpc: tenant %s: service %q: %w", spec.Tenant, ss.Name, err)
		}
		cidr, _ := ParseCIDR(ns.CIDR) // validated above
		switch {
		case !cidr.Contains(vip):
			return fmt.Errorf("vpc: tenant %s: service %q: VIP %s outside network %q (%s)",
				spec.Tenant, ss.Name, ss.VIP, ns.Name, ns.CIDR)
		case vip == cidr.Base || vip == cidr.Broadcast():
			return fmt.Errorf("vpc: tenant %s: service %q: VIP %s is the network/broadcast address",
				spec.Tenant, ss.Name, ss.VIP)
		case vip == cidr.Base+1:
			return fmt.Errorf("vpc: tenant %s: service %q: VIP %s is the network's gateway",
				spec.Tenant, ss.Name, ss.VIP)
		}
		if ns.ServicePool != "" {
			pool, _ := ParseCIDR(ns.ServicePool) // validated above
			if !pool.Contains(vip) {
				return fmt.Errorf("vpc: tenant %s: service %q: VIP %s outside network %q's declared service pool %s",
					spec.Tenant, ss.Name, ss.VIP, ns.Name, ns.ServicePool)
			}
		}
		if vmIPs[ss.Network][vip] {
			return fmt.Errorf("vpc: tenant %s: service %q: VIP %s collides with a VM address in network %q",
				spec.Tenant, ss.Name, ss.VIP, ss.Network)
		}
		if svcVIPs[ss.Network] == nil {
			svcVIPs[ss.Network] = make(map[netsim.IP]bool)
		}
		if svcVIPs[ss.Network][vip] {
			return fmt.Errorf("vpc: tenant %s: two services claim VIP %s in network %q", spec.Tenant, ss.VIP, ss.Network)
		}
		svcVIPs[ss.Network][vip] = true
	}
	// The VM capacity envelope is declarative: a spec that exceeds it is
	// refused outright, before any state is touched.
	if q := spec.Quota.MaxVMs; q > 0 && len(spec.VMs) > q {
		return fmt.Errorf("vpc: tenant %s: %d VMs exceed quota MaxVMs=%d", spec.Tenant, len(spec.VMs), q)
	}
	if q := spec.Quota.MaxVMMemoryMB; q > 0 && totalMem > q {
		return fmt.Errorf("vpc: tenant %s: %d MB of VM memory exceeds quota MaxVMMemoryMB=%d",
			spec.Tenant, totalMem, q)
	}
	return nil
}

// normalized fills a VMSpec's defaulted fields so live state can be
// compared against the spec field by field.
func (v VMSpec) normalized() VMSpec {
	if v.MemoryMB <= 0 {
		v.MemoryMB = 256
	}
	if v.DirtyRate <= 0 {
		v.DirtyRate = 2000
	}
	return v
}

// pairKey normalizes an unordered network pair.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// peeringEqual compares two peering specs for the same pair, policy
// included (order of prefixes matters: specs are data, not sets).
func peeringEqual(x, y PeeringSpec) bool {
	if pairKey(x.A, x.B) != pairKey(y.A, y.B) {
		return false
	}
	// Normalize orientation before comparing the per-side policies.
	xa, xb := x.AllowA, x.AllowB
	if x.A > x.B {
		xa, xb = xb, xa
	}
	ya, yb := y.AllowA, y.AllowB
	if y.A > y.B {
		ya, yb = yb, ya
	}
	return stringsEqual(xa, ya) && stringsEqual(xb, yb)
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
