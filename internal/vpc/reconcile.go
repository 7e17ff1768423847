// Tenant API v2: the reconciler. Reconcile diffs a declarative
// TenantSpec against the manager's live state and converges it —
// creating and deleting networks, admitting and evicting members (with
// the existing admission rollback), installing and removing peering
// gateways, and setting per-tenant quotas — idempotently: applying the
// same spec twice yields an empty second report.

package vpc

import (
	"fmt"
	"sort"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// Fabric is what the reconciler needs from the surrounding world: a way
// to resolve machine keys to joined WAVNet hosts, control over the
// rendezvous layer's peering allowances, and the broker topology —
// which broker each machine homes on and how a network's records
// federate across brokers. scenario.World implements it.
type Fabric interface {
	// ResolveHost returns the named machine's WAVNet host, creating it
	// and joining it to the rendezvous layer first if needed. It blocks
	// the calling process.
	ResolveHost(p *sim.Proc, key string) (*core.Host, error)
	// AllowNetPeering permits brokered connects between the two named
	// networks; RevokeNetPeering withdraws the allowance.
	AllowNetPeering(a, b string)
	RevokeNetPeering(a, b string)
	// HomeBroker names the rendezvous broker the machine registers
	// with (the fabric's primary broker when unset). The empty key
	// names the primary broker itself.
	HomeBroker(key string) string
	// ConfigureNetFederation installs the network's replication set on
	// every named broker — records of the network replicate among
	// exactly those brokers. An empty list withdraws the network from
	// the federation (primary broker only).
	ConfigureNetFederation(net string, brokers []string) error
	// BrokerAddr resolves a broker name to the address hosts dial; the
	// empty name resolves the fabric's primary broker. The reconciler
	// pushes these addresses to member hosts as their failover candidate
	// set, so re-homing after a broker death stays inside the network's
	// declared broker set.
	BrokerAddr(name string) (netsim.Addr, bool)
	// Locality returns the measured RTT matrix the distance locator has
	// accumulated for the named network (rows follow names; 0 entries
	// are unmeasured). The placement scheduler scores candidate hosts
	// with it; returning (nil, nil) degrades placement to pure load
	// balancing.
	Locality(net string) (names []string, rtts [][]sim.Duration)
}

// tenantState is the reconciler's memory of what it last applied for a
// tenant: the peering policies and the quota. Network ownership lives
// on Network.Tenant; memberships are read live.
type tenantState struct {
	peerings map[[2]string]PeeringSpec
	// peerLinks records the cross-network tunnels each peering CREATED
	// (host-name pairs), so unpeering tears down exactly those and
	// never severs pre-existing shared-fabric tunnels that also carry
	// other traffic.
	peerLinks map[[2]string]map[[2]string]bool
	// vms are the tenant's placed virtual machines, keyed by VM name.
	vms map[string]*vmRec
	// services are the tenant's live L3 services, keyed by service name.
	services map[string]*svcRec
	quota    QuotaSpec
	quotaSet bool
}

func (mg *Manager) tenant(name string) *tenantState {
	ts, ok := mg.tenants[name]
	if !ok {
		ts = &tenantState{
			peerings:  make(map[[2]string]PeeringSpec),
			peerLinks: make(map[[2]string]map[[2]string]bool),
			vms:       make(map[string]*vmRec),
			services:  make(map[string]*svcRec),
		}
		mg.tenants[name] = ts
	}
	return ts
}

// Reconcile converges live state onto spec and reports every action it
// took. On error the returned report still lists the actions performed
// before the failure.
func (mg *Manager) Reconcile(p *sim.Proc, spec TenantSpec, fab Fabric) (*ApplyReport, error) {
	rep := &ApplyReport{Tenant: spec.Tenant}
	rep.span = mg.tracer.Start(nil, "apply", obs.Labels{Tenant: spec.Tenant})
	defer rep.span.End()
	if err := spec.validate(); err != nil {
		rep.span.Event("rejected: %v", err)
		return rep, err
	}
	ts := mg.tenant(spec.Tenant)

	// Ownership: a network name may not be taken from another tenant.
	desired := make(map[string]*NetworkSpec, len(spec.Networks))
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		desired[ns.Name] = ns
		if live, ok := mg.networks[ns.Name]; ok && live.Tenant != "" && live.Tenant != spec.Tenant {
			return rep, fmt.Errorf("vpc: network %q belongs to tenant %q, not %q",
				ns.Name, live.Tenant, spec.Tenant)
		}
	}
	desiredPairs := make(map[[2]string]PeeringSpec, len(spec.Peerings))
	for _, pe := range spec.Peerings {
		desiredPairs[pairKey(pe.A, pe.B)] = pe
	}

	// Federation scope, checked before any state is touched: every
	// member's record lives on its home broker, so that broker must be
	// in the network's set — or be the primary, for networks that
	// declare none — or the record would sit outside the declared
	// federation (a silent partition: co-tenants on the named brokers
	// could never look the member up). This also refuses shrinking the
	// broker set from under an existing member.
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		named := make(map[string]bool, len(ns.Brokers))
		for _, b := range ns.Brokers {
			named[b] = true
		}
		if len(ns.Brokers) == 0 {
			named[fab.HomeBroker("")] = true // unfederated: primary only
		}
		for _, key := range ns.Members {
			if home := fab.HomeBroker(key); !named[home] {
				return rep, fmt.Errorf("vpc: member %s homes on broker %q, which network %q's broker set %v does not name",
					key, home, ns.Name, ns.Brokers)
			}
		}
	}

	// 0. Service pre-pass, before anything moves: dropped services are
	// evicted and changed ones stopped while their networks, members
	// and backend VMs still exist (VIP reservation and observed health
	// carry over to the rebuild). Then the VM pre-pass: every VM the
	// desired spec no longer supports where it runs is detached now,
	// while its segment still exists. VMs the spec still wants are
	// re-placed (or migrated) by the placement pass after memberships
	// converge.
	mg.reconcileServicesPre(&spec, ts, rep)
	mg.reconcileVMsPre(&spec, ts, rep)

	// 1. Remove stale peerings first, while both sides' networks and
	// members still exist.
	stale := make([][2]string, 0)
	for pair := range ts.peerings {
		if _, keep := desiredPairs[pair]; !keep {
			stale = append(stale, pair)
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		return stale[i][0] < stale[j][0] || (stale[i][0] == stale[j][0] && stale[i][1] < stale[j][1])
	})
	for _, pair := range stale {
		delete(ts.peerings, pair)
		Action{Op: "unpeer", Network: pair[0] + "<->" + pair[1]}.record(rep)
		mg.removePeering(pair, ts, fab, rep)
	}

	// 2. Tear down owned networks missing from the spec: members leave
	// in reverse admission order (anchor last), then the network goes.
	for _, live := range mg.Networks() {
		if live.Tenant != spec.Tenant {
			continue
		}
		if _, keep := desired[live.Name]; keep {
			continue
		}
		members := live.Members()
		for i := len(members) - 1; i >= 0; i-- {
			m := members[i]
			if err := mg.Evict(p, m.Host, live.Name); err != nil {
				return rep, fmt.Errorf("vpc: evict %s from %s: %w", m.Host.Name(), live.Name, err)
			}
			Action{Op: "evict", Network: live.Name, Host: m.Host.Name()}.record(rep)
		}
		// Withdraw the network from the federation before the name is
		// freed: a reusable name must not inherit a replication set.
		if len(live.Brokers) > 0 {
			if err := fab.ConfigureNetFederation(live.Name, nil); err != nil {
				return rep, fmt.Errorf("vpc: defederate %s: %w", live.Name, err)
			}
			Action{Op: "defederate", Network: live.Name}.record(rep)
		}
		if err := mg.Delete(live.Name); err != nil {
			return rep, fmt.Errorf("vpc: delete %s: %w", live.Name, err)
		}
		Action{Op: "delete-network", Network: live.Name}.record(rep)
	}

	// 3. Create, adopt or recreate the declared networks, then converge
	// each network's federation: the replication set is installed on
	// exactly the named brokers BEFORE any member joins, so a record is
	// never registered outside its network's broker set.
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		if err := mg.reconcileNetwork(spec.Tenant, ns, ts, fab, rep); err != nil {
			return rep, err
		}
	}
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		live := mg.networks[ns.Name]
		if stringsEqual(live.Brokers, ns.Brokers) {
			continue
		}
		if err := fab.ConfigureNetFederation(ns.Name, ns.Brokers); err != nil {
			return rep, fmt.Errorf("vpc: federate %s: %w", ns.Name, err)
		}
		live.Brokers = append([]string(nil), ns.Brokers...)
		if len(ns.Brokers) == 0 {
			Action{Op: "defederate", Network: ns.Name}.record(rep)
		} else {
			Action{Op: "federate", Network: ns.Name,
				Detail: fmt.Sprintf("brokers %v", ns.Brokers)}.record(rep)
		}
	}

	// 4. Membership, in two passes over ALL networks: every eviction
	// first (reverse admission order within a network), then every
	// admission (spec order; the first member anchors the network). A
	// single interleaved pass would fail to move a host between two of
	// the tenant's networks whenever the destination reconciles first —
	// the host would still be scoped to its old network at Admit time.
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		live := mg.networks[ns.Name]
		want := make(map[string]bool, len(ns.Members))
		for _, m := range ns.Members {
			want[m] = true
		}
		members := live.Members()
		for j := len(members) - 1; j >= 0; j-- {
			m := members[j]
			if want[m.Host.Name()] {
				continue
			}
			if err := mg.Evict(p, m.Host, ns.Name); err != nil {
				if err == ErrAnchorPinned {
					return rep, fmt.Errorf("vpc: %s anchors %s and cannot leave while members remain; drop the whole network or keep %s in the spec",
						m.Host.Name(), ns.Name, m.Host.Name())
				}
				return rep, fmt.Errorf("vpc: evict %s from %s: %w", m.Host.Name(), ns.Name, err)
			}
			Action{Op: "evict", Network: ns.Name, Host: m.Host.Name()}.record(rep)
		}
	}
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		live := mg.networks[ns.Name]
		for _, key := range ns.Members {
			if _, in := live.Member(key); in {
				continue
			}
			h, err := fab.ResolveHost(p, key)
			if err != nil {
				return rep, fmt.Errorf("vpc: resolve %s: %w", key, err)
			}
			m, err := mg.Admit(p, h, ns.Name)
			if err != nil {
				return rep, fmt.Errorf("vpc: admit %s into %s: %w", key, ns.Name, err)
			}
			Action{Op: "admit", Network: ns.Name, Host: key, Detail: m.IP.String()}.record(rep)
		}
	}

	// Membership epilogue: every member learns the dial addresses of its
	// network's broker set as failover candidates, so a host whose home
	// broker dies re-homes onto another *declared* broker — never onto
	// one outside the federation scope. Asserted on every apply (like
	// quotas), covering members admitted above and broker-set changes.
	for i := range spec.Networks {
		ns := &spec.Networks[i]
		names := ns.Brokers
		if len(names) == 0 {
			names = []string{fab.HomeBroker("")}
		}
		addrs := make([]netsim.Addr, 0, len(names))
		for _, b := range names {
			a, ok := fab.BrokerAddr(b)
			if !ok {
				return rep, fmt.Errorf("vpc: network %q names unresolvable broker %q", ns.Name, b)
			}
			addrs = append(addrs, a)
		}
		for _, m := range mg.networks[ns.Name].Members() {
			m.Host.SetBrokerCandidates(addrs)
		}
	}

	// 5. Peerings: install the inter-VNI gateway policy on every member
	// of both sides and broker the cross-network tunnels. Rules are
	// re-asserted on every apply (covering members admitted above);
	// actions are recorded only for new pairs or changed policy.
	for _, pe := range spec.Peerings {
		pair := pairKey(pe.A, pe.B)
		prev, had := ts.peerings[pair]
		switch {
		case !had:
			Action{Op: "peer", Network: pe.A + "<->" + pe.B, Detail: peeringDetail(pe)}.record(rep)
		case !peeringEqual(prev, pe):
			Action{Op: "repeer", Network: pe.A + "<->" + pe.B, Detail: peeringDetail(pe)}.record(rep)
		}
		// Record the pair BEFORE installing: a partially installed
		// peering (rules and allowance in, a connect failed) must stay
		// tracked so a later spec without it still revokes everything.
		ts.peerings[pair] = pe
		if err := mg.installPeering(p, pe, ts, fab, rep); err != nil {
			return rep, err
		}
	}

	// 6. Quota: asserted on every member (idempotent at the host);
	// reported only when the tenant's quota actually changed.
	q := spec.Quota
	for i := range spec.Networks {
		live := mg.networks[spec.Networks[i].Name]
		for _, m := range live.Members() {
			if q.RateBps > 0 {
				m.Host.SetVNIQuota(live.VNI, core.QuotaConfig{
					Tenant: spec.Tenant, RateBps: q.RateBps, BurstBytes: q.BurstBytes,
				})
			} else {
				m.Host.ClearVNIQuota(live.VNI)
			}
		}
	}
	if q.RateBps > 0 && (!ts.quotaSet || ts.quota != q) {
		Action{Op: "set-quota", Detail: fmt.Sprintf("%.0f bps/tunnel", q.RateBps)}.record(rep)
	} else if q.RateBps == 0 && ts.quotaSet && ts.quota.RateBps > 0 {
		Action{Op: "clear-quota"}.record(rep)
	}
	ts.quota, ts.quotaSet = q, true

	// 7. VMs: place what is missing (pinned host or scheduler choice)
	// and live-migrate what runs on the wrong member. Runs last so every
	// admission, federation push and quota above is already in force on
	// both ends of any migration.
	if err := mg.reconcileVMs(p, &spec, ts, fab, rep); err != nil {
		return rep, err
	}

	// 8. Services, last of all: backends resolve to their final host,
	// address and stack only after the VM pass placed and migrated
	// everything. Unchanged live services are untouched.
	if err := mg.reconcileServices(&spec, ts, fab, rep); err != nil {
		return rep, err
	}

	return rep, nil
}

// reconcileNetwork brings one declared network into existence: create
// it, adopt an unowned live one, or — when an empty live network
// disagrees on CIDR/VNI/addressing — recreate it from the spec. A
// non-empty network that disagrees is an error: converging it would
// disrupt members the spec wants kept.
func (mg *Manager) reconcileNetwork(tenant string, ns *NetworkSpec, ts *tenantState, fab Fabric, rep *ApplyReport) error {
	cfg := NetworkConfig{VNI: ns.VNI, StaticAddressing: ns.StaticAddressing,
		Lease: ns.Lease, ServicePool: ns.ServicePool}
	live, ok := mg.networks[ns.Name]
	if !ok {
		n, err := mg.Create(ns.Name, ns.CIDR, cfg)
		if err != nil {
			return fmt.Errorf("vpc: create %s: %w", ns.Name, err)
		}
		n.Tenant = tenant
		Action{Op: "create-network", Network: ns.Name,
			Detail: fmt.Sprintf("%s vni %d", n.CIDR, n.VNI)}.record(rep)
		return nil
	}
	if live.Tenant == "" {
		live.Tenant = tenant
		Action{Op: "adopt-network", Network: ns.Name}.record(rep)
	}
	prefix, _ := ParseCIDR(ns.CIDR) // validated earlier
	effLease := ns.Lease
	if effLease <= 0 {
		effLease = 10 * sim.Minute
	}
	matches := live.CIDR == prefix &&
		(ns.VNI == 0 || ns.VNI == live.VNI) &&
		live.cfg.StaticAddressing == ns.StaticAddressing &&
		live.cfg.Lease == effLease &&
		live.cfg.ServicePool == ns.ServicePool
	if matches {
		return nil
	}
	if len(live.members) > 0 {
		return fmt.Errorf("vpc: network %q exists as %s (vni %d) with members; cannot converge to %s — evict them first",
			ns.Name, live.CIDR, live.VNI, ns.CIDR)
	}
	// A still-desired peering that references this network blocks the
	// delete; remove it here — step 5 re-installs it against the
	// recreated network (and reports it as a fresh "peer").
	for pair := range ts.peerings {
		if pair[0] == ns.Name || pair[1] == ns.Name {
			delete(ts.peerings, pair)
			mg.removePeering(pair, ts, fab, rep)
		}
	}
	// The recreated network starts unfederated; the federation step
	// right after network reconciliation re-installs the spec's set.
	if len(live.Brokers) > 0 {
		if err := fab.ConfigureNetFederation(ns.Name, nil); err != nil {
			return fmt.Errorf("vpc: recreate %s: defederate: %w", ns.Name, err)
		}
	}
	if err := mg.Delete(ns.Name); err != nil {
		return fmt.Errorf("vpc: recreate %s: %w", ns.Name, err)
	}
	if ns.VNI != 0 && ns.VNI == live.VNI {
		// Recreating the same network of the same tenant with its VNI
		// pinned: the delete-and-create is one reconcile step, so the
		// never-reuse-a-retired-VNI rule (which protects a NEW tenant
		// from a dead network's stale segments) does not apply.
		delete(mg.retired, ns.VNI)
	}
	n, err := mg.Create(ns.Name, ns.CIDR, cfg)
	if err != nil {
		return fmt.Errorf("vpc: recreate %s: %w", ns.Name, err)
	}
	n.Tenant = tenant
	Action{Op: "recreate-network", Network: ns.Name,
		Detail: fmt.Sprintf("%s vni %d", n.CIDR, n.VNI)}.record(rep)
	return nil
}

// peeringPrefixes resolves a peering side's allow list: explicit
// prefixes, or the whole CIDR of the destination network.
func peeringPrefixes(allow []string, into *Network) []ether.Prefix {
	if len(allow) == 0 {
		return []ether.Prefix{{IP: into.CIDR.Base, Bits: into.CIDR.Bits}}
	}
	out := make([]ether.Prefix, 0, len(allow))
	for _, s := range allow {
		pfx, _ := ParsePrefix(s) // validated earlier
		out = append(out, pfx)
	}
	return out
}

// installPeering asserts one peering end to end: gateway rules on every
// member of both networks, the broker allowance, and the bipartite
// tunnel mesh between the two memberships. Tunnels it creates (as
// opposed to pre-existing shared-fabric ones) are recorded so unpeering
// can tear down exactly them.
func (mg *Manager) installPeering(p *sim.Proc, pe PeeringSpec, ts *tenantState, fab Fabric, rep *ApplyReport) error {
	netA, netB := mg.networks[pe.A], mg.networks[pe.B]
	intoA := peeringPrefixes(pe.AllowA, netA)
	intoB := peeringPrefixes(pe.AllowB, netB)
	install := func(h *core.Host) {
		h.AllowPeering(netB.VNI, netA.VNI, intoA) // frames from B entering A
		h.AllowPeering(netA.VNI, netB.VNI, intoB) // frames from A entering B
	}
	for _, m := range netA.Members() {
		install(m.Host)
	}
	for _, m := range netB.Members() {
		install(m.Host)
	}
	fab.AllowNetPeering(pe.A, pe.B)
	pair := pairKey(pe.A, pe.B)
	for _, a := range netA.Members() {
		for _, b := range netB.Members() {
			if t, ok := a.Host.Tunnel(b.Host.Name()); ok && t.Established() {
				continue
			}
			if _, err := a.Host.ConnectTo(p, b.Host.Name()); err != nil {
				return fmt.Errorf("vpc: peering %s<->%s: connect %s-%s: %w",
					pe.A, pe.B, a.Host.Name(), b.Host.Name(), err)
			}
			links := ts.peerLinks[pair]
			if links == nil {
				links = make(map[[2]string]bool)
				ts.peerLinks[pair] = links
			}
			links[[2]string{a.Host.Name(), b.Host.Name()}] = true
			Action{Op: "peer-connect", Network: pe.A + "<->" + pe.B,
				Host: a.Host.Name(), Detail: "to " + b.Host.Name()}.record(rep)
		}
	}
	return nil
}

// removePeering tears one peering down: broker allowance, gateway rules
// on every member, and only the cross-network tunnels the peering
// itself created — tunnels that predate it (the shared fabric) keep
// carrying their other traffic. Each destroyed tunnel is reported as a
// peer-disconnect action.
func (mg *Manager) removePeering(pair [2]string, ts *tenantState, fab Fabric, rep *ApplyReport) {
	fab.RevokeNetPeering(pair[0], pair[1])
	links := make([][2]string, 0, len(ts.peerLinks[pair]))
	for link := range ts.peerLinks[pair] {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		return links[i][0] < links[j][0] || (links[i][0] == links[j][0] && links[i][1] < links[j][1])
	})
	delete(ts.peerLinks, pair)
	netA, okA := mg.networks[pair[0]]
	netB, okB := mg.networks[pair[1]]
	if !okA || !okB {
		return
	}
	hosts := make(map[string]*core.Host)
	for _, m := range netA.Members() {
		m.Host.RevokePeering(netB.VNI, netA.VNI)
		m.Host.RevokePeering(netA.VNI, netB.VNI)
		hosts[m.Host.Name()] = m.Host
	}
	for _, m := range netB.Members() {
		m.Host.RevokePeering(netB.VNI, netA.VNI)
		m.Host.RevokePeering(netA.VNI, netB.VNI)
		hosts[m.Host.Name()] = m.Host
	}
	for _, link := range links {
		if a := hosts[link[0]]; a != nil {
			a.Disconnect(link[1])
		}
		if b := hosts[link[1]]; b != nil {
			b.Disconnect(link[0])
		}
		Action{Op: "peer-disconnect", Network: pair[0] + "<->" + pair[1],
			Host: link[0], Detail: "from " + link[1]}.record(rep)
	}
}

func peeringDetail(pe PeeringSpec) string {
	sideA, sideB := "all", "all"
	if len(pe.AllowA) > 0 {
		sideA = fmt.Sprintf("%v", pe.AllowA)
	}
	if len(pe.AllowB) > 0 {
		sideB = fmt.Sprintf("%v", pe.AllowB)
	}
	return fmt.Sprintf("into %s: %s, into %s: %s", pe.A, sideA, pe.B, sideB)
}
