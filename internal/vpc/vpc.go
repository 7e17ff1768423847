// Package vpc is the multi-tenant control plane that turns the flat
// WAVNet virtual LAN into a Virtual Private Cloud: many isolated
// virtual networks multiplexed over one shared tunnel fabric.
//
// A Manager creates and deletes networks — each with a name, a VNI
// (virtual network identifier), a CIDR address space and an optional
// default flag — and admits WAVNet hosts into them. Admission wires
// three layers at once:
//
//   - data plane: the host joins the VNI's bridge segment, so its
//     frames are VNI-tagged on the wire and foreign tags are dropped
//     (core's isolation check);
//   - control plane: the host re-registers with the rendezvous layer
//     scoped to the network, so Lookup, GroupQuery and brokered
//     connects only ever see co-tenants;
//   - addressing: the first admitted host anchors the network with a
//     static gateway address and a per-network DHCP pool carved from
//     the CIDR; later members lease their addresses over the virtual
//     LAN with the unmodified DHCP client (the paper's §II.B claim,
//     now per tenant).
//
// Because every network has its own VNI, MAC learning tables and DHCP
// pool, two tenants can run the same CIDR (both 10.0.0.0/24) over the
// same physical WAN without ever seeing each other's ARP, broadcast or
// unicast traffic.
package vpc

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"wavnet/internal/core"
	"wavnet/internal/dhcp"
	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/placement"
	"wavnet/internal/sim"
)

// Errors returned by the manager.
var (
	ErrNoSuchNetwork = errors.New("vpc: no such network")
	ErrNetworkExists = errors.New("vpc: network name already in use")
	ErrVNIInUse      = errors.New("vpc: VNI already in use")
	ErrVNIRetired    = errors.New("vpc: VNI belonged to a deleted network and is never reused")
	ErrPeered        = errors.New("vpc: network still has an applied peering; remove it from the tenant spec first")
	ErrNotEmpty      = errors.New("vpc: network still has members")
	ErrAnchorPinned  = errors.New("vpc: cannot evict the anchor while other members remain")
	ErrNoDefault     = errors.New("vpc: no default network configured")
	ErrDefaultExists = errors.New("vpc: a default network already exists")
	ErrAlreadyMember = errors.New("vpc: host is already a member of another network")
	ErrPoolExhausted = errors.New("vpc: address pool exhausted")
	ErrNotMember     = errors.New("vpc: host is not a member")
	ErrHasServices   = errors.New("vpc: network still has live services; remove them from the tenant spec first")
)

// CIDR is an IPv4 prefix.
type CIDR struct {
	Base netsim.IP
	Bits int
}

// ParseCIDR parses "a.b.c.d/n".
func ParseCIDR(s string) (CIDR, error) {
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return CIDR{}, fmt.Errorf("vpc: bad CIDR %q (no prefix length)", s)
	}
	ip, err := netsim.ParseIP(s[:slash])
	if err != nil {
		return CIDR{}, err
	}
	bits, err2 := strconv.Atoi(s[slash+1:])
	if err2 != nil || bits < 8 || bits > 30 {
		return CIDR{}, fmt.Errorf("vpc: bad prefix length in %q", s)
	}
	return CIDR{Base: ip & netsim.IP(^uint32(0)<<(32-bits)), Bits: bits}, nil
}

// Mask returns the netmask.
func (c CIDR) Mask() netsim.IP { return netsim.IP(^uint32(0) << (32 - c.Bits)) }

// Broadcast returns the prefix's broadcast address.
func (c CIDR) Broadcast() netsim.IP { return c.Base | ^c.Mask() }

// Contains reports whether ip falls inside the prefix.
func (c CIDR) Contains(ip netsim.IP) bool { return ip&c.Mask() == c.Base }

// String renders "a.b.c.d/n".
func (c CIDR) String() string { return fmt.Sprintf("%s/%d", c.Base, c.Bits) }

// NetworkConfig tunes one virtual network at creation.
type NetworkConfig struct {
	// VNI pins the network's identifier; 0 auto-allocates the next
	// free one (VNI 0 itself is reserved for the default flat LAN).
	VNI uint32
	// Default marks this network as the one hosts are admitted into
	// when they name none.
	Default bool
	// StaticAddressing skips DHCP: members get sequential addresses
	// from the pool at admission (cheaper for large-scale sweeps).
	StaticAddressing bool
	// Lease is the DHCP lease duration (default 10 minutes).
	Lease sim.Duration
	// ServicePool carves a sub-CIDR out of the network's address space
	// for service VIPs: the DHCP server never leases it and static
	// assignment skips it. Empty disables the carve-out.
	ServicePool string
}

// Network is one isolated virtual network.
type Network struct {
	Name    string
	VNI     uint32
	CIDR    CIDR
	Default bool
	// Tenant is the owner that declared this network through a
	// TenantSpec ("" for networks created imperatively).
	Tenant string
	// Brokers is the applied federation: the rendezvous brokers that
	// replicate this network's records among themselves (empty = the
	// fabric's primary broker alone). Maintained by the reconciler.
	Brokers []string

	cfg     NetworkConfig
	members map[string]*Member
	order   []string // admission order; order[0] is the anchor
	dhcpSrv *dhcp.Server
	nextIP  netsim.IP // static-addressing cursor
	// svcPool is the parsed service VIP carve-out (zero when none).
	svcPool CIDR
	hasPool bool
	// reserved pins addresses assigned outside the pools (VM spec IPs):
	// static assignment skips them and the DHCP server never leases
	// them.
	reserved map[netsim.IP]bool

	// repair is the mesh-repair loop (see startMeshRepair).
	repair *sim.Proc
}

// Member is one host's membership in a network.
type Member struct {
	Host  *core.Host
	Net   *Network
	Stack *ipstack.Stack
	IP    netsim.IP

	vif   ether.NIC
	dhcpc *dhcp.Client
}

// Anchor reports whether this member hosts the network's DHCP server.
func (m *Member) Anchor() bool {
	return len(m.Net.order) > 0 && m.Net.order[0] == m.Host.Name()
}

// Members returns the current members in admission order.
func (n *Network) Members() []*Member {
	out := make([]*Member, 0, len(n.order))
	for _, name := range n.order {
		out = append(out, n.members[name])
	}
	return out
}

// Member returns one host's membership.
func (n *Network) Member(hostName string) (*Member, bool) {
	m, ok := n.members[hostName]
	return m, ok
}

// GatewayIP is the anchor's address (the first usable address of the
// CIDR), which doubles as the DHCP server identifier.
func (n *Network) GatewayIP() netsim.IP { return n.CIDR.Base + 1 }

// DHCPServer exposes the per-network DHCP server (nil before the first
// admission or under static addressing).
func (n *Network) DHCPServer() *dhcp.Server { return n.dhcpSrv }

// reserveIP pins an address for a VM: it must not already belong to a
// member, static assignment skips it, and the DHCP pool refuses to
// lease it.
func (n *Network) reserveIP(ip netsim.IP) error {
	for _, m := range n.Members() {
		if m.IP == ip {
			return fmt.Errorf("address %s already belongs to member %s of %s",
				ip, m.Host.Name(), n.Name)
		}
	}
	n.reserved[ip] = true
	if n.dhcpSrv != nil {
		n.dhcpSrv.Reserve(ip)
	}
	return nil
}

// releaseIP lifts a VM's address reservation.
func (n *Network) releaseIP(ip netsim.IP) {
	delete(n.reserved, ip)
	if n.dhcpSrv != nil {
		n.dhcpSrv.Unreserve(ip)
	}
}

// inServicePool reports whether ip falls inside the VIP carve-out.
func (n *Network) inServicePool(ip netsim.IP) bool {
	return n.hasPool && n.svcPool.Contains(ip)
}

// Manager is the multi-tenant control plane.
type Manager struct {
	networks map[string]*Network
	byVNI    map[uint32]*Network
	def      *Network
	nextVNI  uint32
	// retired holds VNIs of deleted networks: stale data-plane segments
	// for them may linger on hosts, so they are never handed out again
	// — not by auto-allocation, and not by explicit pinning.
	retired map[uint32]bool

	// tenants carries the reconciler's per-tenant policy state
	// (applied peerings, placed VMs and quota); network ownership itself
	// lives on Network.Tenant.
	tenants map[string]*tenantState

	// sched is the placement scheduler the VM pass consults for
	// unpinned VMs (created lazily).
	sched *placement.Scheduler

	// tracer records one span per Reconcile (with the actions as events)
	// and parents managed migrations under it; nil disables tracing.
	tracer *obs.Trace
}

// SetTracer installs the span tracer reconciles and managed VM
// migrations record into (nil disables tracing).
func (mg *Manager) SetTracer(tr *obs.Trace) { mg.tracer = tr }

// NewManager returns an empty control plane.
func NewManager() *Manager {
	return &Manager{
		networks: make(map[string]*Network),
		byVNI:    make(map[uint32]*Network),
		nextVNI:  1,
		retired:  make(map[uint32]bool),
		tenants:  make(map[string]*tenantState),
	}
}

// Create registers a new virtual network.
func (mg *Manager) Create(name, cidr string, cfg NetworkConfig) (*Network, error) {
	if name == "" {
		return nil, errors.New("vpc: network needs a name")
	}
	if _, ok := mg.networks[name]; ok {
		return nil, ErrNetworkExists
	}
	if cfg.Default && mg.def != nil {
		return nil, ErrDefaultExists
	}
	prefix, err := ParseCIDR(cidr)
	if err != nil {
		return nil, err
	}
	var pool CIDR
	hasPool := false
	if cfg.ServicePool != "" {
		pool, err = ParseCIDR(cfg.ServicePool)
		if err != nil {
			return nil, err
		}
		if !prefix.Contains(pool.Base) || !prefix.Contains(pool.Broadcast()) ||
			pool.Base <= prefix.Base+1 || pool.Broadcast() >= prefix.Broadcast() {
			return nil, fmt.Errorf("vpc: service pool %s must sit strictly inside %s (past the gateway, before broadcast)",
				cfg.ServicePool, cidr)
		}
		hasPool = true
	}
	vni := cfg.VNI
	if vni == 0 {
		vni = mg.nextVNI
		mg.nextVNI++
	} else if mg.byVNI[vni] != nil {
		return nil, ErrVNIInUse
	} else if mg.retired[vni] {
		return nil, ErrVNIRetired
	} else if vni >= mg.nextVNI {
		// Never auto-allocate a VNI that was ever pinned: stale
		// data-plane segments for a deleted network must not start
		// matching a new tenant's tag.
		mg.nextVNI = vni + 1
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 10 * sim.Minute
	}
	n := &Network{
		Name:     name,
		VNI:      vni,
		CIDR:     prefix,
		Default:  cfg.Default,
		cfg:      cfg,
		members:  make(map[string]*Member),
		nextIP:   prefix.Base + 2,
		reserved: make(map[netsim.IP]bool),
		svcPool:  pool,
		hasPool:  hasPool,
	}
	mg.networks[name] = n
	mg.byVNI[vni] = n
	if cfg.Default {
		mg.def = n
	}
	return n, nil
}

// Delete removes an empty network. Its VNI is never reused. A network
// that still has an applied peering is refused: the manager alone
// cannot revoke the broker allowance or the peer side's gateway rules,
// and network names are reusable — a dangling allowance would link a
// future stranger's network to this tenant. Drop the peering from the
// tenant spec (and Apply) first; the reconciler's own teardown path
// always unpeers before deleting.
func (mg *Manager) Delete(name string) error {
	n, ok := mg.networks[name]
	if !ok {
		return ErrNoSuchNetwork
	}
	if len(n.members) > 0 {
		return ErrNotEmpty
	}
	if ts, ok := mg.tenants[n.Tenant]; ok {
		for pair := range ts.peerings {
			if pair[0] == name || pair[1] == name {
				return ErrPeered
			}
		}
		// A live service's VIP, aliases and probe loop all hang off this
		// network; the reconciler's service pre-pass always evicts them
		// before teardown reaches here.
		for _, rec := range ts.services {
			if rec.spec.Network == name {
				return ErrHasServices
			}
		}
	}
	n.stopMeshRepair()
	delete(mg.networks, name)
	delete(mg.byVNI, n.VNI)
	mg.retired[n.VNI] = true
	if mg.def == n {
		mg.def = nil
	}
	return nil
}

// Get resolves a network by name; the empty name resolves the default.
func (mg *Manager) Get(name string) (*Network, bool) {
	if name == "" {
		if mg.def == nil {
			return nil, false
		}
		return mg.def, true
	}
	n, ok := mg.networks[name]
	return n, ok
}

// ByVNI resolves a network by its VNI.
func (mg *Manager) ByVNI(vni uint32) (*Network, bool) {
	n, ok := mg.byVNI[vni]
	return n, ok
}

// Networks lists every network sorted by name.
func (mg *Manager) Networks() []*Network {
	out := make([]*Network, 0, len(mg.networks))
	for _, n := range mg.networks {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// meshRepairInterval paces the per-network repair loop. It is longer
// than the default tunnel timeout divided by anything meaningful on
// purpose: repair is the slow path for members that were cut off long
// enough to be garbage-collected, not a keepalive.
const meshRepairInterval = 10 * sim.Second

// startMeshRepair spawns the network's mesh-repair loop (idempotent).
// The intra-tenant mesh is built once at admission; a member cut off
// from the fabric longer than the tunnel timeout has its tunnels
// garbage-collected on both ends, and nothing on the data path
// re-creates them — so a recovered member (a healed partition, a
// restarted site) would stay unreachable forever. The loop walks member
// pairs every interval and re-punches the missing edges through the
// current home brokers, best effort: a still-dark peer just fails and
// is retried next round.
func (n *Network) startMeshRepair(eng *sim.Engine) {
	if n.repair != nil && !n.repair.Dead() {
		return
	}
	// The loop runs until interrupted: the sticky interrupt propagates
	// out of ConnectTo's wait loops, so Sleep observes it no matter
	// where the stop request landed.
	n.repair = eng.Spawn("vpc/"+n.Name+"/mesh-repair", func(p *sim.Proc) {
		for p.Sleep(meshRepairInterval) {
			n.repairMesh(p)
		}
	})
}

// repairMesh runs one repair round: re-connect every member pair whose
// tunnel is missing or not established.
func (n *Network) repairMesh(p *sim.Proc) {
	order := append([]string(nil), n.order...)
	for i, a := range order {
		for _, b := range order[i+1:] {
			if p.Interrupted() {
				return // stopped mid-round
			}
			ma, oka := n.members[a]
			mb, okb := n.members[b]
			if !oka || !okb { // evicted while we slept
				continue
			}
			if t, ok := ma.Host.Tunnel(b); ok && t.Established() {
				continue
			}
			_, _ = ma.Host.ConnectTo(p, mb.Host.Name())
		}
	}
}

// stopMeshRepair ends the repair loop (idempotent).
func (n *Network) stopMeshRepair() {
	if n.repair != nil && !n.repair.Dead() {
		n.repair.Interrupt()
	}
	n.repair = nil
}

// Admit brings a WAVNet host into a network end-to-end: VPC join
// (segment + scoped rendezvous registration), tunnels to every
// existing co-tenant, and an address — static for the anchor (the
// network's gateway, which also runs the DHCP server), leased over the
// fresh virtual LAN for everyone else. It blocks the calling process
// until the member's stack is configured and reachable.
func (mg *Manager) Admit(p *sim.Proc, h *core.Host, network string) (*Member, error) {
	n, ok := mg.Get(network)
	if !ok {
		if network == "" {
			return nil, ErrNoDefault
		}
		return nil, ErrNoSuchNetwork
	}
	if m, ok := n.members[h.Name()]; ok {
		return m, nil
	}
	prevNet, prevVNI := h.Network()
	if prevNet != "" && (prevNet != n.Name || prevVNI != n.VNI) {
		return nil, ErrAlreadyMember
	}
	_, hadSegment := h.SegmentBridge(n.VNI)
	if err := h.JoinVPC(p, n.Name, n.VNI); err != nil {
		return nil, err
	}
	// A failed admission must not strand the host scoped to a network
	// it never became a member of: restore its previous scope (and
	// only drop the segment if this attempt created it).
	rollback := func() {
		if !hadSegment {
			h.LeaveVNI(n.VNI)
		}
		_ = h.JoinVPC(p, prevNet, prevVNI)
	}
	// Intra-tenant mesh: a member reaches every co-tenant directly.
	for _, peer := range n.order {
		if _, err := h.ConnectTo(p, peer); err != nil {
			rollback()
			return nil, fmt.Errorf("vpc: %s -> %s: %w", h.Name(), peer, err)
		}
	}
	m := &Member{Host: h, Net: n}
	if len(n.order) == 0 {
		if err := n.anchor(m); err != nil {
			rollback()
			return nil, err
		}
	} else if err := n.address(p, m); err != nil {
		rollback()
		return nil, err
	}
	n.members[h.Name()] = m
	n.order = append(n.order, h.Name())
	n.startMeshRepair(h.Phys().Engine())
	return m, nil
}

// anchor configures the first member: static gateway address plus the
// per-network DHCP server leasing the rest of the CIDR.
func (n *Network) anchor(m *Member) error {
	st, err := m.Host.CreateDom0On(n.VNI, n.GatewayIP())
	if err != nil {
		return err
	}
	m.Stack, m.IP = st, n.GatewayIP()
	if n.cfg.StaticAddressing {
		return nil
	}
	// The pool is the CIDR's usable range minus the network address,
	// the gateway/anchor (+1) and the broadcast address.
	srv, err := dhcp.NewServer(st, dhcp.ServerConfig{
		PoolStart:  n.GatewayIP() + 1,
		PoolEnd:    n.CIDR.Broadcast() - 1,
		SubnetMask: n.CIDR.Mask(),
		Router:     n.GatewayIP(),
		Lease:      n.cfg.Lease,
	})
	if err != nil {
		return err
	}
	// The service VIP carve-out is reserved wholesale: the pool's
	// addresses belong to services, never to leases. Individual VIPs are
	// additionally pinned via reserveIP at service admission (so pinned
	// VIPs outside any pool are protected too).
	if n.hasPool {
		for ip := n.svcPool.Base; ip <= n.svcPool.Broadcast(); ip++ {
			srv.Reserve(ip)
		}
	}
	n.dhcpSrv = srv
	return nil
}

// address configures a non-anchor member's stack on the VNI segment.
func (n *Network) address(p *sim.Proc, m *Member) error {
	h := m.Host
	vifName := fmt.Sprintf("vpc%d", n.VNI)
	vif, err := h.AttachVIFOn(n.VNI, vifName)
	if err != nil {
		return err
	}
	m.vif = vif
	stackName := fmt.Sprintf("%s-%s", h.Name(), n.Name)
	if n.cfg.StaticAddressing {
		for n.reserved[n.nextIP] || n.inServicePool(n.nextIP) {
			n.nextIP++
		}
		ip := n.nextIP
		if ip >= n.CIDR.Broadcast() {
			h.DetachVIF(vif)
			return ErrPoolExhausted
		}
		n.nextIP++
		m.Stack = ipstack.New(h.Phys().Engine(), stackName, vif, h.NewMAC(), ip,
			ipstack.Config{MTU: h.SegmentMTU(n.VNI), Pool: h.Pool()})
		m.IP = ip
		return nil
	}
	// Lease over the virtual LAN with the unmodified DHCP client.
	m.Stack = ipstack.New(h.Phys().Engine(), stackName, vif, h.NewMAC(), 0,
		ipstack.Config{MTU: h.SegmentMTU(n.VNI), Pool: h.Pool()})
	cl, err := dhcp.NewClient(m.Stack, dhcp.ClientConfig{})
	if err != nil {
		h.DetachVIF(vif)
		return err
	}
	m.dhcpc = cl
	ip, err := cl.Acquire(p)
	if err != nil {
		cl.Close()
		h.DetachVIF(vif)
		return fmt.Errorf("vpc: %s: %w", h.Name(), err)
	}
	m.IP = ip
	return nil
}

// Evict removes a member from its network: the lease is released, the
// vif detached, the host's segment dropped (after which the tag check
// discards any traffic still addressed to it), and the host is
// re-scoped to the default network so it can be admitted elsewhere.
// The anchor can only leave last (it hosts the DHCP server).
func (mg *Manager) Evict(p *sim.Proc, h *core.Host, network string) error {
	n, ok := mg.Get(network)
	if !ok {
		return ErrNoSuchNetwork
	}
	m, ok := n.members[h.Name()]
	if !ok {
		return ErrNotMember
	}
	if m.Anchor() && len(n.members) > 1 {
		return ErrAnchorPinned
	}
	// A member still running one of the tenant's VMs cannot leave: its
	// departure would drop the segment out from under the vif. The
	// reconciler's VM pre-pass detaches such VMs before any eviction;
	// imperative callers must drop the VM from the tenant spec first.
	if ts, ok := mg.tenants[n.Tenant]; ok {
		for name, rec := range ts.vms {
			if rec.host == h.Name() && rec.spec.Network == n.Name {
				return fmt.Errorf("vpc: %s still runs VM %q; remove it from the tenant spec first",
					h.Name(), name)
			}
		}
		// Likewise a member still backing a LIVE service: its stack
		// aliases the VIP and the probe loop pings it. The service
		// pre-pass stops affected services before evictions run.
		for name, rec := range ts.services {
			if rec.svc == nil || rec.spec.Network != n.Name {
				continue
			}
			for _, bs := range rec.spec.Backends {
				if bs.Member == h.Name() {
					return fmt.Errorf("vpc: %s still backs service %q; remove it from the tenant spec first",
						h.Name(), name)
				}
			}
		}
	}
	// Control-plane scope must not outlive the membership: co-tenants
	// could otherwise still discover and broker-connect to the evicted
	// host, and the host itself could join nothing else. Re-scope
	// FIRST: if the RPC fails the membership stays intact and the
	// eviction can simply be retried.
	if err := h.LeaveVPC(p); err != nil {
		return err
	}
	if m.dhcpc != nil {
		m.dhcpc.Release()
		m.dhcpc.Close()
	}
	if m.vif != nil {
		h.DetachVIF(m.vif)
	}
	if m.Anchor() && n.dhcpSrv != nil {
		n.dhcpSrv.Close()
		n.dhcpSrv = nil
	}
	h.LeaveVNI(n.VNI)
	// Per-tenant data-plane policy must not outlive the membership.
	h.ClearVNIQuota(n.VNI)
	h.DropPeeringsOf(n.VNI)
	delete(n.members, h.Name())
	for i, name := range n.order {
		if name == h.Name() {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	return nil
}
