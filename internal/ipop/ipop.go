// Package ipop implements the comparison baseline of the paper's
// evaluation: an IPOP-like layer-3 overlay VPN (Ganguly et al., "IP over
// P2P"). It differs from WAVNet in exactly the ways the paper calls out:
//
//   - Data packets are routed through the structured P2P overlay (a ring
//     with finger shortcuts), traversing intermediate nodes rather than a
//     direct host-to-host tunnel.
//   - Every overlay packet pays user-level processing at each hop: a
//     fixed per-packet delay plus a node-wide service-rate cap, which is
//     what collapses IPOP's relative bandwidth on fast links (Figure 7).
//   - The mapping from virtual IP to overlay node is established when a
//     node registers the address and is not updated by gratuitous ARP, so
//     after VM live migration packets keep flowing to the stale node
//     (Figure 9's post-migration stall).
//
// Node-to-node overlay links are opened by a bootstrap round that
// discovers each node's NAT mapping via STUN and fires simultaneous
// hellos — a stand-in for Brunet's connection protocol.
package ipop

import (
	"encoding/binary"
	"sort"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// RouterMAC is the MAC the IPOP tap impersonates for all remote virtual
// IPs (proxy ARP, as in IPOP's router mode).
var RouterMAC = ether.MAC{0x02, 0x50, 0x4F, 0x50, 0x00, 0x01}

// Overlay packet types.
const (
	opHello = 0x21
	opData  = 0x22
)

// overlayHeaderExtra models Brunet's per-packet header overhead beyond
// our compact 12-byte routing header.
const overlayHeaderExtra = 30

// Config tunes an IPOP node.
type Config struct {
	Port uint16 // overlay UDP port (default 4600)
	// ProcRate is the node's user-level forwarding capacity in
	// packets/second (default 1800, calibrated to Figure 7's collapse).
	ProcRate float64
	// ProcDelay is the fixed per-packet processing latency (default 150µs).
	ProcDelay sim.Duration
	// BridgeLatency matches core's software bridge cost.
	BridgeLatency sim.Duration
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = 4600
	}
	if c.ProcRate <= 0 {
		c.ProcRate = 1800
	}
	if c.ProcDelay <= 0 {
		c.ProcDelay = 150 * sim.Microsecond
	}
	if c.BridgeLatency <= 0 {
		c.BridgeLatency = 10 * sim.Microsecond
	}
	return c
}

// Network is an IPOP deployment: the bootstrap-time registry of nodes,
// the ring structure, and the static virtual-IP ownership map.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes []*Node
	ipMap map[netsim.IP]*Node

	// Stats.
	Routed  uint64
	Dropped uint64
}

// New creates an empty IPOP deployment.
func New(eng *sim.Engine, cfg Config) *Network {
	return &Network{eng: eng, cfg: cfg.withDefaults(), ipMap: make(map[netsim.IP]*Node)}
}

// Node is one IPOP endpoint.
type Node struct {
	nw     *Network
	name   string
	phys   *netsim.Host
	sock   *netsim.UDPSocket
	ringID uint32
	mapped netsim.Addr // NAT mapping discovered at bootstrap

	// Overlay links: peer ring ID -> external address; established by
	// the bootstrap hello exchange.
	links map[uint32]*overlayLink

	bridge *ether.Bridge
	tap    *ether.BridgePort
	dom0   *ipstack.Stack
	macSeq uint32

	// Local delivery: virtual IP -> MAC on the local bridge.
	localMACs map[netsim.IP]ether.MAC
	pending   map[netsim.IP][][]byte

	// Processing queue state (rate cap).
	busyUntil sim.Time

	// stunWait captures the next STUN response during bootstrap.
	stunWait func(*stun.Message)

	// Stats.
	Forwarded, Delivered, ProcDrops uint64
}

type overlayLink struct {
	peer *Node
	addr netsim.Addr
	up   bool
}

// AddNode attaches a new IPOP node running on a physical host.
func (nw *Network) AddNode(phys *netsim.Host, name string) (*Node, error) {
	n := &Node{
		nw:        nw,
		name:      name,
		phys:      phys,
		ringID:    fnv32(name),
		links:     make(map[uint32]*overlayLink),
		localMACs: make(map[netsim.IP]ether.MAC),
		pending:   make(map[netsim.IP][][]byte),
	}
	sock, err := phys.BindUDP(nw.cfg.Port, n.onPacket)
	if err != nil {
		return nil, err
	}
	n.sock = sock
	n.bridge = ether.NewBridge(nw.eng, name+"-ipop-br", nw.cfg.BridgeLatency)
	n.tap = n.bridge.AddPort("ipop0")
	n.tap.SetRecv(n.onTapFrame)
	nw.nodes = append(nw.nodes, n)
	return n, nil
}

func fnv32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Bridge returns the node's local bridge.
func (n *Node) Bridge() *ether.Bridge { return n.bridge }

// VirtualMTU reports the MTU usable above the IPOP encapsulation.
func (n *Node) VirtualMTU() int {
	return 1472 - 12 - overlayHeaderExtra - ether.HeaderLen
}

// Pool returns the world's buffer pool.
func (n *Node) Pool() *netsim.Pool { return n.phys.Network().Pool() }

// AttachVIF adds a local bridge port (VM NIC).
func (n *Node) AttachVIF(name string) ether.NIC { return n.bridge.AddPort(name) }

// DetachVIF removes a local bridge port.
func (n *Node) DetachVIF(nic ether.NIC) {
	if p, ok := nic.(*ether.BridgePort); ok {
		n.bridge.RemovePort(p)
	}
}

// CreateDom0 attaches the node's management stack and registers its IP.
func (n *Node) CreateDom0(ip netsim.IP) *ipstack.Stack {
	n.macSeq++
	mac := ether.MAC{0x02, 0x49, byte(n.ringID >> 16), byte(n.ringID >> 8), byte(n.ringID), byte(n.macSeq)}
	n.dom0 = ipstack.New(n.nw.eng, n.name+"-ipop-dom0", n.AttachVIF("vnet0"), mac, ip,
		ipstack.Config{MTU: n.VirtualMTU(), Pool: n.Pool()})
	n.nw.RegisterIP(ip, n)
	return n.dom0
}

// Dom0 returns the management stack.
func (n *Node) Dom0() *ipstack.Stack { return n.dom0 }

// NewMAC hands out MACs for VMs hosted on this node.
func (n *Node) NewMAC() ether.MAC {
	n.macSeq++
	return ether.MAC{0x02, 0x49, byte(n.ringID >> 16), byte(n.ringID >> 8), byte(n.ringID), byte(n.macSeq)}
}

// RegisterIP binds a virtual IP to its owning node. The binding is
// static: IPOP does not follow VM migration (deliberately — this is the
// baseline's documented flaw).
func (nw *Network) RegisterIP(ip netsim.IP, n *Node) { nw.ipMap[ip] = n }

// Build computes the ring: each node links to its successor, predecessor
// and finger shortcuts at power-of-two ring offsets.
func (nw *Network) Build() {
	sort.Slice(nw.nodes, func(i, j int) bool { return nw.nodes[i].ringID < nw.nodes[j].ringID })
	n := len(nw.nodes)
	if n < 2 {
		return
	}
	for i, node := range nw.nodes {
		add := func(j int) {
			peer := nw.nodes[((j%n)+n)%n]
			if peer == node {
				return
			}
			// Links are symmetric: both ends must know each other for
			// the hello exchange and for reverse-path routing.
			if _, dup := node.links[peer.ringID]; !dup {
				node.links[peer.ringID] = &overlayLink{peer: peer}
			}
			if _, dup := peer.links[node.ringID]; !dup {
				peer.links[node.ringID] = &overlayLink{peer: node}
			}
		}
		add(i + 1)
		add(i - 1)
		for off := 2; off < n; off *= 2 {
			add(i + off)
		}
	}
}

// Bootstrap discovers every node's NAT mapping via the given STUN server
// and opens all overlay links with simultaneous hellos. It blocks the
// calling process until the links are up (or the attempt budget runs
// out) and returns the number of links that failed.
func (nw *Network) Bootstrap(p *sim.Proc, stunServer netsim.Addr) int {
	// Phase 1: every node learns its external mapping.
	remaining := len(nw.nodes)
	for _, node := range nw.nodes {
		node := node
		nw.eng.Spawn("ipop-stun", func(sp *sim.Proc) {
			defer func() { remaining--; p.Unpark() }()
			res, err := stun.Classify(sp, node.phys, stunServer, stun.Config{})
			if err == nil {
				// Re-map for the overlay socket: one binding request
				// from it (the classification socket's mapping differs).
				node.mapped = res.Mapped
			}
			node.bindOwnMapping(sp, stunServer)
		})
	}
	for remaining > 0 {
		if !p.Park() {
			break
		}
	}
	// Phase 2: simultaneous hello exchange on every link.
	for _, node := range nw.nodes {
		for _, l := range node.links {
			l.addr = l.peer.mapped
		}
	}
	for try := 0; try < 10; try++ {
		for _, node := range nw.nodes {
			for _, l := range node.sortedLinks() {
				if !l.up {
					node.sendHello(l)
				}
			}
		}
		if !p.Sleep(200 * sim.Millisecond) {
			break
		}
	}
	failed := 0
	for _, node := range nw.nodes {
		for _, l := range node.links {
			if !l.up {
				failed++
			}
		}
	}
	// Link maintenance: Brunet pings its connections, which keeps the
	// NAT mappings under the overlay links alive.
	for _, node := range nw.nodes {
		node := node
		sim.NewTicker(nw.eng, 10*sim.Second, func() {
			for _, l := range node.sortedLinks() {
				if l.up {
					node.sendHello(l)
				}
			}
		})
	}
	return failed
}

// bindOwnMapping sends one STUN binding request from the overlay socket
// so the advertised address reflects this socket's NAT mapping.
func (n *Node) bindOwnMapping(p *sim.Proc, server netsim.Addr) {
	got := false
	n.stunWait = func(m *stun.Message) {
		n.mapped = m.Mapped
		got = true
		p.Unpark()
	}
	req := &stun.Message{Type: stun.TypeBindingRequest}
	req.TxID[0] = 0xAA
	for try := 0; try < 3 && !got; try++ {
		n.sock.SendTo(server, req.Marshal())
		timer := sim.NewTimer(n.nw.eng, func() { p.Unpark() })
		timer.Reset(500 * sim.Millisecond)
		p.Park()
		timer.Stop()
	}
	n.stunWait = nil
	if n.mapped.IsZero() {
		// Public host: its own address is the mapping.
		n.mapped = netsim.Addr{IP: n.phys.IP(), Port: n.nw.cfg.Port}
	}
}

func (n *Node) sortedLinks() []*overlayLink {
	out := make([]*overlayLink, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].peer.ringID < out[j].peer.ringID })
	return out
}

func (n *Node) sendHello(l *overlayLink) {
	b := make([]byte, 5)
	b[0] = opHello
	binary.BigEndian.PutUint32(b[1:], n.ringID)
	n.sock.SendTo(l.addr, b)
}

func (n *Node) onPacket(pkt netsim.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	switch pkt.Payload[0] {
	case 0x00, 0x01:
		if m, err := stun.Unmarshal(pkt.Payload); err == nil &&
			m.Type == stun.TypeBindingResponse && n.stunWait != nil {
			n.stunWait(m)
		}
	case opHello:
		if len(pkt.Payload) < 5 {
			return
		}
		id := binary.BigEndian.Uint32(pkt.Payload[1:])
		if l, ok := n.links[id]; ok {
			l.up = true
			l.addr = pkt.Src
		}
	case opData:
		pkt = pkt.Keep() // held until the daemon gets to it
		n.process(func() { n.onOverlayData(pkt) })
	}
}

// process applies the node's user-level packet cost: fixed delay plus a
// service-rate queue. Packets beyond one second of backlog are dropped —
// the overloaded-daemon behaviour behind Figure 7 — and process reports
// false.
func (n *Node) process(fn func()) bool {
	now := n.nw.eng.Now()
	if n.busyUntil < now {
		n.busyUntil = now
	}
	service := sim.Duration(1e9 / n.nw.cfg.ProcRate)
	if n.busyUntil.Sub(now) > sim.Second {
		n.ProcDrops++
		n.nw.Dropped++
		return false
	}
	n.busyUntil = n.busyUntil.Add(service)
	n.nw.eng.At(n.busyUntil.Add(n.nw.cfg.ProcDelay), fn)
	return true
}

// ---- data path ----

// onTapFrame handles frames leaving the local bridge through the tap:
// proxy-ARP for remote addresses, overlay routing for IP packets sent to
// the router MAC.
func (n *Node) onTapFrame(f *ether.Frame) {
	switch f.Type {
	case ether.TypeARP:
		arp, err := ether.UnmarshalARP(f.Payload)
		if err != nil {
			return
		}
		// Learn local bindings from any local ARP traffic.
		n.learnLocal(arp.SenderIP, arp.SenderMAC)
		if arp.Op != ether.ARPRequest {
			return
		}
		owner := n.nw.ipMap[arp.TargetIP]
		if owner == nil || owner == n {
			return // local owner answers on the bridge itself
		}
		reply := &ether.ARP{
			Op:        ether.ARPReply,
			SenderMAC: RouterMAC,
			SenderIP:  arp.TargetIP,
			TargetMAC: arp.SenderMAC,
			TargetIP:  arp.SenderIP,
		}
		n.tap.Send(&ether.Frame{Dst: arp.SenderMAC, Src: RouterMAC, Type: ether.TypeARP, Payload: reply.Marshal()})
	case ether.TypeIPv4:
		if f.Dst != RouterMAC {
			return
		}
		if len(f.Payload) < 20 {
			return
		}
		dst := netsim.IP(binary.BigEndian.Uint32(f.Payload[16:20]))
		src := netsim.IP(binary.BigEndian.Uint32(f.Payload[12:16]))
		n.learnLocal(src, f.Src)
		f.Retain() // held until the daemon gets to it
		if !n.process(func() {
			n.route(dst, f)
			f.Release()
		}) {
			f.Release()
		}
	}
}

func (n *Node) learnLocal(ip netsim.IP, mac ether.MAC) {
	if ip == 0 || mac == RouterMAC {
		return
	}
	n.localMACs[ip] = mac
	if q, ok := n.pending[ip]; ok {
		delete(n.pending, ip)
		for _, raw := range q {
			n.deliverLocal(ip, raw)
		}
	}
}

// route forwards an IP frame toward the registered owner of dst.
func (n *Node) route(dst netsim.IP, f *ether.Frame) {
	owner := n.nw.ipMap[dst]
	if owner == nil {
		n.nw.Dropped++
		return
	}
	if owner == n {
		n.deliverLocal(dst, f.Payload)
		return
	}
	n.forward(owner.ringID, dst, f.Payload, 32)
}

// forward sends an overlay data packet one hop closer to the target ring
// position.
func (n *Node) forward(target uint32, dst netsim.IP, ipPacket []byte, ttl int) {
	if ttl <= 0 {
		n.nw.Dropped++
		return
	}
	var best *overlayLink
	bestDist := ringDist(n.ringID, target)
	for _, l := range n.sortedLinks() {
		if !l.up {
			continue
		}
		if d := ringDist(l.peer.ringID, target); d < bestDist {
			best, bestDist = l, d
		}
	}
	if best == nil {
		n.nw.Dropped++
		return
	}
	b := make([]byte, 12+len(ipPacket))
	b[0] = opData
	b[1] = byte(ttl)
	binary.BigEndian.PutUint32(b[2:], target)
	binary.BigEndian.PutUint32(b[6:], uint32(dst))
	copy(b[12:], ipPacket)
	n.Forwarded++
	n.nw.Routed++
	n.sock.SendToSized(best.addr, b, len(b)+28+overlayHeaderExtra)
}

// ringDist is the clockwise-or-counterclockwise distance on the 32-bit
// ring.
func ringDist(a, b uint32) uint32 {
	d := a - b
	if d2 := b - a; d2 < d {
		d = d2
	}
	return d
}

func (n *Node) onOverlayData(pkt netsim.Packet) {
	b := pkt.Payload
	if len(b) < 12 {
		return
	}
	target := binary.BigEndian.Uint32(b[2:])
	dst := netsim.IP(binary.BigEndian.Uint32(b[6:]))
	ttl := int(b[1])
	if target == n.ringID {
		n.deliverLocal(dst, b[12:])
		return
	}
	n.forward(target, dst, b[12:], ttl-1)
}

// deliverLocal hands an IP packet to the local owner of dst via the
// bridge, resolving its MAC with a router-originated ARP if needed.
func (n *Node) deliverLocal(dst netsim.IP, ipPacket []byte) {
	mac, ok := n.localMACs[dst]
	if !ok {
		if len(n.pending[dst]) < 64 {
			cp := make([]byte, len(ipPacket))
			copy(cp, ipPacket)
			n.pending[dst] = append(n.pending[dst], cp)
		}
		req := &ether.ARP{Op: ether.ARPRequest, SenderMAC: RouterMAC, TargetIP: dst}
		n.tap.Send(&ether.Frame{Dst: ether.Broadcast, Src: RouterMAC, Type: ether.TypeARP, Payload: req.Marshal()})
		return
	}
	n.Delivered++
	cp := make([]byte, len(ipPacket))
	copy(cp, ipPacket)
	n.tap.Send(&ether.Frame{Dst: mac, Src: RouterMAC, Type: ether.TypeIPv4, Payload: cp})
}
