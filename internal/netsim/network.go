package netsim

import (
	"fmt"

	"wavnet/internal/sim"
)

// Site is a geographical location (university, data center, home network).
// Propagation latency between hosts is a function of their sites.
type Site struct {
	Index int
	Name  string
}

// Network is the simulated Internet: sites, a one-way latency mesh,
// public hosts (routable IPs) and LANs hanging off gateways.
type Network struct {
	eng   *sim.Engine
	sites []*Site

	// oneWay holds the one-way propagation delay between every pair of
	// sites: delays are symmetric, so it is the lower triangle of the
	// matrix, row by row, in one flat slice (see pair). A new site
	// appends its row.
	oneWay []sim.Duration

	byIP  map[IP]*Host // public routing table (includes gateway aliases)
	hosts []*Host

	// pool is the world's free lists of buffers and packets.
	pool *Pool

	// LossRate is the probability a WAN transit drops a packet.
	LossRate float64
	// JitterFrac adds uniform ±frac×latency noise to each WAN transit.
	JitterFrac float64

	// partitions holds site pairs whose WAN path is currently severed
	// (fault injection); packets between them are silently dropped.
	partitions map[[2]int]bool

	// Stats.
	Delivered      uint64
	LostWAN        uint64
	NoRoute        uint64
	QueueDrops     uint64
	PartitionDrops uint64
	deliverHook    func(*Packet)
	dropHook       func(*Host, *Packet, DropReason)
}

// DropReason classifies why the network dropped an in-flight packet.
type DropReason uint8

// Drop reasons, one per drop site class.
const (
	DropNoRoute   DropReason = iota // no gateway / unknown destination
	DropQueue                       // access-link queue overflow
	DropWANLoss                     // random WAN loss (LossRate)
	DropPartition                   // severed site pair (fault injection)
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no_route"
	case DropQueue:
		return "queue_overflow"
	case DropWANLoss:
		return "wan_loss"
	default:
		return "partition"
	}
}

// New creates an empty network on the given engine.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:  eng,
		byIP: make(map[IP]*Host),
		pool: NewPool(),
	}
}

// Pool returns the world's buffer pool: every component of one world
// leases from it, so one bound covers what the whole world retains.
func (n *Network) Pool() *Pool { return n.pool }

// Engine returns the simulation engine this network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// NewSite registers a site and returns it. Latency to every existing site
// defaults to zero until SetLatency is called.
func (n *Network) NewSite(name string) *Site {
	s := &Site{Index: len(n.sites), Name: name}
	n.sites = append(n.sites, s)
	n.oneWay = append(n.oneWay, make([]sim.Duration, s.Index+1)...)
	return s
}

// ReserveSites makes room in the latency matrix for k sites, so a
// builder that knows how many it will add sizes the matrix once
// instead of letting append grow it.
func (n *Network) ReserveSites(k int) {
	if need := k * (k + 1) / 2; need > cap(n.oneWay) {
		n.oneWay = append(make([]sim.Duration, 0, need), n.oneWay...)
	}
}

// pair is where the delay between two sites sits in oneWay.
func pair(a, b *Site) int {
	p := sitePair(a, b)
	return p[1]*(p[1]+1)/2 + p[0]
}

// SetLatency sets the symmetric one-way propagation delay between two
// sites. Use SetRTT for round-trip values as the paper reports them.
func (n *Network) SetLatency(a, b *Site, oneWay sim.Duration) {
	n.oneWay[pair(a, b)] = oneWay
}

// SetRTT sets the symmetric propagation so that the round trip between
// the two sites equals rtt.
func (n *Network) SetRTT(a, b *Site, rtt sim.Duration) {
	n.SetLatency(a, b, rtt/2)
}

// Latency reports the configured one-way delay between two sites.
func (n *Network) Latency(a, b *Site) sim.Duration {
	return n.oneWay[pair(a, b)]
}

// Sites returns all registered sites.
func (n *Network) Sites() []*Site { return n.sites }

// sitePair normalizes an unordered site-index pair.
func sitePair(a, b *Site) [2]int {
	i, j := a.Index, b.Index
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// Partition severs the WAN path between two sites: packets in either
// direction are dropped (and counted in PartitionDrops) until Heal.
// Intra-site and LAN traffic is unaffected — this models a wide-area
// routing failure, not a host crash.
func (n *Network) Partition(a, b *Site) {
	if n.partitions == nil {
		n.partitions = make(map[[2]int]bool)
	}
	n.partitions[sitePair(a, b)] = true
}

// Heal restores the WAN path between two partitioned sites.
func (n *Network) Heal(a, b *Site) { delete(n.partitions, sitePair(a, b)) }

// Partitioned reports whether the WAN path between two sites is severed.
func (n *Network) Partitioned(a, b *Site) bool { return n.partitions[sitePair(a, b)] }

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// HostByIP resolves a public IP to its host (nil if unknown).
func (n *Network) HostByIP(ip IP) *Host { return n.byIP[ip] }

// SetDeliverHook installs a tap invoked for every packet that reaches any
// host, before local processing. Used by tests and tracing. The packet
// is only valid for the duration of the call.
func (n *Network) SetDeliverHook(fn func(*Packet)) { n.deliverHook = fn }

// SetDropHook installs a tap invoked for every packet the network
// drops, with the sending host and the reason, before the packet's
// buffer is released (the payload is only valid for the duration of
// the call). Scenario worlds use it to attribute wire losses back to
// the WAVNet flows the packet carried.
func (n *Network) SetDropHook(fn func(from *Host, pkt *Packet, reason DropReason)) {
	n.dropHook = fn
}

// drop counts nothing itself: it runs the drop hook, then releases the
// packet. Every drop site bumps its own stat and funnels through here.
func (n *Network) drop(from *Host, pkt *Packet, reason DropReason) {
	if n.dropHook != nil {
		n.dropHook(from, pkt, reason)
	}
	pkt.Release()
}

// NewPublicHost attaches a host with a routable IP directly to the WAN
// through an access link of the given rate (bits/second in each
// direction; 0 = unlimited) and access delay.
func (n *Network) NewPublicHost(name string, site *Site, ip IP, rateBps float64, accessDelay sim.Duration) *Host {
	if _, dup := n.byIP[ip]; dup {
		panic(fmt.Sprintf("netsim: duplicate public IP %s", ip))
	}
	h := &Host{
		net:      n,
		name:     name,
		site:     site,
		ip:       ip,
		up:       NewLink(n.eng, rateBps, accessDelay, 0),
		down:     NewLink(n.eng, rateBps, accessDelay, 0),
		udpPorts: make(map[uint16]*UDPSocket),
	}
	n.byIP[ip] = h
	n.hosts = append(n.hosts, h)
	return h
}

// AddAlias routes an additional public IP to an existing host (used by
// the STUN server's alternate address). Re-adding an alias the host
// already owns is a no-op, so services can be restarted on the same
// machine after a crash.
func (n *Network) AddAlias(h *Host, ip IP) {
	if owner, dup := n.byIP[ip]; dup {
		if owner == h {
			return
		}
		panic(fmt.Sprintf("netsim: duplicate alias IP %s", ip))
	}
	h.aliases = append(h.aliases, ip)
	n.byIP[ip] = h
}

// Lan is a switched local network at one site: every attached host gets a
// dedicated full-duplex adapter at the LAN rate.
type Lan struct {
	net   *Network
	site  *Site
	name  string
	rate  float64
	delay sim.Duration
	byIP  map[IP]*Host
	hosts []*Host
	gw    *Host
}

// NewLan creates a LAN at a site with the given per-adapter rate
// (bits/second) and per-hop delay.
func (n *Network) NewLan(name string, site *Site, rateBps float64, delay sim.Duration) *Lan {
	return &Lan{
		net:   n,
		site:  site,
		name:  name,
		rate:  rateBps,
		delay: delay,
		byIP:  make(map[IP]*Host),
	}
}

// NewHost attaches a new host to the LAN with a private address.
func (l *Lan) NewHost(name string, privIP IP) *Host {
	if _, dup := l.byIP[privIP]; dup {
		panic(fmt.Sprintf("netsim: duplicate LAN IP %s on %s", privIP, l.name))
	}
	h := &Host{
		net:      l.net,
		name:     name,
		site:     l.site,
		ip:       privIP,
		lan:      l,
		lanUp:    NewLink(l.net.eng, l.rate, l.delay, 0),
		lanDown:  NewLink(l.net.eng, l.rate, l.delay, 0),
		udpPorts: make(map[uint16]*UDPSocket),
	}
	l.byIP[privIP] = h
	l.hosts = append(l.hosts, h)
	l.net.hosts = append(l.net.hosts, h)
	return h
}

// AttachGateway joins an existing public host to this LAN with the given
// private address, making it the LAN's default gateway. All non-local
// traffic from LAN hosts is forwarded to it.
func (l *Lan) AttachGateway(gw *Host, privIP IP) {
	if _, dup := l.byIP[privIP]; dup {
		panic(fmt.Sprintf("netsim: duplicate LAN IP %s on %s", privIP, l.name))
	}
	gw.lan = l
	gw.lanIP = privIP
	gw.lanUp = NewLink(l.net.eng, l.rate, l.delay, 0)
	gw.lanDown = NewLink(l.net.eng, l.rate, l.delay, 0)
	l.byIP[privIP] = gw
	l.gw = gw
}

// Gateway returns the LAN's default gateway, if any.
func (l *Lan) Gateway() *Host { return l.gw }

// Hosts returns all hosts attached to the LAN (excluding the gateway).
func (l *Lan) Hosts() []*Host { return l.hosts }

// route moves a packet from a sending host toward its destination,
// applying LAN hops, gateway forwarding and the WAN path.
func (n *Network) route(from *Host, pkt *Packet) {
	// Same-LAN delivery?
	if from.lan != nil {
		if dst, ok := from.lan.byIP[pkt.Dst.IP]; ok {
			n.lanTransit(from, dst, pkt)
			return
		}
		if !from.isPublic() {
			// Private host sending off-LAN: forward to the gateway.
			gw := from.lan.gw
			if gw == nil {
				n.NoRoute++
				n.drop(from, pkt, DropNoRoute)
				return
			}
			n.lanTransit(from, gw, pkt)
			return
		}
	}
	if from.isPublic() {
		n.wanTransit(from, pkt)
		return
	}
	n.NoRoute++
	n.drop(from, pkt, DropNoRoute)
}

// hopStage is how far along its current transit a packet is: what the
// event it is posted with has to do next.
type hopStage uint8

const (
	hopLanRx   hopStage = iota + 1 // crossed the sender's LAN adapter; the receiver's is next
	hopWanCore                     // crossed the uplink; loss, jitter and propagation are next
	hopWanRx                       // crossed the core; the receiver's downlink is next
	hopDeliver                     // crossed the last link
	hopFree                        // released (see Packet.Release)
)

// hop is Packet as the receiver of its own link-crossing events: the
// transit's state rides in the packet (from, to, stage), so a crossing
// posts the packet and captures nothing.
type hop Packet

// lanTransit carries a packet one hop across a LAN: serialize on the
// sender's adapter, then on the receiver's, then deliver.
func (n *Network) lanTransit(from, to *Host, pkt *Packet) {
	pkt.from, pkt.to, pkt.stage = from, to, hopLanRx
	if !from.lanUp.Post(pkt.Wire, (*hop)(pkt), nil) {
		n.QueueDrops++
		n.drop(from, pkt, DropQueue)
	}
}

// wanTransit carries a packet from a public host across the WAN to the
// public host owning the destination IP.
func (n *Network) wanTransit(from *Host, pkt *Packet) {
	dst, ok := n.byIP[pkt.Dst.IP]
	if !ok {
		n.NoRoute++
		n.drop(from, pkt, DropNoRoute)
		return
	}
	if n.partitions[sitePair(from.site, dst.site)] {
		n.PartitionDrops++
		n.drop(from, pkt, DropPartition)
		return
	}
	pkt.from, pkt.to, pkt.stage = from, dst, hopWanCore
	if !from.up.Post(pkt.Wire, (*hop)(pkt), nil) {
		n.QueueDrops++
		n.drop(from, pkt, DropQueue)
	}
}

// HandleEvent advances the packet past the link it just crossed.
func (h *hop) HandleEvent(any) {
	pkt := (*Packet)(h)
	from, to := pkt.from, pkt.to
	n := from.net
	next := to.lanDown
	switch pkt.stage {
	case hopDeliver:
		n.deliver(to, pkt)
		return
	case hopWanCore:
		// Core propagation with optional jitter and loss.
		if n.LossRate > 0 && n.eng.Rand().Float64() < n.LossRate {
			n.LostWAN++
			n.drop(from, pkt, DropWANLoss)
			return
		}
		lat := n.Latency(from.site, to.site)
		if n.JitterFrac > 0 && lat > 0 {
			j := (n.eng.Rand().Float64()*2 - 1) * n.JitterFrac * float64(lat)
			lat += sim.Duration(j)
		}
		pkt.stage = hopWanRx
		n.eng.PostAt(n.eng.Now().Add(lat), h, nil)
		return
	case hopWanRx:
		next = to.down
	}
	pkt.stage = hopDeliver
	if !next.Post(pkt.Wire, h, nil) {
		n.QueueDrops++
		n.drop(from, pkt, DropQueue)
	}
}

func (n *Network) deliver(h *Host, pkt *Packet) {
	n.Delivered++
	if n.deliverHook != nil {
		n.deliverHook(pkt)
	}
	h.deliverLocal(pkt)
}
