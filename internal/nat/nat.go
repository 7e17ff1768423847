// Package nat models the NAT gateways that stand between most Internet
// hosts and the WAN — the central obstacle WAVNet is designed to
// traverse. A Gateway attaches to a netsim public host that is also the
// default gateway of a LAN and rewrites traffic in both directions
// according to one of the four classic NAT behaviours the paper (and
// STUN, RFC 3489) distinguishes:
//
//   - Full Cone: one external port per internal endpoint; anyone may send
//     to it.
//   - Restricted Cone: as above, but inbound is accepted only from IPs the
//     internal endpoint has already sent to.
//   - Port Restricted Cone: inbound only from exact IP:port pairs already
//     contacted.
//   - Symmetric: a fresh external port per (internal endpoint,
//     destination) pair; inbound only from that destination.
//
// Mappings expire after an idle timeout (refreshed by outbound traffic,
// like iptables conntrack), which is why WAVNet's CONNECT_PULSE keepalive
// exists.
package nat

import (
	"fmt"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Type enumerates NAT behaviours.
type Type int

// NAT behaviour constants, ordered from most to least permissive.
const (
	None Type = iota // no NAT: public host
	FullCone
	RestrictedCone
	PortRestrictedCone
	Symmetric
)

// String returns the conventional name of the NAT type.
func (t Type) String() string {
	switch t {
	case None:
		return "none"
	case FullCone:
		return "full-cone"
	case RestrictedCone:
		return "restricted-cone"
	case PortRestrictedCone:
		return "port-restricted-cone"
	case Symmetric:
		return "symmetric"
	}
	return fmt.Sprintf("nat.Type(%d)", int(t))
}

// Punchable reports whether UDP hole punching between two hosts behind
// NATs of types a and b can succeed with the standard rendezvous
// technique (symmetric–symmetric and symmetric–port-restricted pairs
// cannot).
func Punchable(a, b Type) bool {
	if a == Symmetric && b == Symmetric {
		return false
	}
	if a == Symmetric && b == PortRestrictedCone || b == Symmetric && a == PortRestrictedCone {
		return false
	}
	return true
}

// DefaultMappingTimeout is the idle lifetime of a NAT mapping; the paper
// quotes "usually a couple of minutes".
const DefaultMappingTimeout = 120 * sim.Second

type internalKey struct {
	src netsim.Addr
	dst netsim.Addr // zero except for Symmetric
}

type mapping struct {
	internal    netsim.Addr
	external    uint16
	dst         netsim.Addr // Symmetric only
	peerIPs     map[netsim.IP]bool
	peers       map[netsim.Addr]bool
	lastRefresh sim.Time
}

// Gateway is a NAT device. Create with Attach.
type Gateway struct {
	host *netsim.Host
	typ  Type

	// MappingTimeout is the idle expiry of a translation entry.
	MappingTimeout sim.Duration
	// RefreshOnInbound extends mappings on inbound traffic too (most
	// consumer NATs refresh only on outbound, the conservative default).
	RefreshOnInbound bool
	// Hairpin allows a LAN host to reach another LAN host via the
	// gateway's public address. Most NATs of the paper's era did not.
	Hairpin bool

	byExternal map[uint16]*mapping
	byInternal map[internalKey]*mapping
	nextPort   uint16

	// Stats.
	Translated    uint64
	InboundOK     uint64
	FilteredDrops uint64
	ExpiredDrops  uint64
	NoMapDrops    uint64
}

// Attach installs NAT behaviour t on gw, which must be a public host
// already attached to a LAN as its gateway (see netsim.Lan.AttachGateway).
func Attach(gw *netsim.Host, t Type) *Gateway {
	if gw.Lan() == nil {
		panic("nat: host is not attached to a LAN")
	}
	g := &Gateway{
		host:           gw,
		typ:            t,
		MappingTimeout: DefaultMappingTimeout,
		byExternal:     make(map[uint16]*mapping),
		byInternal:     make(map[internalKey]*mapping),
		nextPort:       1024,
	}
	gw.SetRawHandler(g.handle)
	return g
}

// Host returns the underlying netsim host.
func (g *Gateway) Host() *netsim.Host { return g.host }

// PublicIP returns the gateway's WAN address.
func (g *Gateway) PublicIP() netsim.IP { return g.host.IP() }

func (g *Gateway) now() sim.Time { return g.host.Engine().Now() }

func (g *Gateway) expired(m *mapping) bool {
	return g.now().Sub(m.lastRefresh) > g.MappingTimeout
}

func (g *Gateway) drop(m *mapping) {
	delete(g.byExternal, m.external)
	delete(g.byInternal, internalKey{m.internal, m.dst})
}

// handle is the raw packet hook: true = consumed by NAT processing. A
// consumed packet is rewritten in place and sent on, or released.
func (g *Gateway) handle(pkt *netsim.Packet) bool {
	fromLan := g.host.Lan() != nil && pkt.Src.IP.IsPrivate()
	toSelf := pkt.Dst.IP == g.host.IP()
	switch {
	case fromLan && !toSelf:
		g.outbound(pkt)
		return true
	case fromLan && toSelf:
		// Hairpin attempt: LAN host targeting our public address.
		if g.Hairpin {
			g.inbound(pkt)
		} else {
			g.FilteredDrops++
			pkt.Release()
		}
		return true
	case toSelf:
		g.inbound(pkt)
		return true
	}
	return false
}

// outbound translates a LAN-originated packet and emits it to the WAN.
func (g *Gateway) outbound(pkt *netsim.Packet) {
	key := internalKey{src: pkt.Src}
	if g.typ == Symmetric {
		key.dst = pkt.Dst
	}
	m, ok := g.byInternal[key]
	if ok && g.expired(m) {
		g.drop(m)
		ok = false
	}
	if !ok {
		ext := g.allocPort()
		if ext == 0 {
			g.NoMapDrops++
			pkt.Release()
			return
		}
		m = &mapping{
			internal: pkt.Src,
			external: ext,
			dst:      key.dst,
			peerIPs:  make(map[netsim.IP]bool),
			peers:    make(map[netsim.Addr]bool),
		}
		g.byInternal[key] = m
		g.byExternal[ext] = m
	}
	m.lastRefresh = g.now()
	m.peerIPs[pkt.Dst.IP] = true
	m.peers[pkt.Dst] = true
	g.Translated++
	pkt.Src = netsim.Addr{IP: g.host.IP(), Port: m.external}
	g.host.SendRaw(pkt)
}

// inbound filters and translates a WAN packet addressed to our public IP.
func (g *Gateway) inbound(pkt *netsim.Packet) {
	m, ok := g.byExternal[pkt.Dst.Port]
	if !ok {
		g.NoMapDrops++
		pkt.Release()
		return
	}
	if g.expired(m) {
		g.drop(m)
		g.ExpiredDrops++
		pkt.Release()
		return
	}
	if !g.admit(m, pkt.Src) {
		g.FilteredDrops++
		pkt.Release()
		return
	}
	if g.RefreshOnInbound {
		m.lastRefresh = g.now()
	}
	g.InboundOK++
	pkt.Dst = m.internal
	g.host.SendLan(m.internal.IP, pkt)
}

func (g *Gateway) admit(m *mapping, src netsim.Addr) bool {
	switch g.typ {
	case FullCone:
		return true
	case RestrictedCone:
		return m.peerIPs[src.IP]
	case PortRestrictedCone:
		return m.peers[src]
	case Symmetric:
		return src == m.dst
	}
	return false
}

func (g *Gateway) allocPort() uint16 {
	for i := 0; i < 64512; i++ {
		p := g.nextPort
		g.nextPort++
		if g.nextPort == 0 {
			g.nextPort = 1024
		}
		if _, busy := g.byExternal[p]; !busy && p >= 1024 {
			return p
		}
	}
	return 0
}
