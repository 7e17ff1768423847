package netsim

import (
	"fmt"

	"wavnet/internal/sim"
)

// Host is a machine attached to the network: a desktop PC, a rendezvous
// server, or a NAT gateway (a public host also attached to a LAN).
type Host struct {
	net  *Network
	name string
	site *Site

	// ip is the host's primary address: public for WAN-attached hosts,
	// private for LAN hosts.
	ip      IP
	aliases []IP

	// WAN access links (public hosts only).
	up, down *Link

	// LAN attachment (LAN hosts and gateways).
	lan            *Lan
	lanIP          IP
	lanUp, lanDown *Link

	// rawHandler, when set, sees every packet delivered to this host
	// before UDP demultiplexing; returning true consumes the packet.
	// NAT gateways use this to implement translation and forwarding.
	rawHandler func(pkt *Packet) bool

	udpPorts  map[uint16]*UDPSocket
	nextEphem uint16

	// Stats.
	RecvPackets   uint64
	RecvBytes     uint64
	SentPackets   uint64
	NoSocketDrops uint64
}

// Name returns the diagnostic name of the host.
func (h *Host) Name() string { return h.name }

// Site returns the site the host is located at.
func (h *Host) Site() *Site { return h.site }

// IP returns the host's primary address.
func (h *Host) IP() IP { return h.ip }

// LanIP returns the gateway's private-side address (zero for non-gateways;
// equal to IP for plain LAN hosts).
func (h *Host) LanIP() IP {
	if h.lanIP != 0 {
		return h.lanIP
	}
	if h.lan != nil {
		return h.ip
	}
	return 0
}

// Lan returns the LAN this host is attached to, if any.
func (h *Host) Lan() *Lan { return h.lan }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.net.eng }

// Uplink returns the WAN uplink for public hosts (nil otherwise); exposed
// so scenarios can tune rates mid-run.
func (h *Host) Uplink() *Link { return h.up }

// Downlink returns the WAN downlink for public hosts (nil otherwise).
func (h *Host) Downlink() *Link { return h.down }

func (h *Host) isPublic() bool { return h.up != nil }

// SetRawHandler installs fn as the raw packet hook (see Host docs). A
// handler that returns true owns the packet: it passes it on through
// SendRaw or SendLan, or ends it with Release.
func (h *Host) SetRawHandler(fn func(pkt *Packet) bool) { h.rawHandler = fn }

// ownsIP reports whether addr is one of the host's addresses on any side.
func (h *Host) ownsIP(ip IP) bool {
	if ip == h.ip || ip == h.lanIP {
		return true
	}
	for _, a := range h.aliases {
		if a == ip {
			return true
		}
	}
	return false
}

func (h *Host) deliverLocal(pkt *Packet) {
	if h.rawHandler != nil && h.rawHandler(pkt) {
		// Consumed by NAT, which now owns the packet: it re-emits it
		// rewritten or releases it.
		return
	}
	h.RecvPackets++
	h.RecvBytes += uint64(pkt.Wire)
	if s, ok := h.udpPorts[pkt.Dst.Port]; ok {
		s.handler(Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: pkt.Payload, Wire: pkt.Wire, lease: pkt.lease})
	} else {
		h.NoSocketDrops++
	}
	pkt.Release()
}

// SendRaw injects a fully-formed packet into the network from this host;
// NAT gateways use it to re-emit, rewritten in place, the packet their
// raw handler consumed. The source address is taken from the packet
// as-is. The network owns the packet from here to its Release.
func (h *Host) SendRaw(pkt *Packet) {
	if pkt.Wire == 0 {
		pkt.Wire = len(pkt.Payload) + udpIPHeaderBytes
	}
	h.SentPackets++
	h.net.route(h, pkt)
}

// SendLan injects a packet directly onto the host's LAN toward a LAN IP,
// bypassing routing — gateways use it to deliver DNATed packets inward.
func (h *Host) SendLan(dstLanIP IP, pkt *Packet) {
	if pkt.Wire == 0 {
		pkt.Wire = len(pkt.Payload) + udpIPHeaderBytes
	}
	dst, ok := h.lan.byIP[dstLanIP]
	if !ok {
		h.net.NoRoute++
		pkt.Release()
		return
	}
	h.SentPackets++
	h.net.lanTransit(h, dst, pkt)
}

// UDPSocket is a bound UDP port delivering inbound datagrams to a
// callback. The callback runs in event context.
type UDPSocket struct {
	host    *Host
	port    uint16
	handler func(Packet)
	closed  bool
}

// BindUDP binds a UDP port (0 selects an ephemeral port) with a receive
// callback.
func (h *Host) BindUDP(port uint16, handler func(Packet)) (*UDPSocket, error) {
	if port == 0 {
		port = h.allocEphemeral()
		if port == 0 {
			return nil, fmt.Errorf("netsim: %s: no free ephemeral ports", h.name)
		}
	} else if _, busy := h.udpPorts[port]; busy {
		return nil, fmt.Errorf("netsim: %s: port %d in use", h.name, port)
	}
	s := &UDPSocket{host: h, port: port, handler: handler}
	h.udpPorts[port] = s
	return s, nil
}

func (h *Host) allocEphemeral() uint16 {
	if h.nextEphem < 49152 {
		h.nextEphem = 49152
	}
	for i := 0; i < 16384; i++ {
		p := h.nextEphem
		h.nextEphem++
		if h.nextEphem == 0 {
			h.nextEphem = 49152
		}
		if _, busy := h.udpPorts[p]; !busy && p != 0 {
			return p
		}
	}
	return 0
}

// Port returns the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// LocalAddr returns the socket's address using the host's primary IP.
func (s *UDPSocket) LocalAddr() Addr { return Addr{IP: s.host.ip, Port: s.port} }

// Host returns the owning host.
func (s *UDPSocket) Host() *Host { return s.host }

// SendTo transmits payload to dst. The payload is not copied and stays
// caller-owned: callers must not mutate it afterwards, and the network
// never recycles it.
func (s *UDPSocket) SendTo(dst Addr, payload []byte) { s.send(dst, nil, payload, 0) }

// SendLease transmits payload, which lies inside the leased buffer b.
// The buffer is borrowed like any other argument: the network retains
// it for the flight and releases it after the final receiver's handler
// returns or at the drop site, and the caller still releases its own
// reference. A nil b makes it SendTo.
func (s *UDPSocket) SendLease(dst Addr, b *Buf, payload []byte) { s.send(dst, b, payload, 0) }

// SendToSized is SendTo with an explicit wire size, for protocols whose
// real-world encapsulation carries more header bytes than the simulated
// payload (e.g. the IPOP baseline's overlay header).
func (s *UDPSocket) SendToSized(dst Addr, payload []byte, wire int) {
	if wire < len(payload)+udpIPHeaderBytes {
		wire = len(payload) + udpIPHeaderBytes
	}
	s.send(dst, nil, payload, wire)
}

func (s *UDPSocket) send(dst Addr, b *Buf, payload []byte, wire int) {
	if s.closed {
		return
	}
	pkt := s.host.net.pool.packet()
	pkt.Src = Addr{IP: s.host.ip, Port: s.port}
	pkt.Dst, pkt.Payload, pkt.Wire = dst, payload, wire
	if b != nil {
		pkt.lease = b.Retain()
	}
	s.host.SendRaw(pkt)
}

// Close releases the port.
func (s *UDPSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.host.udpPorts, s.port)
}

// UDPQueue wraps a UDP port with a FIFO so simulation processes can
// receive datagrams in blocking style.
type UDPQueue struct {
	Sock  *UDPSocket
	queue []Packet
	wq    sim.WaitQueue
	cap   int
}

// BindUDPQueue binds a port and returns a queue with the given capacity
// (datagrams beyond it are dropped, like a kernel socket buffer).
func (h *Host) BindUDPQueue(port uint16, capacity int) (*UDPQueue, error) {
	if capacity <= 0 {
		capacity = 128
	}
	q := &UDPQueue{cap: capacity}
	s, err := h.BindUDP(port, func(p Packet) {
		if len(q.queue) >= q.cap {
			return
		}
		q.queue = append(q.queue, p.Keep())
		q.wq.Signal()
	})
	if err != nil {
		return nil, err
	}
	q.Sock = s
	return q, nil
}

// Recv blocks the process until a datagram arrives. Returns ok=false if
// interrupted or the engine stops... the second return is false only on
// interruption.
func (q *UDPQueue) Recv(p *sim.Proc) (Packet, bool) {
	for len(q.queue) == 0 {
		if !q.wq.Wait(p) {
			return Packet{}, false
		}
	}
	pkt := q.queue[0]
	q.queue = q.queue[1:]
	return pkt, true
}

// RecvTimeout is Recv with a deadline; ok=false on timeout or interrupt.
func (q *UDPQueue) RecvTimeout(p *sim.Proc, d sim.Duration) (Packet, bool) {
	if len(q.queue) > 0 {
		pkt := q.queue[0]
		q.queue = q.queue[1:]
		return pkt, true
	}
	deadline := p.Now().Add(d)
	fired := false
	timer := sim.NewTimer(p.Engine(), func() { fired = true; p.Interrupt() })
	timer.Reset(d)
	defer func() {
		timer.Stop()
		if fired {
			// The interrupt was our own deadline, not an external stop
			// request: consume it so it cannot leak into later waits.
			p.ClearInterrupt()
		}
	}()
	for len(q.queue) == 0 {
		if !q.wq.Wait(p) {
			return Packet{}, false
		}
		if p.Now() >= deadline && len(q.queue) == 0 {
			return Packet{}, false
		}
	}
	pkt := q.queue[0]
	q.queue = q.queue[1:]
	return pkt, true
}
