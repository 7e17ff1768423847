package scenario

import (
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// rawLink is the "native network" NIC: it relays Ethernet frames between
// two machines over plain UDP with no overlay processing at all,
// representing applications running directly on the physical hosts. The
// peer's NAT mapping is discovered with STUN and opened by simultaneous
// hellos, after which frames flow with only UDP/IP overhead.
type rawLink struct {
	sock     *netsim.UDPSocket
	mapped   netsim.Addr
	peer     netsim.Addr
	recv     func(*ether.Frame)
	stunWait func(*stun.Message)
	up       bool
}

const (
	rawHello = 0x31
	rawFrame = 0x32
)

func newRawLink(phys *netsim.Host, port uint16) (*rawLink, error) {
	l := &rawLink{}
	sock, err := phys.BindUDP(port, l.onPacket)
	if err != nil {
		return nil, err
	}
	l.sock = sock
	return l, nil
}

func (l *rawLink) onPacket(pkt netsim.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	switch pkt.Payload[0] {
	case 0x00, 0x01:
		if m, err := stun.Unmarshal(pkt.Payload); err == nil &&
			m.Type == stun.TypeBindingResponse && l.stunWait != nil {
			l.stunWait(m)
		}
	case rawHello:
		l.up = true
		l.peer = pkt.Src
	case rawFrame:
		if f, err := ether.UnmarshalFrame(pkt.Payload[1:]); err == nil && l.recv != nil {
			l.recv(f)
		}
	}
}

// punch learns our mapping via STUN, waits for the peer's mapping to be
// published (the shared *peerOut), and exchanges hellos until both
// directions are open.
func (l *rawLink) punch(p *sim.Proc, stunServer netsim.Addr, peerMapped *netsim.Addr) bool {
	// Binding request from this socket.
	got := false
	l.stunWait = func(m *stun.Message) {
		l.mapped = m.Mapped
		got = true
		p.Unpark()
	}
	req := &stun.Message{Type: stun.TypeBindingRequest}
	req.TxID[0] = 0x77
	for try := 0; try < 3 && !got; try++ {
		l.sock.SendTo(stunServer, req.Marshal())
		p.WaitUntil(p.Now().Add(500*sim.Millisecond), func() bool { return got })
	}
	l.stunWait = nil
	if l.mapped.IsZero() {
		return false
	}
	// Publish and wait for the peer's mapping.
	*peerMapped = l.mapped
	for l.peer.IsZero() && !l.up {
		if !p.Sleep(50 * sim.Millisecond) {
			return false
		}
	}
	// Simultaneous hello exchange.
	for try := 0; try < 40 && !l.up; try++ {
		l.sock.SendTo(l.peer, []byte{rawHello})
		p.Sleep(100 * sim.Millisecond)
	}
	if l.up {
		// A couple of extra hellos so the peer's side also opens, then a
		// keepalive ticker so the NAT mappings outlive idle periods.
		l.sock.SendTo(l.peer, []byte{rawHello})
		sim.NewTicker(p.Engine(), 10*sim.Second, func() {
			l.sock.SendTo(l.peer, []byte{rawHello})
		})
	}
	return l.up
}

// Send implements ether.NIC.
func (l *rawLink) Send(f *ether.Frame) {
	if l.peer.IsZero() {
		return
	}
	wire := make([]byte, 1+f.WireLen())
	wire[0] = rawFrame
	copy(wire[1:], f.Marshal())
	l.sock.SendTo(l.peer, wire)
}

// SetRecv implements ether.NIC.
func (l *rawLink) SetRecv(fn func(*ether.Frame)) { l.recv = fn }
