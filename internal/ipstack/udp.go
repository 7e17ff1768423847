package ipstack

import (
	"fmt"

	"wavnet/internal/netsim"
)

// Datagram is a received virtual-UDP datagram. The payload handed to a
// socket's handler is valid only for that call (see netsim.Buf).
type Datagram struct {
	From    netsim.Addr
	Payload []byte
}

// UDPSock is a bound virtual UDP socket; what arrives goes to its
// handler.
type UDPSock struct {
	stack   *Stack
	port    uint16
	handler func(Datagram)
	closed  bool

	// Stats.
	In, Out uint64
}

// BindUDP binds port (0 = ephemeral). handler is invoked per datagram; a
// socket bound with a nil handler only sends, and drops what arrives.
func (s *Stack) BindUDP(port uint16, handler func(Datagram)) (*UDPSock, error) {
	if port == 0 {
		p, err := s.allocPort()
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, busy := s.udpPorts[port]; busy {
		return nil, fmt.Errorf("ipstack %s: UDP port %d in use", s.name, port)
	}
	u := &UDPSock{stack: s, port: port, handler: handler}
	s.udpPorts[port] = u
	return u, nil
}

// SendTo emits a datagram. Payloads larger than MTU−28 return an error
// (no fragmentation). The payload is copied into the packet's buffer —
// the one copy this hop makes — so the caller may reuse it at once.
func (u *UDPSock) SendTo(dst netsim.Addr, payload []byte) error {
	if u.closed {
		return fmt.Errorf("ipstack: send on closed socket")
	}
	if len(payload) > u.stack.cfg.MTU-IPHeaderLen-UDPHeaderLen {
		return fmt.Errorf("ipstack: datagram of %d bytes exceeds MTU", len(payload))
	}
	u.Out++
	b, l4 := u.stack.ipBuf(UDPHeaderLen + len(payload))
	putUDP(l4, u.port, dst.Port, len(payload))
	copy(l4[UDPHeaderLen:], payload)
	u.stack.sendIP(u.stack.ip, dst.IP, ProtoUDP, b, len(l4))
	return nil
}

// Close releases the port.
func (u *UDPSock) Close() {
	if u.closed {
		return
	}
	u.closed = true
	delete(u.stack.udpPorts, u.port)
}

func (s *Stack) onUDP(h *ipv4Header, payload []byte) {
	uh, data, err := unmarshalUDP(payload)
	if err != nil {
		s.Drops++
		return
	}
	sock, ok := s.udpPorts[uh.Dst]
	if !ok {
		s.Drops++
		return
	}
	sock.In++
	if sock.handler != nil {
		sock.handler(Datagram{From: netsim.Addr{IP: h.Src, Port: uh.Src}, Payload: data})
	}
}
