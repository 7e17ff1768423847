package stun

import (
	"wavnet/internal/netsim"
)

// Server is a STUN server answering binding requests from four distinct
// source addresses: {primary, alternate IP} × {primary, alternate port},
// as the classification algorithm's CHANGE-REQUEST tests require. The
// alternate IP is installed as an alias of the same host.
type Server struct {
	host    *netsim.Host
	ip, ip2 netsim.IP
	p1, p2  uint16
	socks   []*netsim.UDPSocket

	Requests uint64
}

// NewServer starts a STUN server on host, adding altIP as a host alias.
// Ports p1 (primary) and p2 (alternate) are bound for both addresses.
func NewServer(host *netsim.Host, altIP netsim.IP, p1, p2 uint16) (*Server, error) {
	s := &Server{host: host, ip: host.IP(), ip2: altIP, p1: p1, p2: p2}
	host.Network().AddAlias(host, altIP)
	for _, port := range []uint16{p1, p2} {
		port := port
		sock, err := host.BindUDP(port, func(pkt netsim.Packet) { s.serve(pkt) })
		if err != nil {
			return nil, err
		}
		s.socks = append(s.socks, sock)
	}
	return s, nil
}

// Close releases the server's ports so a restarted service can rebind
// them; the alternate-IP alias stays with the host.
func (s *Server) Close() {
	for _, sock := range s.socks {
		sock.Close()
	}
}

func (s *Server) serve(pkt netsim.Packet) {
	req, err := Unmarshal(pkt.Payload)
	if err != nil || req.Type != TypeBindingRequest {
		return
	}
	s.Requests++

	// Choose the response source per CHANGE-REQUEST.
	srcIP := pkt.Dst.IP
	srcPort := pkt.Dst.Port
	if req.Change&ChangeIP != 0 {
		srcIP = s.otherIP(srcIP)
	}
	if req.Change&ChangePort != 0 {
		srcPort = s.otherPort(srcPort)
	}

	resp := &Message{
		Type:    TypeBindingResponse,
		TxID:    req.TxID,
		Mapped:  pkt.Src,
		Source:  netsim.Addr{IP: srcIP, Port: srcPort},
		Changed: netsim.Addr{IP: s.otherIP(pkt.Dst.IP), Port: s.otherPort(pkt.Dst.Port)},
	}
	s.host.SendRaw(&netsim.Packet{
		Src:     netsim.Addr{IP: srcIP, Port: srcPort},
		Dst:     pkt.Src,
		Payload: resp.Marshal(),
	})
}

func (s *Server) otherIP(ip netsim.IP) netsim.IP {
	if ip == s.ip {
		return s.ip2
	}
	return s.ip
}

func (s *Server) otherPort(p uint16) uint16 {
	if p == s.p1 {
		return s.p2
	}
	return s.p1
}
