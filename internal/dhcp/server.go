package dhcp

import (
	"errors"
	"fmt"
	"sort"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// ServerConfig tunes a DHCP server.
type ServerConfig struct {
	// PoolStart/PoolEnd bound the assignable range (inclusive).
	PoolStart, PoolEnd netsim.IP
	// Lease is the granted lease duration (default 10 minutes).
	Lease sim.Duration
	// SubnetMask and Router are handed to clients (both optional).
	SubnetMask, Router netsim.IP
}

// offerHold reserves an offered address against other clients until the
// offer is taken or abandoned.
const offerHold = 10 * sim.Second

func (c ServerConfig) withDefaults() (ServerConfig, error) {
	if c.PoolStart == 0 || c.PoolEnd == 0 || c.PoolEnd < c.PoolStart {
		return c, errors.New("dhcp: invalid address pool")
	}
	if c.Lease <= 0 {
		c.Lease = 10 * sim.Minute
	}
	return c, nil
}

// Lease is one granted address binding.
type Lease struct {
	IP      netsim.IP
	MAC     ether.MAC
	Expires sim.Time
}

// Server leases addresses from a pool to clients on the same virtual L2
// segment. It binds UDP port 67 on the given stack.
type Server struct {
	stack *ipstack.Stack
	eng   *sim.Engine
	cfg   ServerConfig
	sock  *ipstack.UDPSock

	byIP  map[netsim.IP]*Lease
	byMAC map[ether.MAC]*Lease
	// offers holds short-lived reservations keyed by MAC.
	offers map[ether.MAC]*Lease
	// reserved holds addresses pinned outside DHCP (VM specs): never
	// offered or acked, however requested.
	reserved map[netsim.IP]bool

	// Stats.
	Discovers, Offers, Requests, Acks, Naks, Releases uint64
}

// NewServer starts a DHCP server on stack, leasing from cfg's pool. The
// stack must already have a (static) address: it is the server identifier.
func NewServer(stack *ipstack.Stack, cfg ServerConfig) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if stack.IP() == 0 {
		return nil, errors.New("dhcp: server stack needs a static address")
	}
	s := &Server{
		stack:    stack,
		eng:      stack.Engine(),
		cfg:      cfg,
		byIP:     make(map[netsim.IP]*Lease),
		byMAC:    make(map[ether.MAC]*Lease),
		offers:   make(map[ether.MAC]*Lease),
		reserved: make(map[netsim.IP]bool),
	}
	sock, err := stack.BindUDP(ServerPort, s.onDatagram)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	return s, nil
}

// Close releases the server port.
func (s *Server) Close() { s.sock.Close() }

// Reserve pins an address against leasing: it is never offered or
// acked until Unreserve. Addresses assigned outside DHCP (a tenant
// spec's VM IPs) use this so the pool cannot hand them to a client.
func (s *Server) Reserve(ip netsim.IP) { s.reserved[ip] = true }

// Unreserve lifts a reservation.
func (s *Server) Unreserve(ip netsim.IP) { delete(s.reserved, ip) }

// Leases returns the live leases sorted by IP (expired ones are pruned).
func (s *Server) Leases() []Lease {
	s.expire()
	out := make([]Lease, 0, len(s.byIP))
	for _, l := range s.byIP {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}

func (s *Server) expire() {
	now := s.eng.Now()
	for ip, l := range s.byIP {
		if l.Expires <= now {
			delete(s.byIP, ip)
			delete(s.byMAC, l.MAC)
		}
	}
	for mac, l := range s.offers {
		if l.Expires <= now {
			delete(s.offers, mac)
		}
	}
}

func (s *Server) onDatagram(d ipstack.Datagram) {
	m, err := Unmarshal(d.Payload)
	if err != nil || m.Op != opRequest {
		return
	}
	switch m.Type {
	case Discover:
		s.onDiscover(m)
	case Request:
		s.onRequest(m)
	case Release:
		s.onRelease(m)
	case Decline:
		s.onDecline(m)
	}
}

// pick chooses an address for mac: an existing lease or offer first (so
// rediscovery is stable), then the lowest free pool address.
func (s *Server) pick(mac ether.MAC, requested netsim.IP) (netsim.IP, error) {
	s.expire()
	if l, ok := s.byMAC[mac]; ok {
		return l.IP, nil
	}
	if l, ok := s.offers[mac]; ok {
		return l.IP, nil
	}
	free := func(ip netsim.IP) bool {
		if ip < s.cfg.PoolStart || ip > s.cfg.PoolEnd {
			return false
		}
		if s.reserved[ip] {
			return false
		}
		_, leased := s.byIP[ip]
		if leased {
			return false
		}
		for _, o := range s.offers {
			if o.IP == ip {
				return false
			}
		}
		return true
	}
	if requested != 0 && free(requested) {
		return requested, nil
	}
	for ip := s.cfg.PoolStart; ip <= s.cfg.PoolEnd; ip++ {
		if free(ip) {
			return ip, nil
		}
	}
	return 0, errors.New("dhcp: address pool exhausted")
}

func (s *Server) onDiscover(m *Message) {
	s.Discovers++
	ip, err := s.pick(m.CHAddr, m.RequestedIP)
	if err != nil {
		return // RFC 2131: a server with nothing to offer stays silent
	}
	s.offers[m.CHAddr] = &Lease{IP: ip, MAC: m.CHAddr, Expires: s.eng.Now().Add(offerHold)}
	s.Offers++
	s.reply(m, Offer, ip)
}

func (s *Server) onRequest(m *Message) {
	s.Requests++
	s.expire()
	// SELECTING state names a server; if it is not us the client took a
	// competing offer — forget ours.
	if m.ServerID != 0 && m.ServerID != s.stack.IP() {
		delete(s.offers, m.CHAddr)
		return
	}
	want := m.RequestedIP
	if want == 0 {
		want = m.CIAddr // RENEWING/REBINDING carry the address in ciaddr
	}
	if want == 0 {
		s.nak(m)
		return
	}
	// The address must be ours to give and either free or already bound
	// to this client.
	if want < s.cfg.PoolStart || want > s.cfg.PoolEnd || s.reserved[want] {
		s.nak(m)
		return
	}
	if cur, leased := s.byIP[want]; leased && cur.MAC != m.CHAddr {
		s.nak(m)
		return
	}
	if o, ok := s.offers[m.CHAddr]; ok && o.IP != want {
		s.nak(m)
		return
	}
	delete(s.offers, m.CHAddr)
	l := &Lease{IP: want, MAC: m.CHAddr, Expires: s.eng.Now().Add(s.cfg.Lease)}
	s.byIP[want] = l
	s.byMAC[m.CHAddr] = l
	s.Acks++
	s.reply(m, Ack, want)
}

func (s *Server) onRelease(m *Message) {
	s.Releases++
	if l, ok := s.byMAC[m.CHAddr]; ok && (m.CIAddr == 0 || m.CIAddr == l.IP) {
		delete(s.byIP, l.IP)
		delete(s.byMAC, m.CHAddr)
	}
}

// onDecline (client found the address in use, e.g. via ARP) blacklists
// nothing in this simulation but drops the binding so another address is
// offered next time.
func (s *Server) onDecline(m *Message) {
	if l, ok := s.byMAC[m.CHAddr]; ok {
		delete(s.byIP, l.IP)
		delete(s.byMAC, m.CHAddr)
	}
	delete(s.offers, m.CHAddr)
}

func (s *Server) nak(m *Message) {
	s.Naks++
	s.reply(m, Nak, 0)
}

func (s *Server) reply(req *Message, t MsgType, yiaddr netsim.IP) {
	resp := &Message{
		Op:       opReply,
		XID:      req.XID,
		Flags:    req.Flags,
		YIAddr:   yiaddr,
		CHAddr:   req.CHAddr,
		Type:     t,
		ServerID: s.stack.IP(),
	}
	if t == Ack || t == Offer {
		resp.LeaseSecs = uint32(s.cfg.Lease / sim.Second)
		resp.SubnetMask = s.cfg.SubnetMask
		resp.Router = s.cfg.Router
	}
	// Clients that set the broadcast flag (ours always do) cannot receive
	// unicast yet; renewing clients can.
	dst := netsim.Addr{IP: netsim.BroadcastIP, Port: ClientPort}
	if req.Flags&broadcastFlag == 0 && req.CIAddr != 0 {
		dst.IP = req.CIAddr
	}
	if err := s.sock.SendTo(dst, resp.Marshal()); err != nil {
		// Reply exceeding the MTU would be a codec bug, surface loudly.
		panic(fmt.Sprintf("dhcp: reply send: %v", err))
	}
}
