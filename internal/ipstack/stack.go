package ipstack

import (
	"errors"
	"fmt"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// recvBuf / sendBuf are the per-connection TCP buffer sizes: 1 MiB
// exceeds the bandwidth-delay product of the paper's longest path
// (≈ 271 ms × 27 Mbit/s ≈ 915 KiB).
const recvBuf, sendBuf = 1 << 20, 1 << 20

// arpTimeout ages resolution cache entries.
const arpTimeout = 60 * sim.Second

// Config tunes a stack instance.
type Config struct {
	// MTU is the link MTU in bytes; TCP MSS is MTU−40. WAVNet's virtual
	// interfaces default to 1456 (1500 minus tunnel overhead).
	MTU int
	// Pool is the world's buffer pool (netsim.Network.Pool) the stack
	// leases its packet buffers from; nil gives the stack one of its own.
	Pool *netsim.Pool
}

func (c Config) withDefaults() Config {
	if c.MTU <= 0 {
		c.MTU = 1456
	}
	if c.Pool == nil {
		c.Pool = netsim.NewPool()
	}
	return c
}

// Stack is one virtual host's protocol stack, bound to a NIC on the
// virtual LAN (a bridge port, pipe end, or WAVNet tap).
type Stack struct {
	eng  *sim.Engine
	name string
	nic  ether.NIC
	mac  ether.MAC
	ip   netsim.IP
	cfg  Config

	arp *arpCache

	// aliases are additional addresses this stack accepts traffic for —
	// service VIPs a backend answers on. Aliases never answer ARP (the
	// host's VIP table steers resolution) and never become the default
	// source address; connections accepted on an alias reply from it.
	aliases map[netsim.IP]bool

	udpPorts  map[uint16]*UDPSock
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16
	icmpSeq   uint16
	pingWait  map[uint32]*pingWaiter

	// Stats.
	FramesIn, FramesOut uint64
	IPIn, IPOut         uint64
	Drops               uint64
}

// New creates a stack with the given MAC and virtual IP, attached to nic.
func New(eng *sim.Engine, name string, nic ether.NIC, mac ether.MAC, ip netsim.IP, cfg Config) *Stack {
	s := &Stack{
		eng:       eng,
		name:      name,
		mac:       mac,
		ip:        ip,
		cfg:       cfg.withDefaults(),
		aliases:   make(map[netsim.IP]bool),
		udpPorts:  make(map[uint16]*UDPSock),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		pingWait:  make(map[uint32]*pingWaiter),
		nextPort:  32768,
	}
	s.arp = newARPCache(s)
	s.SetNIC(nic)
	return s
}

// IP returns the stack's virtual address.
func (s *Stack) IP() netsim.IP { return s.ip }

// SetIP reassigns the stack's virtual address. A stack may start at
// 0.0.0.0 (unconfigured) and adopt an address later — the DHCP client
// path. Existing TCP connections keep their original addresses and will
// break, exactly as on a real host.
func (s *Stack) SetIP(ip netsim.IP) { s.ip = ip }

// MAC returns the stack's hardware address.
func (s *Stack) MAC() ether.MAC { return s.mac }

// AddAlias makes the stack accept traffic addressed to ip alongside its
// primary address — a service VIP the host backs. The stack never ARPs
// as the alias on its own; steering is the VIP table's job.
func (s *Stack) AddAlias(ip netsim.IP) { s.aliases[ip] = true }

// RemoveAlias stops accepting traffic for ip. Established connections
// keyed on the alias break, exactly like a withdrawn VIP should.
func (s *Stack) RemoveAlias(ip netsim.IP) { delete(s.aliases, ip) }

// Engine returns the simulation engine.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// SetNIC rebinds the stack to a different NIC (nil detaches it; frames
// are then dropped in both directions — the VM-paused state).
func (s *Stack) SetNIC(nic ether.NIC) {
	s.nic = nic
	if nic != nil {
		nic.SetRecv(s.onFrame)
	}
}

// NIC returns the current attachment.
func (s *Stack) NIC() ether.NIC { return s.nic }

// AnnounceGratuitousARP broadcasts this stack's MAC/IP binding — the
// post-migration announcement.
func (s *Stack) AnnounceGratuitousARP() {
	s.sendFrame(ether.GratuitousARP(s.mac, s.ip))
}

// AnnounceGratuitousARPFor broadcasts a MAC/IP binding for an alias —
// the VIP announcement a backend floods when it takes over a service
// address, re-pointing ARP caches and WAV-Switch tables fabric-wide.
func (s *Stack) AnnounceGratuitousARPFor(ip netsim.IP) {
	s.sendFrame(ether.GratuitousARP(s.mac, ip))
}

func (s *Stack) sendFrame(f *ether.Frame) {
	if s.nic == nil {
		s.Drops++
		return
	}
	s.FramesOut++
	s.nic.Send(f)
}

func (s *Stack) onFrame(f *ether.Frame) {
	if s.nic == nil {
		return
	}
	if f.Dst != s.mac && !f.Dst.IsBroadcast() {
		return // not for us (flooded frame)
	}
	s.FramesIn++
	switch f.Type {
	case ether.TypeARP:
		s.arp.onPacket(f)
	case ether.TypeIPv4:
		s.onIPv4(f)
	}
}

func (s *Stack) onIPv4(f *ether.Frame) {
	hdr, payload, err := unmarshalIPv4(f.Payload)
	if err != nil {
		s.Drops++
		return
	}
	h := &hdr
	if h.Dst == netsim.BroadcastIP {
		// Limited broadcast reaches every stack on the segment, including
		// unconfigured ones (the DHCP client case). Only UDP listens on
		// broadcast; echoing ICMP to broadcast would invite storms.
		s.IPIn++
		if h.Proto == ProtoUDP {
			s.onUDP(h, payload)
		}
		return
	}
	if h.Dst != s.ip && !s.aliases[h.Dst] {
		s.Drops++
		return
	}
	s.IPIn++
	switch h.Proto {
	case ProtoICMP:
		s.onICMP(h, payload)
	case ProtoUDP:
		s.onUDP(h, payload)
	case ProtoTCP:
		s.onTCP(h, payload, f.Lease())
	default:
		s.Drops++
	}
}

// ipBuf leases a buffer for an IPv4 packet carrying n bytes of L4
// header and payload, and returns it with the L4 region for the caller
// to fill; the IPv4 header's room is in front of it. The buffer is
// dirty: every byte of the region must be written.
func (s *Stack) ipBuf(n int) (*netsim.Buf, []byte) {
	if n+IPHeaderLen > s.cfg.MTU {
		panic(fmt.Sprintf("ipstack %s: packet exceeds MTU: %d", s.name, n+IPHeaderLen))
	}
	b := s.cfg.Pool.Get(IPHeaderLen + n)
	return b, b.Data[IPHeaderLen : IPHeaderLen+n]
}

// sendIP writes the IPv4 header in front of the n L4 bytes already in b
// (from ipBuf), resolves the destination and emits the packet, taking
// over the caller's reference. Packets are queued while ARP resolution
// is in flight; broadcast skips ARP entirely. The source address is
// explicit: traffic owed to an alias (a VIP-addressed connection or
// echo) must reply from the alias, or the far end's demux would never
// match it.
func (s *Stack) sendIP(src, dst netsim.IP, proto uint8, b *netsim.Buf, n int) {
	putIPv4(b.Data, &ipv4Header{TotalLen: IPHeaderLen + n, TTL: defaultTTL, Proto: proto, Src: src, Dst: dst})
	s.IPOut++
	if dst == netsim.BroadcastIP {
		s.sendIPFrame(ether.Broadcast, b, IPHeaderLen+n)
		b.Release()
		return
	}
	s.arp.sendResolved(dst, b, IPHeaderLen+n)
}

// sendIPFrame emits the n-byte IPv4 packet at the front of b as one
// frame; the frame struct rides on the lease too.
func (s *Stack) sendIPFrame(dst ether.MAC, b *netsim.Buf, n int) {
	f := ether.NewFrame(b)
	f.Dst, f.Src, f.Type, f.Payload = dst, s.mac, ether.TypeIPv4, b.Data[:n]
	s.sendFrame(f)
}

// ---- ICMP ----

type pingWaiter struct {
	proc *sim.Proc
	sent sim.Time
	rtt  sim.Duration
	ok   bool
}

func (s *Stack) onICMP(h *ipv4Header, payload []byte) {
	m, err := unmarshalICMP(payload)
	if err != nil {
		s.Drops++
		return
	}
	switch m.Type {
	case ICMPEchoRequest:
		// Reply from the address the request was sent to — the primary or
		// an alias — so pinging a VIP looks like pinging a real host.
		b, l4 := s.ipBuf(ICMPHeaderLen + len(m.Data))
		putICMP(l4, ICMPEchoReply, m.ID, m.Seq)
		copy(l4[ICMPHeaderLen:], m.Data)
		s.sendIP(h.Dst, h.Src, ProtoICMP, b, len(l4))
	case ICMPEchoReply:
		key := uint32(m.ID)<<16 | uint32(m.Seq)
		if w, ok := s.pingWait[key]; ok {
			delete(s.pingWait, key)
			w.rtt = s.eng.Now().Sub(w.sent)
			w.ok = true
			w.proc.Unpark()
		}
	}
}

// ErrTimeout is returned by blocking operations that exceed their
// deadline.
var ErrTimeout = errors.New("ipstack: timeout")

// ErrInterrupted is returned by blocking operations cut short by
// Proc.Interrupt — a stop request, not a protocol timeout.
var ErrInterrupted = errors.New("ipstack: interrupted")

// Ping sends an ICMP echo request with payloadLen data bytes and blocks
// the process until the reply or the timeout.
func (s *Stack) Ping(p *sim.Proc, dst netsim.IP, payloadLen int, timeout sim.Duration) (sim.Duration, error) {
	s.icmpSeq++
	seq := s.icmpSeq
	id := uint16(1)
	key := uint32(id)<<16 | uint32(seq)
	w := &pingWaiter{proc: p, sent: s.eng.Now()}
	s.pingWait[key] = w
	if payloadLen < 0 {
		payloadLen = 56
	}
	b, l4 := s.ipBuf(ICMPHeaderLen + payloadLen)
	putICMP(l4, ICMPEchoRequest, id, seq)
	clear(l4[ICMPHeaderLen:])
	s.sendIP(s.ip, dst, ProtoICMP, b, len(l4))
	ok := p.WaitUntil(s.eng.Now().Add(timeout), func() bool { return w.ok })
	delete(s.pingWait, key)
	if !ok {
		// Interrupted (service Stop, engine teardown): a stop request,
		// not a timeout.
		return 0, ErrInterrupted
	}
	if !w.ok {
		return 0, ErrTimeout
	}
	return w.rtt, nil
}

func (s *Stack) allocPort() (uint16, error) {
	for i := 0; i < 32768; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		if p == 0 {
			continue
		}
		if _, udpBusy := s.udpPorts[p]; udpBusy {
			continue
		}
		if _, lnBusy := s.listeners[p]; lnBusy {
			continue
		}
		return p, nil
	}
	return 0, errors.New("ipstack: out of ephemeral ports")
}

// Conns returns the stack's active TCP connections (diagnostics).
func (s *Stack) Conns() []*Conn {
	out := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	return out
}
