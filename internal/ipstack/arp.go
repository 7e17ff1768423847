package ipstack

import (
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// arpCache resolves virtual IPs to MACs on the flat L2 segment, queueing
// outbound packets during resolution and retrying requests.
type arpCache struct {
	stack   *Stack
	entries map[netsim.IP]*arpEntry
	pending map[netsim.IP]*arpPending

	// Stats.
	Requests, Replies uint64
	Failures          uint64
}

type arpEntry struct {
	mac  ether.MAC
	seen sim.Time
}

type arpPending struct {
	queue []queuedIP // IPv4 packets awaiting the MAC
	tries int
	timer *sim.Timer
}

// queuedIP is one packet parked during resolution: the stack's own
// reference on its buffer, and the packet's length in it.
type queuedIP struct {
	b *netsim.Buf
	n int
}

const (
	arpRetryInterval = sim.Second
	arpMaxTries      = 3
	arpMaxQueue      = 64
)

func newARPCache(s *Stack) *arpCache {
	return &arpCache{
		stack:   s,
		entries: make(map[netsim.IP]*arpEntry),
		pending: make(map[netsim.IP]*arpPending),
	}
}

// lookup returns a fresh cache entry's MAC.
func (a *arpCache) lookup(ip netsim.IP) (ether.MAC, bool) {
	e, ok := a.entries[ip]
	if !ok {
		return ether.MAC{}, false
	}
	if a.stack.eng.Now().Sub(e.seen) > a.stack.cfg.ARPTimeout {
		delete(a.entries, ip)
		return ether.MAC{}, false
	}
	return e.mac, true
}

// sendResolved transmits the n-byte IPv4 packet at the front of b,
// resolving the MAC first if needed. It takes over the caller's
// reference: released once sent, or held while the packet is queued.
func (a *arpCache) sendResolved(dst netsim.IP, b *netsim.Buf, n int) {
	if mac, ok := a.lookup(dst); ok {
		a.stack.sendIPFrame(mac, b, n)
		b.Release()
		return
	}
	p, inFlight := a.pending[dst]
	if !inFlight {
		p = &arpPending{}
		a.pending[dst] = p
		a.request(dst, p)
	}
	if len(p.queue) < arpMaxQueue {
		p.queue = append(p.queue, queuedIP{b, n})
	} else {
		a.stack.Drops++
		b.Release()
	}
}

func (a *arpCache) request(dst netsim.IP, p *arpPending) {
	p.tries++
	a.Requests++
	req := &ether.ARP{
		Op:        ether.ARPRequest,
		SenderMAC: a.stack.mac,
		SenderIP:  a.stack.ip,
		TargetIP:  dst,
	}
	a.stack.sendFrame(&ether.Frame{Dst: ether.Broadcast, Src: a.stack.mac, Type: ether.TypeARP, Payload: req.Marshal()})
	p.timer = sim.NewTimer(a.stack.eng, func() {
		if p.tries >= arpMaxTries {
			a.Failures++
			a.stack.Drops += uint64(len(p.queue))
			for _, q := range p.queue {
				q.b.Release()
			}
			delete(a.pending, dst)
			return
		}
		a.request(dst, p)
	})
	p.timer.Reset(arpRetryInterval)
}

// onPacket handles inbound ARP traffic: answers requests for our IP and
// learns bindings from any sender (including gratuitous announcements,
// which is how migrated VMs re-point their peers).
func (a *arpCache) onPacket(f *ether.Frame) {
	pkt, err := ether.UnmarshalARP(f.Payload)
	if err != nil {
		return
	}
	// Learn/refresh the sender binding unconditionally.
	if pkt.SenderIP != 0 {
		a.learn(pkt.SenderIP, pkt.SenderMAC)
	}
	if pkt.Op == ether.ARPRequest && pkt.TargetIP == a.stack.ip && pkt.SenderIP != a.stack.ip {
		reply := &ether.ARP{
			Op:        ether.ARPReply,
			SenderMAC: a.stack.mac,
			SenderIP:  a.stack.ip,
			TargetMAC: pkt.SenderMAC,
			TargetIP:  pkt.SenderIP,
		}
		a.Replies++
		a.stack.sendFrame(&ether.Frame{Dst: pkt.SenderMAC, Src: a.stack.mac, Type: ether.TypeARP, Payload: reply.Marshal()})
	}
}

func (a *arpCache) learn(ip netsim.IP, mac ether.MAC) {
	a.entries[ip] = &arpEntry{mac: mac, seen: a.stack.eng.Now()}
	if p, ok := a.pending[ip]; ok {
		delete(a.pending, ip)
		if p.timer != nil {
			p.timer.Stop()
		}
		for _, q := range p.queue {
			a.stack.sendIPFrame(mac, q.b, q.n)
			q.b.Release()
		}
	}
}
