package rendezvous

import (
	"encoding/binary"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// The paper's hole punching covers full-cone, restricted-cone and
// port-restricted-cone NATs; symmetric NATs (and symmetric/port-
// restricted pairs) defeat it. For those pairs the broker falls back to
// relaying: it allocates a channel and both hosts tunnel their frames
// through the broker's socket. This is exactly the centralized
// forwarding the paper's design avoids for the common case — the relay
// exists so that no host pair is unreachable, and the ablation
// benchmarks quantify what the direct path saves.

// RelayMagic is the first byte of relayed tunnel traffic on the broker
// socket (and of the relay envelope hosts exchange with the broker).
const RelayMagic = 0x16

// RelayHeaderLen is the relay envelope overhead: magic + channel id.
const RelayHeaderLen = 1 + 8

// relayChannel is one brokered host pair. Endpoint addresses are
// learned from traffic (a symmetric NAT maps the broker destination
// differently from any punched path, so the broker can only observe,
// never predict, them).
type relayChannel struct {
	id       uint64
	names    [2]string
	addrs    [2]netsim.Addr
	lastUsed sim.Time

	Frames, Bytes uint64
}

// newRelayChannel allocates a channel between two named hosts. Known
// session addresses seed the endpoints; unknown ones stay zero until the
// first envelope arrives.
func (s *Server) newRelayChannel(aName, bName string, aAddr, bAddr netsim.Addr) *relayChannel {
	id := s.eng.Rand().Uint64()
	for id == 0 || s.relays[id] != nil {
		id = s.eng.Rand().Uint64()
	}
	ch := &relayChannel{
		id:       id,
		names:    [2]string{aName, bName},
		addrs:    [2]netsim.Addr{aAddr, bAddr},
		lastUsed: s.eng.Now(),
	}
	s.relays[id] = ch
	s.RelayChannels++
	return ch
}

// onRelay forwards one relay envelope to the channel's other endpoint —
// the same bytes in the same leased buffer, retained by the network for
// the second flight, never copied. The source address refreshes (or
// fills in) the sender's endpoint slot, which is how NAT rebinds and
// initially-unknown mappings are absorbed.
func (s *Server) onRelay(pkt netsim.Packet) {
	if len(pkt.Payload) < RelayHeaderLen {
		return
	}
	id := binary.BigEndian.Uint64(pkt.Payload[1:])
	ch, ok := s.relays[id]
	if !ok {
		return
	}
	var from int
	switch pkt.Src {
	case ch.addrs[0]:
		from = 0
	case ch.addrs[1]:
		from = 1
	default:
		// Unknown source: claim the first empty slot. A 64-bit random
		// channel id is the (simulation-grade) admission control.
		switch {
		case ch.addrs[0].IsZero():
			from = 0
			ch.addrs[0] = pkt.Src
		case ch.addrs[1].IsZero():
			from = 1
			ch.addrs[1] = pkt.Src
		default:
			return
		}
	}
	ch.lastUsed = s.eng.Now()
	to := ch.addrs[1-from]
	if to.IsZero() {
		return // peer has not checked in yet; drop (UDP semantics)
	}
	ch.Frames++
	ch.Bytes += uint64(len(pkt.Payload))
	s.RelayFrames++
	s.RelayBytes += uint64(len(pkt.Payload))
	s.sock.SendLease(to, pkt.Lease(), pkt.Payload)
}

// expireRelays drops channels idle longer than the configured TTL.
func (s *Server) expireRelays() {
	cutoff := s.eng.Now().Add(-s.cfg.RelayIdle)
	for id, ch := range s.relays {
		if ch.lastUsed < cutoff {
			delete(s.relays, id)
		}
	}
}

// RelayChannelCount reports live relay channels (after expiry).
func (s *Server) RelayChannelCount() int {
	s.expireRelays()
	return len(s.relays)
}

// orderRelay tells both (local) hosts to tunnel through this broker.
func (s *Server) orderRelay(a, b HostRecord, id uint64, requester netsim.Addr) {
	ch := s.newRelayChannel(a.Name, b.Name, a.Mapped, b.Mapped)
	s.send(a.Mapped, &Msg{Kind: KindRelayOrder, ID: id, Peer: &b,
		RelayChan: ch.id, RelayAddr: s.Addr()})
	s.send(b.Mapped, &Msg{Kind: KindRelayOrder, Peer: &a,
		RelayChan: ch.id, RelayAddr: s.Addr()})
}
