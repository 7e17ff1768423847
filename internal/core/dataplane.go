package core

import (
	"encoding/binary"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// onPacket demultiplexes everything arriving on the WAVNet socket. It
// first resolves the tunnel: a relay envelope names it by channel (and
// is dropped when the channel is unknown), any other packet by its
// source address. One switch on the first byte of what remains then
// picks the Packet Assembler type, or — for a direct packet only —
// rendezvous control (rendezvous.Magic), STUN (0x00/0x01) or a punch.
func (h *Host) onPacket(pkt netsim.Packet) {
	b := pkt.Payload
	ch, inner, relayed := rendezvous.OpenRelay(b)
	var t *Tunnel
	if relayed {
		if t = h.byChan[ch]; t == nil {
			return
		}
		b = inner
	} else {
		t = h.byAddr[pkt.Src]
	}
	if len(b) == 0 {
		return
	}
	switch b[0] {
	case rendezvous.Magic:
		if !relayed {
			h.onControl(pkt.Src, b)
		}
	case 0x00, 0x01:
		if !relayed && h.stunWait != nil {
			if m, err := stun.Unmarshal(b); err == nil && m.Type == stun.TypeBindingResponse {
				h.stunWait(m)
			}
		}
	case paPunch, paPunchAck:
		if !relayed {
			h.onPunch(pkt)
		}
	case paPulse:
		if t != nil {
			t.PulsesIn++
			t.lastHeard = h.eng.Now()
		}
	case paFrame, paFrameVNI, paFrameBatch:
		if t != nil {
			h.onTunnelFrames(t, b, pkt.Lease())
		}
	case paEcho:
		if relayed {
			h.bounceEcho(t, pkt.Src, b)
		} else {
			h.bounceEcho(nil, pkt.Src, b)
		}
	case paEchoResp:
		h.onEchoResp(b)
	case paVNISet:
		if t != nil {
			h.onVNISet(t, b)
		}
	}
}

// Everything a host sends over a tunnel leaves in a leased buffer with
// rendezvous.RelayHeaderLen spare bytes in front of it: a direct tunnel
// sends the bytes as they are, a brokered one fills the relay envelope
// into the spare bytes in place (the broker forwards by retaining the
// lease), and the buffer goes back to the world's pool after the last
// receiver's handler returns.
const wireHeadroom = rendezvous.RelayHeaderLen

// tunnelSend transmits one Packet Assembler packet over a tunnel. b is
// copied, so the caller may reuse it.
func (h *Host) tunnelSend(t *Tunnel, b []byte) {
	buf := h.pool.Get(wireHeadroom + len(b))
	copy(buf.Data[wireHeadroom:], b)
	h.sendWire(t, buf, wireHeadroom, len(b))
	buf.Release()
}

// sendWire sends the n bytes at buf.Data[off:] over t, off leaving at
// least wireHeadroom in front of them for the relay envelope.
func (h *Host) sendWire(t *Tunnel, buf *netsim.Buf, off, n int) {
	if t.Relayed {
		off -= wireHeadroom
		n += wireHeadroom
		buf.Data[off] = rendezvous.RelayMagic
		binary.BigEndian.PutUint64(buf.Data[off+1:], t.relayChan)
	}
	h.sock.SendLease(t.Remote, buf, buf.Data[off:off+n])
}

// bounceEcho answers a paEcho: the payload is copied into a leased
// buffer with only the type byte flipped, and goes back over the
// tunnel it came in on (or straight to src when it came in on none).
func (h *Host) bounceEcho(t *Tunnel, src netsim.Addr, payload []byte) {
	buf := h.pool.Get(wireHeadroom + len(payload))
	resp := buf.Data[wireHeadroom : wireHeadroom+len(payload)]
	copy(resp, payload)
	resp[0] = paEchoResp
	if t == nil {
		h.sock.SendLease(src, buf, resp)
	} else {
		h.sendWire(t, buf, wireHeadroom, len(resp))
	}
	buf.Release()
}

// pulsePacket is the 2-byte CONNECT_PULSE.
var pulsePacket = []byte{paPulse, 0x00}

// startRelay establishes a brokered tunnel from a relay-order: no
// punching is needed, but an immediate pulse registers our (possibly
// symmetric-NAT) mapping at the relay so the peer's traffic can flow.
func (h *Host) startRelay(rec rendezvous.HostRecord, ch uint64, relay netsim.Addr) {
	t, ok := h.tunnels[rec.Name]
	if ok && t.established && !t.Relayed {
		return // direct path already up; keep it
	}
	if !ok {
		t = &Tunnel{host: h, Peer: rec.Name}
		h.tunnels[rec.Name] = t
	}
	t.Relayed = true
	t.Remote = relay
	t.relayChan = ch
	h.byChan[ch] = t
	t.PulsesOut++
	h.tunnelSend(t, pulsePacket)
	h.establish(t)
}

// onControl handles broker messages: RPC replies and unsolicited punch
// or relay orders. Anything arriving from the home broker's address
// refreshes its liveness clock (home-broker silence drives re-homing).
// The header says which it is before anything is decoded: an
// unsolicited kind is decoded into the host's reused message and
// handled before the next one overwrites it, a reply is decoded afresh
// — its waiter keeps it — and only when a waiter is still there.
func (h *Host) onControl(src netsim.Addr, b []byte) {
	kind, id, ok := rendezvous.Peek(b)
	if !ok {
		return
	}
	if src == h.rdv {
		h.brokerSeen = h.eng.Now()
	}
	switch kind {
	case rendezvous.KindPulseAck, rendezvous.KindPunchOrder, rendezvous.KindRelayOrder:
		m, err := h.ctl.Decode(b)
		if err != nil {
			return
		}
		switch {
		case kind == rendezvous.KindPulseAck:
			// The keepalive round trip. A broker that restarted answers with
			// an unknown-session code: our registration is gone and must be
			// re-asserted or lookups and connects toward us start failing.
			if src == h.rdv && m.Code == rendezvous.CodeUnknownSession {
				h.reregister()
			}
		case kind == rendezvous.KindPunchOrder && m.Peer != nil:
			// A punch-order may double as the reply to our connect RPC; the
			// connect waiter resolves on tunnel establishment instead.
			h.startPunch(*m.Peer)
		case kind == rendezvous.KindRelayOrder && m.Peer != nil && m.RelayChan != 0:
			h.startRelay(*m.Peer, m.RelayChan, m.RelayAddr)
		}
		if h.pool.Poisoned() {
			h.ctl.Poison()
		}
	default:
		if w, ok := h.waiters[id]; ok {
			if m, err := rendezvous.Decode(b); err == nil {
				delete(h.waiters, id)
				w(m)
			}
		}
	}
}

// ---- hole punching ----

// startPunch begins the probe exchange toward a peer's external mapping.
// Both sides do this at roughly the same time (the rendezvous servers
// order both), which opens the NAT mappings along both directions.
func (h *Host) startPunch(rec rendezvous.HostRecord) {
	t, ok := h.tunnels[rec.Name]
	if ok && t.established {
		return
	}
	if !ok {
		t = &Tunnel{host: h, Peer: rec.Name, Remote: rec.Mapped}
		h.tunnels[rec.Name] = t
		h.byAddr[rec.Mapped] = t
	}
	probe := h.punchPacket(paPunch)
	tries := 0
	var tick func()
	tick = func() {
		if t.established || tries >= punchTries {
			return
		}
		tries++
		h.PunchesSent++
		h.sock.SendTo(t.Remote, probe)
		h.eng.Schedule(punchInterval, tick)
	}
	tick()
}

// punchPacket is [type][nameLen][name]: the receiver needs to know who is
// knocking.
func (h *Host) punchPacket(typ byte) []byte {
	b := make([]byte, 2+len(h.name))
	b[0] = typ
	b[1] = byte(len(h.name))
	copy(b[2:], h.name)
	return b
}

func (h *Host) onPunch(pkt netsim.Packet) {
	if len(pkt.Payload) < 2 {
		return
	}
	n := int(pkt.Payload[1])
	if len(pkt.Payload) < 2+n {
		return
	}
	peer := string(pkt.Payload[2 : 2+n])
	h.PunchesRecv++
	t, ok := h.tunnels[peer]
	if !ok {
		// Punch from a peer we have no record for yet (their order
		// arrived before ours): adopt the observed address.
		t = &Tunnel{host: h, Peer: peer, Remote: pkt.Src}
		h.tunnels[peer] = t
		h.byAddr[pkt.Src] = t
	}
	// Adopt the observed source (authoritative over the record).
	if t.Remote != pkt.Src {
		delete(h.byAddr, t.Remote)
		t.Remote = pkt.Src
		h.byAddr[pkt.Src] = t
	}
	if pkt.Payload[0] == paPunch {
		h.sock.SendTo(pkt.Src, h.punchPacket(paPunchAck))
	}
	h.establish(t)
}

// establish marks a tunnel live and starts its CONNECT_PULSE keepalive.
func (h *Host) establish(t *Tunnel) {
	t.lastHeard = h.eng.Now()
	if t.established {
		return
	}
	t.established = true
	t.pulser = sim.NewTicker(h.eng, h.cfg.PulsePeriod, func() { h.pulse(t) })
	// Tell the far end which virtual networks we carry, so its flooding
	// can skip this tunnel for tags we would only drop.
	h.tunnelSend(t, h.vniSetPacket())
	t.announcedGen = h.vniGen
	t.sinceAnnounce = 0
	// Wake connect waiters (in registration order, deterministically).
	if ws := h.connWaiters[t.Peer]; len(ws) > 0 {
		delete(h.connWaiters, t.Peer)
		for _, w := range ws {
			w.fn()
		}
	}
}

// pulse sends the 2-byte CONNECT_PULSE and applies dead-peer detection.
func (h *Host) pulse(t *Tunnel) {
	if h.eng.Now().Sub(t.lastHeard) > h.cfg.TunnelTimeout {
		h.dropTunnel(t)
		return
	}
	t.PulsesOut++
	h.tunnelSend(t, pulsePacket)
	// Ride the keepalive tick to recover lost VNI announcements: resent
	// immediately when the segment set changed, else only every
	// vniRefreshPulses (the keepalive itself stays 2 bytes).
	h.maybeAnnounceVNIs(t)
}

// ---- tunnel RTT probes ----

// TunnelRTT measures the round-trip time over an established tunnel.
func (h *Host) TunnelRTT(p *sim.Proc, peer string) (sim.Duration, error) {
	t, ok := h.tunnels[peer]
	if !ok || !t.established {
		return 0, ErrNoSuchTunnel
	}
	h.nextEcho++
	id := h.nextEcho
	b := make([]byte, 17)
	b[0] = paEcho
	binary.BigEndian.PutUint64(b[1:], id)
	binary.BigEndian.PutUint64(b[9:], uint64(h.eng.Now()))
	var rtt sim.Duration
	done := false
	h.echoWaiters[id] = func(d sim.Duration) {
		rtt = d
		done = true
		p.Unpark()
	}
	h.tunnelSend(t, b)
	ok = p.WaitUntil(h.eng.Now().Add(rpcTimeout), func() bool { return done })
	delete(h.echoWaiters, id)
	if !ok {
		return 0, ErrInterrupted
	}
	if rtt == 0 {
		return 0, ErrTimeout
	}
	return rtt, nil
}

func (h *Host) onEchoResp(payload []byte) {
	if len(payload) < 17 {
		return
	}
	id := binary.BigEndian.Uint64(payload[1:])
	sent := sim.Time(binary.BigEndian.Uint64(payload[9:]))
	if w, ok := h.echoWaiters[id]; ok {
		delete(h.echoWaiters, id)
		w(h.eng.Now().Sub(sent))
	}
}

// ---- data path: Packet Assembler + WAV-Switch ----

// onTapFrame captures a frame leaving one segment's local bridge and
// switches it onto tunnels: known unicast goes to the one tunnel its
// VNI-scoped table names, everything else floods all established
// tunnels (the WAV-Switch behaves like an Ethernet switch whose ports
// are wide-area connections). The frame is tagged with the segment's
// VNI on the wire; receivers without a segment for that VNI drop it,
// which keeps flooded broadcast and ARP inside the tenant.
func (h *Host) onTapFrame(seg *segment, f *ether.Frame) {
	// Proxy-ARP for service VIPs: a request for a VIP this host steers
	// is answered locally and never floods the WAN (vip.go).
	if h.handleVIPARP(seg, f) {
		return
	}
	if f.WireLen() > h.SegmentMTU(seg.vni)+ether.HeaderLen {
		return // oversized for the tunnel
	}
	// The Packet Assembler's processing time (packetCost), then the
	// switch.
	f.Retain()
	h.pa.Post((*tapOut)(seg), f)
}

// tapOut and tapIn are segment as the receiver of the Packet
// Assembler's two processing delays: a frame on its way out to the
// tunnels, and a decapsulated one on its way in to the bridge. Each
// holds a reference on the frame for the wait.
type (
	tapOut segment
	tapIn  segment
)

func (s *tapOut) HandleEvent(arg any) {
	f := arg.(*ether.Frame)
	s.host.switchFrame((*segment)(s), f)
	f.Release()
}

func (s *tapIn) HandleEvent(arg any) {
	f := arg.(*ether.Frame)
	s.tap.Send(f)
	f.Release()
}

// inject hands a decapsulated frame to the segment's bridge after the
// Packet Assembler's processing time.
func (h *Host) inject(seg *segment, f *ether.Frame) {
	f.Retain()
	h.pa.Post((*tapIn)(seg), f)
}

// switchFrame encapsulates one outbound frame and forwards it: known
// unicast to the one tunnel the VNI-scoped table names, everything else
// flooded in deterministic order. Frames are not sent individually:
// each admitted frame is encoded straight into its destination tunnel's
// egress batch (batch.go), which goes out as one aggregated packet —
// with in-place relay headroom per destination, so even a flood
// crossing several relayed tunnels on different channels never copies.
func (h *Host) switchFrame(seg *segment, f *ether.Frame) {
	wireLen := VNIEncapLen(seg.vni) + f.WireLen()
	// Flow accounting: one tx sample per frame offered to the switch
	// (not per flood fan-out); the extracted key stays valid for the
	// quota-drop charges below because send runs inline.
	fk := h.flowTx(seg.vni, f, wireLen)
	send := func(t *Tunnel) {
		// Per-tenant metering: a tenant over its quota drops here, at
		// the sender, per frame and before enqueue — batching never
		// changes which frames the bucket admits.
		if !h.quotaAdmit(t, seg.vni, wireLen) {
			h.flows.Drop(fk, h.eng.Now(), obs.FlowDropQuota)
			return
		}
		t.FramesOut++
		t.BytesOut += uint64(wireLen)
		h.FramesSent++
		h.enqueueFrame(t, seg.vni, f)
	}
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		if t, ok := h.wswitch.Lookup(seg.vni, f.Dst); ok && t.established {
			send(t)
			return
		}
	}
	h.FloodedFrames++
	seg.stat.flood++
	for _, t := range h.sortedTunnels() {
		if !t.established {
			continue
		}
		// Smarter flooding: skip tunnels whose far end announced it
		// has no segment (and no peering route) for this tag — the
		// frame could only die at their isolation check.
		if !h.floodUseful(t, seg.vni) {
			h.SuppressedFloods++
			seg.stat.suppress++
			continue
		}
		send(t)
	}
}

// sortedTunnels returns tunnels in deterministic order for flooding.
// The returned slice is a reused scratch: it is only valid until the
// next call, which every caller satisfies by iterating immediately
// (sends schedule events rather than re-entering the switch).
func (h *Host) sortedTunnels() []*Tunnel {
	out := h.floodScratch[:0]
	for _, t := range h.tunnels {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Peer < out[j-1].Peer; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	h.floodScratch = out
	return out
}

// onTunnelFrame decapsulates a frame image arriving over a tunnel
// ([paFrame][frame bytes] or [paFrameVNI][vni][frame bytes]), applies
// the tenant isolation check, teaches the VNI's WAV-Switch table where
// the source MAC lives, and injects the frame into the matching
// segment's bridge through its tap. lease backs payload (nil when the
// sender's bytes were caller-owned): the decapsulated frame is a view
// on it — struct and payload both — that whoever keeps it past this
// call retains.
func (h *Host) onTunnelFrame(t *Tunnel, payload []byte, lease *netsim.Buf) {
	f := ether.NewFrame(lease)
	vni, err := UnmarshalVNIFrameInto(f, payload)
	if err != nil {
		return
	}
	t.FramesIn++
	t.BytesIn += uint64(len(payload))
	h.FramesRecv++
	seg, ok := h.segments[vni]
	if !ok {
		// No segment for the tag: either a peered network's traffic —
		// the inter-VNI gateway re-injects it when policy allows — or
		// another tenant's, which is never learned and never injected.
		if h.gatewayInject(t, vni, f) {
			return
		}
		h.CrossVNIDrops++
		h.flowDrop(vni, f, obs.FlowDropCrossVNI)
		return
	}
	h.flowRx(vni, f, len(payload))
	h.wswitch.Learn(vni, f.Src, t)
	h.inject(seg, f)
}
