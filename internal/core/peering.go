package core

import (
	"encoding/binary"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
)

// VPC peering: a policy-checked inter-VNI gateway on the WAV-Switch
// path. A frame arriving tagged with a VNI this host has no segment for
// is normally another tenant's traffic and dies at the isolation check;
// when a peering rule links that VNI to a local segment AND the frame's
// destination address (IPv4 header or ARP target) falls inside the
// rule's allowed prefixes, the gateway re-injects the frame into the
// peered segment instead. Because the check runs on the receiver, two
// networks exchange traffic exactly when BOTH ends carry the policy —
// a host that was never told about the peering still drops everything.
//
// VNI announcements ride the same tunnels: each host tells its peers
// which segments it carries (on tunnel establishment, on every segment
// change, and refreshed with every CONNECT_PULSE), which lets the
// sender suppress tagged floods toward tunnels that could only drop
// them (the ROADMAP's "smarter flooding").

// AllowPeering installs the directed gateway rule permitting frames
// tagged fromVNI to be re-injected into the local segment of intoVNI
// when their destination falls inside one of the prefixes (empty =
// every destination).
func (h *Host) AllowPeering(fromVNI, intoVNI uint32, prefixes []ether.Prefix) {
	h.peering.Allow(fromVNI, intoVNI, prefixes)
}

// RevokePeering removes the directed gateway rule.
func (h *Host) RevokePeering(fromVNI, intoVNI uint32) {
	h.peering.Revoke(fromVNI, intoVNI)
}

// DropPeeringsOf removes every gateway rule touching vni in either
// direction (membership teardown).
func (h *Host) DropPeeringsOf(vni uint32) { h.peering.DropVNI(vni) }

// SetFloodAll disables (true) or re-enables (false) VNI-aware flood
// suppression. With suppression off the host floods tagged frames to
// every established tunnel, as the data plane did before announcements
// existed; foreign receivers then drop them at the isolation check.
func (h *Host) SetFloodAll(v bool) { h.floodAll = v }

// gatewayInject is the receive-side inter-VNI gateway: called for a
// frame tagged with a VNI this host has no segment for. It returns true
// when the frame was consumed by peering (re-injected or counted as a
// policy drop); false sends the caller to the plain isolation drop.
func (h *Host) gatewayInject(t *Tunnel, vni uint32, f *ether.Frame) bool {
	routes := h.peering.Routes(vni)
	if len(routes) == 0 {
		return false
	}
	dst, hasDst := frameDstIP(f)
	consumed := false
	for _, into := range routes {
		seg, ok := h.segments[into]
		if !ok {
			continue
		}
		consumed = true
		if !hasDst || !h.peering.Allows(vni, into, dst) {
			h.PeerPolicyDrops++
			continue
		}
		// Teach both tables where the sender lives: under its own VNI
		// (more gateway traffic from it) and under the local segment's
		// (so replies unicast straight back over this tunnel).
		h.wswitch.Learn(vni, f.Src, t)
		h.wswitch.Learn(into, f.Src, t)
		h.PeeredForwards++
		h.inject(seg, f)
	}
	return consumed
}

// frameDstIP extracts the destination the peering policy is checked
// against: the IPv4 header's destination address, or an ARP packet's
// target address (so address resolution crosses the gateway under the
// same policy as the traffic it enables).
func frameDstIP(f *ether.Frame) (netsim.IP, bool) {
	switch f.Type {
	case ether.TypeIPv4:
		if len(f.Payload) < 20 {
			return 0, false
		}
		return netsim.IP(binary.BigEndian.Uint32(f.Payload[16:20])), true
	case ether.TypeARP:
		a, err := ether.UnmarshalARP(f.Payload)
		if err != nil {
			return 0, false
		}
		return a.TargetIP, true
	default:
		return 0, false
	}
}

// floodUseful reports whether sending a frame tagged vni over t can
// possibly be delivered: the far end carries the VNI, carries a VNI
// peered with it (its gateway may re-inject), or has not announced its
// segment set yet (flood conservatively).
func (h *Host) floodUseful(t *Tunnel, vni uint32) bool {
	if vni == 0 || h.floodAll || !t.vniKnown {
		return true
	}
	if t.remoteVNIs[vni] {
		return true
	}
	for _, peer := range h.peering.PeersOf(vni) {
		if t.remoteVNIs[peer] {
			return true
		}
	}
	return false
}

// ---- VNI membership announcements ----

// vniSetPacket encodes the host's current segment set.
func (h *Host) vniSetPacket() []byte {
	vnis := h.VNIs()
	return appendVNISet(make([]byte, 0, 3+4*len(vnis)), vnis)
}

// appendVNISet appends the announcement [paVNISet][n:2][vni:4]*n of
// vnis to b.
func appendVNISet(b []byte, vnis []uint32) []byte {
	b = binary.BigEndian.AppendUint16(append(b, paVNISet), uint16(len(vnis)))
	for _, vni := range vnis {
		b = binary.BigEndian.AppendUint32(b, vni)
	}
	return b
}

// parseVNISet appends an announcement's VNIs to dst in wire order. It
// refuses a payload that is not a VNI-set announcement or is shorter
// than its count says; bytes past the last VNI are not read.
func parseVNISet(dst []uint32, b []byte) ([]uint32, bool) {
	if len(b) < 3 || b[0] != paVNISet {
		return dst, false
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	if len(b) < 3+4*n {
		return dst, false
	}
	for i := 0; i < n; i++ {
		dst = append(dst, binary.BigEndian.Uint32(b[3+4*i:]))
	}
	return dst, true
}

// vniRefreshPulses is how many keepalive pulses may pass before a
// tunnel re-sends an unchanged VNI announcement (loss recovery without
// doubling every keepalive).
const vniRefreshPulses = 12

// announceVNIs pushes the current segment set to every established
// tunnel (called whenever a segment is added or dropped).
func (h *Host) announceVNIs() {
	h.vniGen++
	pkt := h.vniSetPacket()
	for _, t := range h.sortedTunnels() {
		if t.established {
			h.tunnelSend(t, pkt)
			t.announcedGen = h.vniGen
			t.sinceAnnounce = 0
		}
	}
}

// maybeAnnounceVNIs re-announces on one tunnel only when the segment
// set changed since the last announcement there, or as a slow periodic
// refresh; rides the keepalive tick.
func (h *Host) maybeAnnounceVNIs(t *Tunnel) {
	t.sinceAnnounce++
	if t.announcedGen == h.vniGen && t.sinceAnnounce < vniRefreshPulses {
		return
	}
	h.tunnelSend(t, h.vniSetPacket())
	t.announcedGen = h.vniGen
	t.sinceAnnounce = 0
}

// onVNISet records the far end's announced segment set.
func (h *Host) onVNISet(t *Tunnel, payload []byte) {
	var buf [8]uint32
	vnis, ok := parseVNISet(buf[:0], payload)
	if !ok {
		return
	}
	t.lastHeard = h.eng.Now()
	set := make(map[uint32]bool, len(vnis))
	for _, vni := range vnis {
		set[vni] = true
	}
	t.remoteVNIs = set
	t.vniKnown = true
}

// ---- counter export ----

// ScrapeInto copies the host's multi-tenant data-plane counters into r
// under l: isolation drops, gateway decisions, quota drops, re-homing,
// VIP steering, batching, flow-table totals, and the per-VNI flood /
// suppression breakdown for networks with activity (in map order: the
// series are counters, and every render sorts).
func (h *Host) ScrapeInto(r *obs.Registry, l obs.Labels) {
	add := func(name string, v uint64) { r.Counter(name, l).Add(v) }
	add("cross_vni_drops", h.CrossVNIDrops)
	add("peered_forwards", h.PeeredForwards)
	add("peer_policy_drops", h.PeerPolicyDrops)
	add("quota_drops", h.QuotaDrops)
	add("flooded_frames", h.FloodedFrames)
	add("suppressed_floods", h.SuppressedFloods)
	add("rehomes", h.Rehomes)
	add("rehome_failures", h.RehomeFailures)
	add("reregisters", h.Reregisters)
	add("vip_arp_proxied", h.VIPARPProxied)
	add("vip_steers", h.VIPSteers)
	add("batch_flushes", h.BatchFlushes)
	add("batch_cap_flushes", h.BatchCapFlushes)
	add("batched_frames", h.BatchedFrames)
	add("flows_active", uint64(h.flows.Active()))
	add("flow_evictions", h.flows.Evictions())
	add("flow_overflows", h.flows.Overflows())
	for reason, n := range h.flows.DropTotals() {
		add(flowDropSeries[reason], n)
	}
	for _, st := range h.vniStats {
		if st.flood > 0 || st.suppress > 0 {
			add(st.floodName, st.flood)
			add(st.suppressName, st.suppress)
		}
	}
}

// flowDropSeries names the per-reason drop counters ScrapeInto exports.
var flowDropSeries = obs.FlowDropNames("flow_drops.")
