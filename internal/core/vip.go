package core

import (
	"encoding/binary"
	"sort"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/rendezvous"
)

// Tenant service VIPs on the data plane. A VIP is an IP address with no
// NIC of its own: healthy backends accept traffic for it as a stack
// alias, and the *steering* decision — which backend a client's frames
// actually reach — is made per host, in MAC terms. Each member host of
// a network holds a VIP table mapping (VNI, VIP) to a preference-ordered
// backend list (the service controller pre-sorts it per host: declared
// order for failover-ordered services, locator distance for
// anycast-nearest, so two hosts may prefer different backends). The
// host then:
//
//   - answers ARP requests for the VIP on its local bridge with the
//     first healthy backend's MAC (a proxy-ARP responder — the request
//     never floods the WAN);
//   - injects a local gratuitous ARP whenever its choice changes, so
//     established client caches re-point without waiting for re-ARP;
//   - applies paVIPAnnounce (0x19) health updates flooded over the
//     tunnel mesh when probes withdraw or recover a backend.
//
// The synthesized ARP frames carry vipResponderMAC as their *frame*
// source: the client learns the binding from the ARP payload, while the
// bridge only ever learns the responder MAC at the tap — injecting the
// backend's own MAC there would mislearn a local backend's port.

// VIPBackend is one backend in a host's per-VIP preference list.
type VIPBackend struct {
	Name    string
	MAC     ether.MAC
	Healthy bool
}

// vipTableEntry is a host's steering state for one VIP.
type vipTableEntry struct {
	backends  []VIPBackend // preference order, most preferred first
	chosen    ether.MAC
	hasChosen bool
}

// vipResponderMAC is the frame-level source of synthesized ARP replies
// and locally injected gratuitous ARPs (0x56 0x49 0x50 = "VIP"). It is
// never the target of real traffic; each host's bridge learns it at the
// tap port, harmlessly.
var vipResponderMAC = ether.MAC{0x02, 0x57, 0x56, 0x49, 0x50, 0x01}

// SetVIPBackends installs (or replaces) the preference-ordered backend
// list for one VIP on this host. The reconciler pushes it to every
// member of the network on service create/update; the probe loop pushes
// again on health transitions. A change of the effective choice injects
// a gratuitous ARP into the local bridge segment.
func (h *Host) SetVIPBackends(vni uint32, vip netsim.IP, backends []VIPBackend) {
	vips, ok := h.vips[vni]
	if !ok {
		vips = make(map[netsim.IP]*vipTableEntry)
		h.vips[vni] = vips
	}
	e, ok := vips[vip]
	if !ok {
		e = &vipTableEntry{}
		vips[vip] = e
	}
	e.backends = append(e.backends[:0], backends...)
	h.refreshVIPChoice(vni, vip, e)
}

// ClearVIP removes a VIP from the host's steering table (service
// eviction). In-flight connections to the last chosen backend break as
// their ARP entries age out, exactly like a withdrawn service should.
func (h *Host) ClearVIP(vni uint32, vip netsim.IP) {
	if vips, ok := h.vips[vni]; ok {
		delete(vips, vip)
		if len(vips) == 0 {
			delete(h.vips, vni)
		}
	}
}

// VIPChoice reports the backend MAC this host currently steers the VIP
// to (false when the VIP is unknown here or no backend is healthy).
func (h *Host) VIPChoice(vni uint32, vip netsim.IP) (ether.MAC, bool) {
	if vips, ok := h.vips[vni]; ok {
		if e, ok := vips[vip]; ok && e.hasChosen {
			return e.chosen, true
		}
	}
	return ether.MAC{}, false
}

// applyVIPHealth updates one backend's health bit (by name) in the VIP
// table — the receive side of paVIPAnnounce and the local side of the
// probe loop. Unknown VIPs and backends are ignored: the reconciler's
// table push is authoritative for membership.
func (h *Host) applyVIPHealth(vni uint32, vip netsim.IP, backend string, healthy bool) {
	vips, ok := h.vips[vni]
	if !ok {
		return
	}
	e, ok := vips[vip]
	if !ok {
		return
	}
	changed := false
	for i := range e.backends {
		if e.backends[i].Name == backend && e.backends[i].Healthy != healthy {
			e.backends[i].Healthy = healthy
			changed = true
		}
	}
	if changed {
		h.refreshVIPChoice(vni, vip, e)
	}
}

// refreshVIPChoice recomputes the first-healthy choice and, when it
// changed to a live backend, injects a gratuitous ARP into the local
// segment so established client caches re-point immediately.
func (h *Host) refreshVIPChoice(vni uint32, vip netsim.IP, e *vipTableEntry) {
	var mac ether.MAC
	has := false
	for _, b := range e.backends {
		if b.Healthy {
			mac, has = b.MAC, true
			break
		}
	}
	if has == e.hasChosen && mac == e.chosen {
		return
	}
	e.chosen, e.hasChosen = mac, has
	if !has {
		return
	}
	seg, ok := h.segments[vni]
	if !ok {
		return
	}
	h.VIPSteers++
	arp := &ether.ARP{Op: ether.ARPRequest, SenderMAC: mac, SenderIP: vip, TargetIP: vip}
	seg.tap.Send(&ether.Frame{
		Dst: ether.Broadcast, Src: vipResponderMAC,
		Type: ether.TypeARP, Payload: arp.Marshal(),
	})
}

// handleVIPARP intercepts ARP requests for known VIPs on their way out
// of the local bridge and answers them from the steering table. A
// handled request is fully consumed (it never floods the WAN — every
// member host answers its own clients). Gratuitous ARPs (sender ==
// target) and VIPs with no healthy backend pass through untouched: the
// former must keep flooding, the latter correctly goes unanswered.
func (h *Host) handleVIPARP(seg *segment, f *ether.Frame) bool {
	if f.Type != ether.TypeARP {
		return false
	}
	vips, ok := h.vips[seg.vni]
	if !ok || len(vips) == 0 {
		return false
	}
	a, err := ether.UnmarshalARP(f.Payload)
	if err != nil || a.Op != ether.ARPRequest || a.SenderIP == a.TargetIP {
		return false
	}
	e, ok := vips[a.TargetIP]
	if !ok || !e.hasChosen {
		return false
	}
	h.VIPARPProxied++
	reply := &ether.ARP{
		Op: ether.ARPReply, SenderMAC: e.chosen, SenderIP: a.TargetIP,
		TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
	}
	seg.tap.Send(&ether.Frame{
		Dst: f.Src, Src: vipResponderMAC,
		Type: ether.TypeARP, Payload: reply.Marshal(),
	})
	return true
}

// ---- paVIPAnnounce (0x19): health transitions on the wire ----

// marshalVIPAnnounce encodes a VIP health transition:
// [0x19][flags:1][vni:4][vip:4][mac:6][nameLen:1][name], flags bit 0 =
// healthy. It is flooded over the tunnel mesh so every member host's
// steering table converges without a broker round trip.
func marshalVIPAnnounce(vni uint32, vip netsim.IP, mac ether.MAC, backend string, healthy bool) []byte {
	wire := make([]byte, 17+len(backend))
	wire[0] = paVIPAnnounce
	if healthy {
		wire[1] = 0x01
	}
	binary.BigEndian.PutUint32(wire[2:], vni)
	binary.BigEndian.PutUint32(wire[6:], uint32(vip))
	copy(wire[10:16], mac[:])
	wire[16] = byte(len(backend))
	copy(wire[17:], backend)
	return wire
}

// unmarshalVIPAnnounce decodes a 0x19 packet.
func unmarshalVIPAnnounce(b []byte) (vni uint32, vip netsim.IP, mac ether.MAC, backend string, healthy bool, ok bool) {
	if len(b) < 17 || b[0] != paVIPAnnounce {
		return 0, 0, ether.MAC{}, "", false, false
	}
	n := int(b[16])
	if len(b) < 17+n {
		return 0, 0, ether.MAC{}, "", false, false
	}
	healthy = b[1]&0x01 != 0
	vni = binary.BigEndian.Uint32(b[2:])
	vip = netsim.IP(binary.BigEndian.Uint32(b[6:]))
	copy(mac[:], b[10:16])
	return vni, vip, mac, string(b[17 : 17+n]), healthy, true
}

// AnnounceVIP floods a backend health transition to every established
// tunnel (suppressed, like data frames, toward far ends that carry
// neither the VNI nor a peered one) and applies it locally.
func (h *Host) AnnounceVIP(vni uint32, vip netsim.IP, mac ether.MAC, backend string, healthy bool) {
	wire := marshalVIPAnnounce(vni, vip, mac, backend, healthy)
	for _, t := range h.sortedTunnels() {
		if !t.established || !h.floodUseful(t, vni) {
			continue
		}
		h.VIPAnnouncesOut++
		h.tunnelSend(t, wire)
	}
	h.applyVIPHealth(vni, vip, backend, healthy)
}

// onVIPAnnounce applies a 0x19 packet received from an established peer.
func (h *Host) onVIPAnnounce(payload []byte) {
	vni, vip, _, backend, healthy, ok := unmarshalVIPAnnounce(payload)
	if !ok {
		return
	}
	h.VIPAnnouncesIn++
	h.applyVIPHealth(vni, vip, backend, healthy)
}

// ---- rendezvous-layer VIP records ----

// AnnounceVIPRecord publishes a healthy-backend record through the home
// broker (fire-and-forget, like RTT reports) and remembers it so broker
// failover and restart can re-assert it — the broker-side record is
// otherwise lost with the broker.
func (h *Host) AnnounceVIPRecord(rec rendezvous.VIPRecord) {
	if !h.joined {
		return
	}
	h.vipRecords[rec.Net+"/"+rec.Service+"/"+rec.Backend] = rec
	rendezvous.Send(h.sock, h.rdv, &rendezvous.Msg{Kind: rendezvous.KindVIPAnnounce, Name: h.name, VIP: &rec})
}

// WithdrawVIPRecord retracts a previously announced record (probe
// failure or service eviction).
func (h *Host) WithdrawVIPRecord(rec rendezvous.VIPRecord) {
	delete(h.vipRecords, rec.Net+"/"+rec.Service+"/"+rec.Backend)
	if !h.joined {
		return
	}
	rendezvous.Send(h.sock, h.rdv, &rendezvous.Msg{Kind: rendezvous.KindVIPWithdraw, Name: h.name, VIP: &rec})
}

// reannounceVIPRecords re-asserts every announced VIP record with the
// (new or restarted) home broker — called after a re-home election and
// after a re-registration, mirroring how the join re-asserts the host's
// own record.
func (h *Host) reannounceVIPRecords() {
	keys := make([]string, 0, len(h.vipRecords))
	for k := range h.vipRecords {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec := h.vipRecords[k]
		rendezvous.Send(h.sock, h.rdv, &rendezvous.Msg{Kind: rendezvous.KindVIPAnnounce, Name: h.name, VIP: &rec})
	}
}
