package core

import (
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
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
//     established client caches re-point without waiting for re-ARP.
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
