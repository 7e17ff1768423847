package core

import (
	"encoding/binary"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// Flow accounting on the hot path.
//
// The table is one cache-friendly slot array indexed by a mixed hash of
// the packed flow key, probed linearly over a bounded window. It starts
// small and doubles as flows arrive, up to Config.FlowSlots; between
// doublings nothing allocates, so the encap/decap/drop sites update it
// inline without disturbing the ALLOC_BUDGET gate. Like everything in a
// world it is touched by one goroutine at a time (see sim.Engine):
// slots are plain fields, and a scrape walks them in place.
//
// Eviction is swept off the fast path on a self-arming sim-time timer:
// flows idle past Config.FlowIdle are emitted to the configured
// obs.FlowLog as closed flow-log records and their slots freed. A full
// probe window in a table already at its bound counts an overflow and
// drops the sample rather than evicting inline.

// FlowKey identifies one flow: (VNI, src/dst MAC, src/dst IP, proto).
type FlowKey struct {
	VNI          uint32
	Src, Dst     ether.MAC
	SrcIP, DstIP netsim.IP
	// Proto is the IPv4 protocol number for IP frames and the EtherType
	// otherwise (disjoint ranges; see obs.FlowRecord.Proto).
	Proto uint16
}

// flowKeyOf fills k from one tagged frame, mirroring frameDstIP's
// parse: IPv4 frames key on (src IP, dst IP, protocol), ARP frames on
// their sender/target addresses, anything else on the EtherType alone.
func flowKeyOf(k *FlowKey, vni uint32, f *ether.Frame) {
	k.VNI = vni
	k.Src = f.Src
	k.Dst = f.Dst
	k.SrcIP, k.DstIP = 0, 0
	k.Proto = uint16(f.Type)
	switch f.Type {
	case ether.TypeIPv4:
		if len(f.Payload) >= 20 {
			k.SrcIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[12:16]))
			k.DstIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[16:20]))
			k.Proto = uint16(f.Payload[9])
		}
	case ether.TypeARP:
		// Inline sender/target extraction (ether.UnmarshalARP allocates
		// its result; the hot path cannot): offsets per ether.ARP.Marshal.
		if len(f.Payload) >= 28 {
			k.SrcIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[14:18]))
			k.DstIP = netsim.IP(binary.BigEndian.Uint32(f.Payload[24:28]))
		}
	}
}

// macBits packs a MAC into the low 48 bits of a word.
func macBits(m ether.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

func macOf(w uint64) ether.MAC {
	return ether.MAC{byte(w >> 40), byte(w >> 32), byte(w >> 24),
		byte(w >> 16), byte(w >> 8), byte(w)}
}

// pack folds the key into four words, the slot's stored identity.
func (k *FlowKey) pack() (k0, k1, k2, k3 uint64) {
	return uint64(k.VNI)<<32 | uint64(k.Proto),
		macBits(k.Src), macBits(k.Dst),
		uint64(k.SrcIP)<<32 | uint64(k.DstIP)
}

func (k *FlowKey) unpack(k0, k1, k2, k3 uint64) {
	k.VNI = uint32(k0 >> 32)
	k.Proto = uint16(k0)
	k.Src = macOf(k1)
	k.Dst = macOf(k2)
	k.SrcIP = netsim.IP(k3 >> 32)
	k.DstIP = netsim.IP(k3)
}

// mix64 is the 64-bit finalizer from MurmurHash3: full avalanche over
// the packed key words without touching memory.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// flowSlot is one table entry; its key words and counters mean
// something only while live is set.
type flowSlot struct {
	live           bool
	k0, k1, k2, k3 uint64

	bytes, frames uint64
	drops         [obs.FlowDropReasons]uint64
	first, last   sim.Time
}

// FlowStat is one flow's accounted state, copied out of the table.
type FlowStat struct {
	Key           FlowKey
	Bytes, Frames uint64
	Drops         [obs.FlowDropReasons]uint64
	First, Last   sim.Time
}

// DropTotal sums the stat's drops across reasons.
func (st *FlowStat) DropTotal() uint64 {
	var n uint64
	for _, d := range st.Drops {
		n += d
	}
	return n
}

// Record converts the stat to its flow-log record shape.
func (st *FlowStat) Record(host string) obs.FlowRecord {
	return obs.FlowRecord{
		Host: host,
		VNI:  st.Key.VNI, Src: st.Key.Src, Dst: st.Key.Dst,
		SrcIP: st.Key.SrcIP, DstIP: st.Key.DstIP, Proto: st.Key.Proto,
		Bytes: st.Bytes, Frames: st.Frames, Drops: st.Drops,
		First: st.First, Last: st.Last,
	}
}

const (
	defaultFlowSlots = 1024
	// initialFlowSlots is the size a table starts at (when its bound
	// allows): most hosts carry a handful of flows.
	initialFlowSlots = 64
	// flowProbeLimit bounds the linear probe: a lookup touches at most
	// this many slots before declaring overflow.
	flowProbeLimit = 16
)

// FlowTable is the flow accounting table of one host.
type FlowTable struct {
	slots []flowSlot // a power of two long; grow replaces it
	max   int        // bound on len(slots)

	active    int
	overflows uint64
	evictions uint64

	// dropTotals aggregates drops by reason across every flow, including
	// shed and evicted ones, so scrapers and alert rules read one counter
	// per reason instead of summing a snapshot.
	dropTotals [obs.FlowDropReasons]uint64
}

// NewFlowTable returns a table that grows on demand up to the given
// slot count (rounded up to a power of two; <=0 uses the default).
func NewFlowTable(slots int) *FlowTable {
	if slots <= 0 {
		slots = defaultFlowSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &FlowTable{max: n, slots: make([]flowSlot, min(n, initialFlowSlots))}
}

// probe walks the window of key (k0..k3) in slots and returns the live
// slot holding the key, if any, and the window's first free slot, if
// any.
func probe(slots []flowSlot, k0, k1, k2, k3 uint64) (hit, free *flowSlot) {
	idx := mix64(k0 ^ mix64(k1^mix64(k2^mix64(k3))))
	mask := uint64(len(slots) - 1)
	for i := uint64(0); i < flowProbeLimit; i++ {
		s := &slots[(idx+i)&mask]
		if !s.live {
			if free == nil {
				free = s
			}
			continue
		}
		if s.k0 == k0 && s.k1 == k1 && s.k2 == k2 && s.k3 == k3 {
			return s, free
		}
	}
	return nil, free
}

// grow replaces slots with an array twice the size holding every live
// flow, counters and all. It reports false when the table is at its
// bound. The one place the table allocates.
func (ft *FlowTable) grow() bool {
	for n := 2 * len(ft.slots); n <= ft.max; n *= 2 {
		if next := rehash(ft.slots, n); next != nil {
			ft.slots = next
			return true
		}
	}
	return false
}

// rehash copies the live slots of old into a fresh array of n slots,
// each to the first free slot of its probe window; nil if some window
// is full even so.
func rehash(old []flowSlot, n int) []flowSlot {
	next := make([]flowSlot, n)
	for i := range old {
		src := &old[i]
		if !src.live {
			continue
		}
		_, dst := probe(next, src.k0, src.k1, src.k2, src.k3)
		if dst == nil {
			return nil
		}
		*dst = *src
	}
	return next
}

// find returns the live slot for k, inserting into a free slot within
// the probe window when absent — after doubling the table if the
// window is saturated or the new flow would take the load past 1/2.
// nil means the window is saturated in a table at its bound (counted
// as an overflow; the sample is shed, never the latency).
func (ft *FlowTable) find(k *FlowKey, now sim.Time) *flowSlot {
	k0, k1, k2, k3 := k.pack()
	var hit, free *flowSlot
	for {
		if hit, free = probe(ft.slots, k0, k1, k2, k3); hit != nil {
			return hit
		}
		roomy := free != nil && 2*(ft.active+1) <= len(ft.slots)
		if roomy || !ft.grow() {
			break
		}
	}
	if free == nil {
		ft.overflows++
		return nil
	}
	*free = flowSlot{live: true, k0: k0, k1: k1, k2: k2, k3: k3, first: now, last: now}
	ft.active++
	return free
}

// Add accounts one frame of the flow.
func (ft *FlowTable) Add(k *FlowKey, now sim.Time, bytes uint64) {
	s := ft.find(k, now)
	if s == nil {
		return
	}
	s.bytes += bytes
	s.frames++
	s.last = now
}

// Drop accounts one dropped frame of the flow by reason.
func (ft *FlowTable) Drop(k *FlowKey, now sim.Time, reason obs.FlowDropReason) {
	ft.dropTotals[reason]++
	s := ft.find(k, now)
	if s == nil {
		return
	}
	s.drops[reason]++
	s.last = now
}

// sweep evicts flows whose last activity is at least idle old, calling
// emit with each evicted flow's final state, and reports how many stay
// live. It runs off the fast path.
func (ft *FlowTable) sweep(now sim.Time, idle sim.Duration, emit func(FlowStat)) int {
	for i := range ft.slots {
		s := &ft.slots[i]
		if !s.live || now.Sub(s.last) < idle {
			continue
		}
		s.live = false
		ft.active--
		ft.evictions++
		emit(s.stat())
	}
	return ft.active
}

// stat copies the slot out.
func (s *flowSlot) stat() FlowStat {
	st := FlowStat{Bytes: s.bytes, Frames: s.frames, Drops: s.drops, First: s.first, Last: s.last}
	st.Key.unpack(s.k0, s.k1, s.k2, s.k3)
	return st
}

// Snapshot copies the live flows out of the table.
func (ft *FlowTable) Snapshot() []FlowStat {
	out := make([]FlowStat, 0, ft.active)
	ft.Each(func(st FlowStat) { out = append(out, st) })
	return out
}

// Each calls f with every live flow, walking the table in place.
func (ft *FlowTable) Each(f func(FlowStat)) {
	for i := range ft.slots {
		if s := &ft.slots[i]; s.live {
			f(s.stat())
		}
	}
}

// Active reports the live flow count.
func (ft *FlowTable) Active() int { return ft.active }

// Overflows reports samples shed because the probe window was full.
func (ft *FlowTable) Overflows() uint64 { return ft.overflows }

// Evictions reports flows swept out of the table.
func (ft *FlowTable) Evictions() uint64 { return ft.evictions }

// DropTotals reports the table-wide drop counts by reason (survives
// eviction and overflow shedding, unlike per-flow snapshots).
func (ft *FlowTable) DropTotals() [obs.FlowDropReasons]uint64 { return ft.dropTotals }

// ---- host integration ----

// Flows exposes the host's flow accounting table.
func (h *Host) Flows() *FlowTable { return h.flows }

// flowTx accounts one outbound frame offered to the WAV-Switch (once
// per frame, not per flood fan-out) and returns the filled scratch key
// so the caller's drop sites can charge the same flow without
// re-extracting. The returned key is valid until the next flow* call.
func (h *Host) flowTx(vni uint32, f *ether.Frame, wireLen int) *FlowKey {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Add(k, h.eng.Now(), uint64(wireLen))
	h.flowTouched()
	return k
}

// flowRx accounts one decapsulated inbound frame.
func (h *Host) flowRx(vni uint32, f *ether.Frame, wireLen int) {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Add(k, h.eng.Now(), uint64(wireLen))
	h.flowTouched()
}

// flowDrop charges one dropped frame against its flow by reason.
func (h *Host) flowDrop(vni uint32, f *ether.Frame, reason obs.FlowDropReason) {
	k := &h.flowScratch
	flowKeyOf(k, vni, f)
	h.flows.Drop(k, h.eng.Now(), reason)
	h.flowTouched()
}

// flowTouched arms the idle-eviction sweep: one outstanding timer while
// any flow is live, re-armed by the sweep itself and disarmed when the
// table drains, so idle hosts schedule nothing.
func (h *Host) flowTouched() {
	if h.flowSweepOn {
		return
	}
	h.flowSweepOn = true
	h.eng.Schedule(h.cfg.FlowSweepPeriod, h.flowSweepFn)
}

// flowSweep evicts idle flows off the fast path, emitting each as a
// closed flow-log record.
func (h *Host) flowSweep() {
	if h.flows.sweep(h.eng.Now(), h.cfg.FlowIdle, h.emitFlow) > 0 {
		h.eng.Schedule(h.cfg.FlowSweepPeriod, h.flowSweepFn)
		return
	}
	h.flowSweepOn = false
}

// emitFlow appends one evicted flow to the configured flow log
// (Append is nil-safe, so unconfigured hosts just drop the record).
func (h *Host) emitFlow(st FlowStat) {
	h.cfg.FlowLog.Append(st.Record(h.name))
}

// DrainFlows force-evicts every live flow into the flow log (teardown
// and experiment-end flushing; Leave calls it).
func (h *Host) DrainFlows() {
	h.flows.sweep(h.eng.Now(), 0, h.emitFlow)
}

// AccountWireDrop attributes one wire-level packet loss back to the
// flow(s) it carried. The substrate's drop hook hands the host the
// packet payload it originated (payload is only valid for the call)
// and a reason; the host unwraps a relay envelope if present and walks
// the encapsulated frame image — single, or every entry of a batch —
// charging each frame's flow. Non-frame traffic (control, pulses,
// punches) is ignored.
func (h *Host) AccountWireDrop(payload []byte, reason obs.FlowDropReason) {
	if len(payload) == 0 {
		return
	}
	if payload[0] == rendezvous.RelayMagic {
		if len(payload) <= rendezvous.RelayHeaderLen {
			return
		}
		payload = payload[rendezvous.RelayHeaderLen:]
	}
	switch payload[0] {
	case paFrame, paFrameVNI:
		h.accountFrameDrop(payload, reason)
	case paFrameBatch:
		off := batchHeaderLen
		for off+batchLenBytes <= len(payload) {
			n := int(payload[off])<<8 | int(payload[off+1])
			off += batchLenBytes
			if n == 0 || off+n > len(payload) {
				return
			}
			h.accountFrameDrop(payload[off:off+n], reason)
			off += n
		}
	}
}

// accountFrameDrop decodes one encapsulated frame image into the reused
// scratch frame and charges its flow.
func (h *Host) accountFrameDrop(image []byte, reason obs.FlowDropReason) {
	vni, err := UnmarshalVNIFrameInto(&h.dropScratch, image)
	if err != nil {
		return
	}
	h.flowDrop(vni, &h.dropScratch, reason)
}
