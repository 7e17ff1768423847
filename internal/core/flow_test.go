package core

import (
	"encoding/binary"
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// ipv4Frame builds a minimal IPv4 frame with the header fields the flow
// key parse reads (protocol, source, destination).
func ipv4Frame(src, dst ether.MAC, proto byte, srcIP, dstIP netsim.IP, size int) *ether.Frame {
	if size < 20 {
		size = 20
	}
	p := make([]byte, size)
	p[9] = proto
	binary.BigEndian.PutUint32(p[12:], uint32(srcIP))
	binary.BigEndian.PutUint32(p[16:], uint32(dstIP))
	return &ether.Frame{Dst: dst, Src: src, Type: ether.TypeIPv4, Payload: p}
}

func TestFlowKeyOf(t *testing.T) {
	var k FlowKey
	ip1, ip2 := netsim.MustParseIP("10.0.0.1"), netsim.MustParseIP("10.0.0.2")
	f := ipv4Frame(ether.SeqMAC(1), ether.SeqMAC(2), 17, ip1, ip2, 100)
	flowKeyOf(&k, 42, f)
	want := FlowKey{VNI: 42, Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2), SrcIP: ip1, DstIP: ip2, Proto: 17}
	if k != want {
		t.Fatalf("ipv4 key = %+v, want %+v", k, want)
	}

	arp := &ether.ARP{Op: ether.ARPRequest, SenderMAC: ether.SeqMAC(1), SenderIP: ip1, TargetIP: ip2}
	af := &ether.Frame{Dst: ether.Broadcast, Src: ether.SeqMAC(1), Type: ether.TypeARP, Payload: arp.Marshal()}
	flowKeyOf(&k, 7, af)
	if k.SrcIP != ip1 || k.DstIP != ip2 || k.Proto != uint16(ether.TypeARP) {
		t.Fatalf("arp key = %+v", k)
	}

	other := &ether.Frame{Dst: ether.SeqMAC(3), Src: ether.SeqMAC(4), Type: 0x88cc, Payload: []byte{1}}
	flowKeyOf(&k, 7, other)
	if k.SrcIP != 0 || k.DstIP != 0 || k.Proto != 0x88cc {
		t.Fatalf("ethertype key = %+v", k)
	}
}

func TestFlowKeyPackRoundTrip(t *testing.T) {
	in := FlowKey{
		VNI: 0xdeadbeef, Src: ether.SeqMAC(250), Dst: ether.Broadcast,
		SrcIP: netsim.MustParseIP("203.0.113.9"), DstIP: netsim.MustParseIP("198.51.100.200"),
		Proto: 0x0806,
	}
	var out FlowKey
	out.unpack(in.pack())
	if in != out {
		t.Fatalf("pack/unpack: %+v != %+v", in, out)
	}
}

func TestFlowTableAccounting(t *testing.T) {
	ft := NewFlowTable(64)
	k := FlowKey{VNI: 1, Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2), Proto: 6}
	ft.Add(&k, 10, 100)
	ft.Add(&k, 20, 50)
	ft.Drop(&k, 30, obs.FlowDropQuota)
	k2 := k
	k2.Proto = 17
	ft.Add(&k2, 15, 70)

	if ft.Active() != 2 {
		t.Fatalf("active = %d, want 2", ft.Active())
	}
	snap := ft.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	var tcp *FlowStat
	for i := range snap {
		if snap[i].Key == k {
			tcp = &snap[i]
		}
	}
	if tcp == nil {
		t.Fatal("tcp flow missing from snapshot")
	}
	if tcp.Bytes != 150 || tcp.Frames != 2 || tcp.Drops[obs.FlowDropQuota] != 1 {
		t.Fatalf("tcp stat = %+v", tcp)
	}
	if tcp.First != 10 || tcp.Last != 30 {
		t.Fatalf("tcp first/last = %v/%v", tcp.First, tcp.Last)
	}
}

func TestFlowTableSweepEvictsIdle(t *testing.T) {
	ft := NewFlowTable(64)
	k := FlowKey{VNI: 1, Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2)}
	ft.Add(&k, 0, 10)
	k2 := k
	k2.VNI = 2
	ft.Add(&k2, sim.Time(9*sim.Second), 20)

	var evicted []FlowStat
	left := ft.sweep(sim.Time(10*sim.Second), 5*sim.Second, func(st FlowStat) { evicted = append(evicted, st) })
	if left != 1 || len(evicted) != 1 {
		t.Fatalf("left=%d evicted=%d", left, len(evicted))
	}
	if evicted[0].Key != k || evicted[0].Bytes != 10 {
		t.Fatalf("evicted = %+v", evicted[0])
	}
	if ft.Evictions() != 1 {
		t.Fatalf("evictions = %d", ft.Evictions())
	}
	// The freed slot is reusable: the same key starts a fresh flow.
	ft.Add(&k, sim.Time(11*sim.Second), 5)
	if ft.Active() != 2 {
		t.Fatalf("active after reinsert = %d", ft.Active())
	}
}

func TestFlowTableOverflowShedsSamples(t *testing.T) {
	// A probe window of 16 slots in a 16-slot table saturates fast when
	// every key hashes somewhere in the single window's wraparound.
	ft := NewFlowTable(16)
	base := FlowKey{Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2)}
	for vni := uint32(0); vni < 64; vni++ {
		k := base
		k.VNI = vni
		ft.Add(&k, 0, 1)
	}
	if ft.Active() > 16 {
		t.Fatalf("active %d exceeds table size", ft.Active())
	}
	if ft.Overflows() == 0 {
		t.Fatal("expected overflow samples to be shed")
	}
}

// TestFlowTableGrowsOnDemand: a table starts small and doubles as flows
// arrive — every counter, first/last stamp and drop array carried over,
// nothing shed below the bound — and at the bound a saturated window
// sheds and counts an overflow as a fixed-size table always did.
func TestFlowTableGrowsOnDemand(t *testing.T) {
	ft := NewFlowTable(1024)
	if n := len(ft.slots); n != initialFlowSlots {
		t.Fatalf("a fresh table holds %d slots, want %d", n, initialFlowSlots)
	}
	const flows = 400
	k := FlowKey{Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2), Proto: 6}
	for round := 0; round < 3; round++ {
		for v := uint32(0); v < flows; v++ {
			k.VNI = v
			size := len(ft.slots)
			ft.Add(&k, sim.Time(v)+sim.Time(round), uint64(v)+1)
			if v%7 == 0 {
				ft.Drop(&k, sim.Time(v)+sim.Time(round), obs.FlowDropQuota)
			}
			if len(ft.slots) == size {
				continue
			}
			// First is written once, with the identity, and must travel
			// with it through every doubling.
			for _, st := range ft.Snapshot() {
				if st.First != sim.Time(st.Key.VNI) {
					t.Fatalf("flow %d read with first-seen %v after growing to %d slots", st.Key.VNI, st.First, len(ft.slots))
				}
			}
		}
	}
	if n := len(ft.slots); n != 1024 {
		t.Fatalf("%d flows left the table at %d slots, want 1024 (load <= 1/2)", flows, n)
	}
	if ft.Overflows() != 0 || ft.Active() != flows {
		t.Fatalf("overflows %d, active %d below the bound; want 0 and %d", ft.Overflows(), ft.Active(), flows)
	}
	snap := ft.Snapshot()
	if len(snap) != flows {
		t.Fatalf("snapshot holds %d flows, want %d", len(snap), flows)
	}
	for _, st := range snap {
		v := uint64(st.Key.VNI)
		wantDrops := uint64(0)
		if v%7 == 0 {
			wantDrops = 3
		}
		if st.Bytes != 3*(v+1) || st.Frames != 3 || st.Drops[obs.FlowDropQuota] != wantDrops ||
			st.First != sim.Time(v) || st.Last != sim.Time(v)+2 {
			t.Fatalf("flow %d after growth: %+v", v, st)
		}
	}
	// Past the bound nothing grows: windows fill and samples are shed.
	for v := uint32(flows); v < 4096; v++ {
		k.VNI = v
		ft.Add(&k, 0, 1)
	}
	if n := len(ft.slots); n != 1024 {
		t.Fatalf("table grew past its bound to %d slots", n)
	}
	if ft.Overflows() == 0 || ft.Active() > 1024 {
		t.Fatalf("overflows %d, active %d at the bound", ft.Overflows(), ft.Active())
	}
}

// TestHostFlowAccounting runs two hosts over a punched tunnel and
// checks both ends account the ping's ICMP flow, that a flow log wired
// through the Config receives eviction records, and that Leave drains
// live flows into it.
func TestHostFlowAccounting(t *testing.T) {
	log := obs.NewFlowLog(0)
	w := buildWorld(t, 11, []nat.Type{nat.FullCone, nat.FullCone},
		[]sim.Duration{15 * time.Millisecond, 22 * time.Millisecond})
	for _, h := range w.hosts {
		h.cfg.FlowLog = log
	}
	w.joinAll(t)
	a, b := w.hosts[0], w.hosts[1]
	dom0 := a.CreateDom0(netsim.MustParseIP("10.9.0.1"))
	b.CreateDom0(netsim.MustParseIP("10.9.0.2"))
	var err error
	w.eng.Spawn("ping", func(p *sim.Proc) {
		if _, err = a.ConnectTo(p, hostName(1)); err != nil {
			return
		}
		_, err = dom0.Ping(p, netsim.MustParseIP("10.9.0.2"), 56, 10*time.Second)
	})
	w.eng.RunFor(20 * time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	sawICMP := func(h *Host) bool {
		for _, st := range h.Flows().Snapshot() {
			if st.Key.Proto == 1 && st.Frames > 0 && st.Bytes > 0 {
				return true
			}
		}
		return false
	}
	if !sawICMP(a) || !sawICMP(b) {
		t.Fatalf("ICMP flow missing: sender=%v receiver=%v", sawICMP(a), sawICMP(b))
	}
	// Leave drains every live flow as a closed record onto the log.
	a.Leave()
	if log.Len() == 0 {
		t.Fatal("flow log empty after Leave drain")
	}
	found := false
	for _, r := range log.Records() {
		if r.Host == a.Name() && r.Proto == 1 && r.Frames > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ICMP record from %s in flow log: %v", a.Name(), log.Records())
	}
	if a.Flows().Active() != 0 {
		t.Fatalf("flows still active after drain: %d", a.Flows().Active())
	}
}

func TestAccountWireDropBatchAndRelay(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	site := nw.NewSite("s")
	phys := nw.NewPublicHost("p", site, netsim.MustParseIP("9.0.0.1"), 0, 0)
	h, err := NewHost(phys, "h", Config{})
	if err != nil {
		t.Fatal(err)
	}

	ip1, ip2 := netsim.MustParseIP("10.0.0.1"), netsim.MustParseIP("10.0.0.2")
	f := ipv4Frame(ether.SeqMAC(1), ether.SeqMAC(2), 17, ip1, ip2, 60)
	const vni = 9

	// Batched payload with two frames, behind a relay envelope.
	buf := make([]byte, rendezvous.RelayHeaderLen+batchHeaderLen, 512)
	buf[0] = rendezvous.RelayMagic
	buf[rendezvous.RelayHeaderLen] = paFrameBatch
	buf = appendBatchFrame(buf, vni, f)
	buf = appendBatchFrame(buf, vni, f)
	h.AccountWireDrop(buf, obs.FlowDropPartition)

	// Single-frame payload, no envelope.
	single := AppendVNIFrame(nil, vni, f)
	h.AccountWireDrop(single, obs.FlowDropWANLoss)

	// Non-frame traffic must be ignored.
	h.AccountWireDrop([]byte{paPulse, 0}, obs.FlowDropWANLoss)

	snap := h.Flows().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d: %+v", len(snap), snap)
	}
	st := snap[0]
	if st.Drops[obs.FlowDropPartition] != 2 || st.Drops[obs.FlowDropWANLoss] != 1 {
		t.Fatalf("drops = %+v", st.Drops)
	}
	if st.Frames != 0 {
		t.Fatalf("wire drops must not count as forwarded frames: %+v", st)
	}
}

func BenchmarkFlowTableAdd(b *testing.B) {
	ft := NewFlowTable(1024)
	k := FlowKey{VNI: 42, Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2), Proto: 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Add(&k, sim.Time(i), 1400)
	}
}
