package core

import (
	"encoding/binary"
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/nat"
)

// The benchmarks below are the alloc-budget gate (ALLOC_BUDGET, CI job
// alloc-budget: go test ./internal/core -bench='Forward|Encap'
// -benchmem). Each one injects frames into a vif on one real Host and
// counts them at a vif on another, across a real netsim.Network with
// NAT gateways in between — bridge, tap, switchFrame, enqueueFrame,
// flush, LAN, NAT, WAN, NAT, LAN, onPacket, decap, bridge — so what
// they report is what the path costs, not what a codec loop next to it
// does. One op is one injection at one virtual instant, run until it
// is delivered.

// benchPath is a two-host world with an established tunnel and a vif on
// each host's segment of one VNI.
type benchPath struct {
	w      *world
	tx, rx ether.NIC
	got    int
}

var (
	benchMACa = ether.SeqMAC(0xa0)
	benchMACb = ether.SeqMAC(0xb0)
)

func newBenchPath(b testing.TB, vni uint32, types []nat.Type) *benchPath {
	b.Helper()
	w, _ := batchPair(b, 1, types)
	w.nw.Pool().SetPoison(false) // recycling is what is measured
	p := &benchPath{w: w}
	var err error
	for i, h := range w.hosts[:2] {
		h.JoinVNI(vni)
		nic, e := h.AttachVIFOn(vni, "bench")
		if err = e; err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p.tx = nic
		} else {
			p.rx = nic
		}
	}
	p.tx.SetRecv(func(*ether.Frame) {})
	p.rx.SetRecv(func(f *ether.Frame) {
		if f.Dst == benchMACb {
			p.got++
		}
	})
	// One frame each way teaches bridges and switches both addresses.
	p.rx.Send(benchFrame(benchMACa, benchMACb, 64))
	w.eng.RunFor(time.Second)
	p.tx.Send(benchFrame(benchMACb, benchMACa, 64))
	w.eng.RunFor(time.Second)
	if p.got != 1 {
		b.Fatal("learning frame not delivered")
	}
	return p
}

// benchFrame is an IPv4/UDP frame with real header fields, so the flow
// key parse does its full work.
func benchFrame(dst, src ether.MAC, payload int) *ether.Frame {
	f := &ether.Frame{Dst: dst, Src: src, Type: ether.TypeIPv4, Payload: make([]byte, payload)}
	f.Payload[0] = 0x45
	f.Payload[9] = 17
	binary.BigEndian.PutUint32(f.Payload[12:], 0x0a000001)
	binary.BigEndian.PutUint32(f.Payload[16:], 0x0a000002)
	return f
}

// send injects the frames at one instant and runs the world until they
// have crossed.
func (p *benchPath) send(frames ...*ether.Frame) {
	for _, f := range frames {
		p.tx.Send(f)
	}
	p.w.eng.RunFor(100 * time.Millisecond)
}

// run is the timed loop, one send per op.
func (p *benchPath) run(b *testing.B, frames ...*ether.Frame) {
	b.Helper()
	send := func() { p.send(frames...) }
	for i := 0; i < 8; i++ { // fill the free lists
		send()
	}
	p.got = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if want := b.N * len(frames); p.got != want {
		b.Fatalf("%d of %d frames delivered", p.got, want)
	}
}

var cone = []nat.Type{nat.FullCone, nat.FullCone}

// MTU-size frames over a direct tunnel, on the default (untagged)
// network and on a tagged one: multi-tenancy costs ~nothing.
func BenchmarkForwardingUntagged(b *testing.B) {
	newBenchPath(b, 0, cone).run(b, benchFrame(benchMACb, benchMACa, 1400))
}

func BenchmarkForwardingVNITagged(b *testing.B) {
	newBenchPath(b, 42, cone).run(b, benchFrame(benchMACb, benchMACa, 1400))
}

// BenchmarkEncapRelayWrap sends the same frames over a broker-relayed
// tunnel (symmetric NATs): the relay envelope is written into the
// batch buffer's headroom and the broker forwards the lease, so the
// extra hop costs no copy and no allocation.
func BenchmarkEncapRelayWrap(b *testing.B) {
	p := newBenchPath(b, 42, []nat.Type{nat.Symmetric, nat.Symmetric})
	if t, ok := p.w.hosts[0].Tunnel(hostName(1)); !ok || !t.Relayed {
		b.Fatal("tunnel is not relayed")
	}
	p.run(b, benchFrame(benchMACb, benchMACa, 1400))
}

// BenchmarkForwardTableSteadyState is the switch's per-frame table work
// on the live path: minimum-size frames, where learn and lookup on both
// hosts' bridges and WAV-Switches are most of what a frame costs.
func BenchmarkForwardTableSteadyState(b *testing.B) {
	newBenchPath(b, 42, cone).run(b, benchFrame(benchMACb, benchMACa, 64))
}

// BenchmarkForwardingBatched sends four small frames at one instant:
// they share one egress batch, one wire packet and one leased buffer,
// and the receiver's four decapsulated frames are views on it.
func BenchmarkForwardingBatched(b *testing.B) {
	p := newBenchPath(b, 42, cone)
	f := benchFrame(benchMACb, benchMACa, 300)
	flushes := p.w.hosts[0].BatchFlushes
	p.run(b, f, f, f, f)
	if per := float64(p.w.hosts[0].BatchFlushes-flushes) / float64(b.N+8); per > 1.01 {
		b.Fatalf("%.2f wire packets per four-frame burst, want 1", per)
	}
}

// BenchmarkForwardingFlowAccounted is BenchmarkForwardingVNITagged
// checked for its telemetry: every frame is charged to its flow at
// encap and at decap, and that costs the data plane no allocation.
func BenchmarkForwardingFlowAccounted(b *testing.B) {
	p := newBenchPath(b, 42, cone)
	p.run(b, benchFrame(benchMACb, benchMACa, 1400))
	for _, h := range p.w.hosts[:2] {
		var frames uint64
		for _, st := range h.Flows().Snapshot() {
			if st.Key.VNI == 42 && st.Key.Proto == 17 {
				frames += st.Frames
			}
		}
		if frames < uint64(b.N) {
			b.Fatalf("%s accounted %d frames of %d", h.Name(), frames, b.N)
		}
	}
}
