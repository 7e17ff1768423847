package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wavnet/internal/ether"
	"wavnet/internal/nat"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// The zero-alloc invariant of the forwarding path, pinned as unit
// tests: the live path between two hosts first, then its parts — the
// VNI tag/untag codec and the relay-envelope wrap must not allocate
// when given caller-owned scratch.

// TestFramePathSteadyStateAllocs drives the path the alloc-budget
// benchmarks drive (bench_test.go) — vif to vif across two hosts, their
// NAT gateways and the WAN, direct and broker-relayed — and requires
// that a frame costs no allocation once the world's free lists are
// warm: batch buffer, packet, decapsulated frame and every hop event
// are leased and recycled. The allowance of one object per burst is
// for the keepalives that tick while the frames cross.
func TestFramePathSteadyStateAllocs(t *testing.T) {
	for name, types := range map[string][]nat.Type{
		"direct":  {nat.FullCone, nat.FullCone},
		"relayed": {nat.Symmetric, nat.Symmetric},
	} {
		p := newBenchPath(t, 42, types)
		big, small := benchFrame(benchMACb, benchMACa, 1400), benchFrame(benchMACb, benchMACa, 64)
		burst := func() { p.send(big, small, small, small) }
		for i := 0; i < 8; i++ {
			burst()
		}
		p.got = 0
		allocs := testing.AllocsPerRun(50, burst)
		if p.got != 51*4 {
			t.Fatalf("%s: %d of %d frames delivered", name, p.got, 51*4)
		}
		if allocs >= 1 {
			t.Errorf("%s: %.2f allocs per four-frame burst, want < 1", name, allocs)
		}
	}
}

func allocTestFrame() *ether.Frame {
	return &ether.Frame{
		Dst:     ether.SeqMAC(1),
		Src:     ether.SeqMAC(2),
		Type:    ether.TypeIPv4,
		Payload: []byte("the quick brown fox jumps over the lazy dog"),
	}
}

func TestVNITagUntagRoundTripAllocs(t *testing.T) {
	for _, vni := range []uint32{0, 42} {
		f := allocTestFrame()
		wire := make([]byte, 0, VNIEncapLen(vni)+f.WireLen())
		var got ether.Frame
		allocs := testing.AllocsPerRun(100, func() {
			wire = AppendVNIFrame(wire[:0], vni, f)
			gotVNI, err := UnmarshalVNIFrameInto(&got, wire)
			if err != nil {
				t.Fatal(err)
			}
			if gotVNI != vni {
				t.Fatalf("vni = %d, want %d", gotVNI, vni)
			}
		})
		if allocs != 0 {
			t.Errorf("vni %d tag/untag round trip: %.1f allocs/op, want 0", vni, allocs)
		}
		if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: got %+v", got)
		}
	}
}

func TestRelayWrapAllocs(t *testing.T) {
	const vni, ch = uint32(42), uint64(7)
	f := allocTestFrame()
	buf := make([]byte, rendezvous.RelayHeaderLen, rendezvous.RelayHeaderLen+VNIEncapLen(vni)+f.WireLen())
	var wire []byte
	allocs := testing.AllocsPerRun(100, func() {
		wire = AppendVNIFrame(buf[:rendezvous.RelayHeaderLen], vni, f)
		wire[0] = rendezvous.RelayMagic
		binary.BigEndian.PutUint64(wire[1:], ch)
	})
	if allocs != 0 {
		t.Errorf("relay wrap: %.1f allocs/op, want 0", allocs)
	}
	// The envelope must decode back to the frame it wraps.
	if wire[0] != rendezvous.RelayMagic || binary.BigEndian.Uint64(wire[1:]) != ch {
		t.Fatal("bad relay header")
	}
	gotVNI, got, err := UnmarshalVNIFrame(wire[rendezvous.RelayHeaderLen:])
	if err != nil || gotVNI != vni {
		t.Fatalf("inner decode: vni=%d err=%v", gotVNI, err)
	}
	if got.Dst != f.Dst || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("inner frame mismatch")
	}
}

func TestForwardTableAllocs(t *testing.T) {
	// Steady-state switch work: refresh-learn of a known MAC plus the
	// unicast lookup, both in place in the per-VNI table.
	f := allocTestFrame()
	table := ether.NewVNITable[int](sim.NewEngine(1), 0)
	table.Learn(42, f.Dst, 1)
	table.Learn(42, f.Src, 2)
	allocs := testing.AllocsPerRun(100, func() {
		table.Learn(42, f.Src, 2)
		if _, ok := table.Lookup(42, f.Dst); !ok {
			t.Fatal("lookup miss")
		}
	})
	if allocs != 0 {
		t.Errorf("forward table steady state: %.1f allocs/op, want 0", allocs)
	}
}
