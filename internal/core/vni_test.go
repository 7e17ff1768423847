package core

import (
	"bytes"
	"math/rand"
	"testing"

	"wavnet/internal/ether"
)

func randFrame(rng *rand.Rand, payloadLen int) *ether.Frame {
	f := &ether.Frame{Type: uint16(rng.Intn(1 << 16)), Payload: make([]byte, payloadLen)}
	rng.Read(f.Dst[:])
	rng.Read(f.Src[:])
	rng.Read(f.Payload)
	return f
}

func TestVNIFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, vni := range []uint32{0, 1, 2, 4094, 1 << 24, ^uint32(0)} {
		for _, plen := range []int{0, 1, 46, 1400} {
			f := randFrame(rng, plen)
			wire := AppendVNIFrame(nil, vni, f)
			// Wire format invariants.
			if vni == 0 {
				if wire[0] != paFrame || len(wire) != 1+f.WireLen() {
					t.Fatalf("vni 0: wrong wire %x len %d", wire[0], len(wire))
				}
			} else {
				if wire[0] != paFrameVNI || len(wire) != 1+VNITagLen+f.WireLen() {
					t.Fatalf("vni %d: wrong wire %x len %d", vni, wire[0], len(wire))
				}
			}
			var got ether.Frame
			gotVNI, err := UnmarshalVNIFrameInto(&got, wire)
			if err != nil {
				t.Fatalf("vni %d plen %d: %v", vni, plen, err)
			}
			if gotVNI != vni {
				t.Fatalf("round-trip VNI %d -> %d", vni, gotVNI)
			}
			if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("vni %d plen %d: frame mangled", vni, plen)
			}
		}
	}
}

func TestVNIFrameTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randFrame(rng, 64)
	// Every strict prefix that cuts into the header must error, for
	// both wire formats.
	for _, vni := range []uint32{0, 9} {
		wire := AppendVNIFrame(nil, vni, f)
		minLen := 1 + ether.HeaderLen
		if vni != 0 {
			minLen += VNITagLen
		}
		for cut := 0; cut < minLen; cut++ {
			if _, err := UnmarshalVNIFrameInto(new(ether.Frame), wire[:cut]); err == nil {
				t.Fatalf("vni %d: accepted truncation to %d bytes", vni, cut)
			}
		}
		// Cutting only payload is legal at the codec layer (the frame
		// header is intact); the payload just shrinks.
		var got ether.Frame
		if _, err := UnmarshalVNIFrameInto(&got, wire[:minLen+10]); err != nil || len(got.Payload) != 10 {
			t.Fatalf("vni %d: payload cut rejected: %v", vni, err)
		}
	}
	if _, err := UnmarshalVNIFrameInto(new(ether.Frame), nil); err == nil {
		t.Fatal("accepted empty input")
	}
	// An unknown type byte is not a frame encapsulation.
	if _, err := UnmarshalVNIFrameInto(new(ether.Frame), []byte{0x42, 1, 2, 3}); err != ErrBadEncap {
		t.Fatalf("unknown type: %v", err)
	}
	// A tagged frame must not smuggle the reserved VNI 0.
	zero := AppendVNIFrame(nil, 3, f)
	zero[1], zero[2], zero[3], zero[4] = 0, 0, 0, 0
	if _, err := UnmarshalVNIFrameInto(new(ether.Frame), zero); err != ErrReservedVNI {
		t.Fatalf("reserved VNI: %v", err)
	}
}
