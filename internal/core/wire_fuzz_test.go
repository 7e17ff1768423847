package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// FuzzFramePayload holds the one reader of tunnel data bytes — the
// relay envelope (rendezvous.OpenRelay), the frame-payload walk
// (walkFrames) and the frame decode (UnmarshalVNIFrameInto) — to the
// properties FuzzDecode holds the control codec to: no panic, no read
// past the input, and every accepted frame re-encodes through
// AppendVNIFrame to the bytes it was read from. The walk must end only
// at the end of the payload or at a malformed entry, and drop
// accounting must charge exactly the frames the walk accepts.
func FuzzFramePayload(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add(seed)
	}
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	phys := nw.NewPublicHost("p", nw.NewSite("s"), netsim.MustParseIP("9.0.0.1"), 0, 0)
	h, err := NewHost(phys, "h", Config{})
	if err != nil {
		f.Fatal(err)
	}
	var frame ether.Frame
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)] // a read past the input is a slice past its capacity: a panic
		payload := b
		if ch, inner, ok := rendezvous.OpenRelay(b); ok {
			env := binary.BigEndian.AppendUint64([]byte{rendezvous.RelayMagic}, ch)
			if again := append(env, inner...); !bytes.Equal(again, b) {
				t.Fatalf("envelope % x\nre-wraps as % x", b, again)
			}
			payload = inner
		}
		// walked is the payload as the walk read it, rebuilt entry by entry.
		w := walkFrames(payload)
		var walked []byte
		if w.batch {
			walked = []byte{paFrameBatch}
		}
		accepted := 0
		for img, ok := w.next(); ok; img, ok = w.next() {
			if w.batch {
				walked = append(walked, byte(len(img)>>8), byte(len(img)))
			}
			walked = append(walked, img...)
			vni, err := UnmarshalVNIFrameInto(&frame, img)
			if err != nil {
				continue
			}
			accepted++
			if again := AppendVNIFrame(nil, vni, &frame); !bytes.Equal(again, img) {
				t.Fatalf("accepted % x\nencodes as % x", img, again)
			}
		}
		if !bytes.HasPrefix(payload, walked) {
			t.Fatalf("walk read % x\nfrom % x", walked, payload)
		}
		if rest := payload[len(walked):]; len(rest) >= batchLenBytes {
			if n := int(rest[0])<<8 | int(rest[1]); n != 0 && batchLenBytes+n <= len(rest) {
				t.Fatalf("walk stopped before the well-formed entry % x", rest)
			}
		}
		before := h.Flows().DropTotals()[obs.FlowDropWANLoss]
		h.AccountWireDrop(b, obs.FlowDropWANLoss)
		if got := h.Flows().DropTotals()[obs.FlowDropWANLoss] - before; got != uint64(accepted) {
			t.Fatalf("drop accounting charged %d frames of % x, the walk accepted %d", got, b, accepted)
		}
	})
}

// wireSeeds are the wire images the codec, batch and flow tests build:
// lone frames in both encodings with their truncations and refusals,
// batches, and relay envelopes around either.
func wireSeeds() [][]byte {
	rng := rand.New(rand.NewSource(42))
	var seeds [][]byte
	for _, vni := range []uint32{0, 9, 42} {
		for _, plen := range []int{0, 46} {
			wire := AppendVNIFrame(nil, vni, randFrame(rng, plen))
			seeds = append(seeds, wire, wire[:VNIEncapLen(vni)+ether.HeaderLen-1])
		}
	}
	zero := AppendVNIFrame(nil, 3, allocTestFrame())
	zero[1], zero[2], zero[3], zero[4] = 0, 0, 0, 0 // the reserved VNI 0
	seeds = append(seeds, zero, []byte{0x42, 1, 2, 3}, []byte{paPulse, 0})

	ip1, ip2 := netsim.MustParseIP("10.0.0.1"), netsim.MustParseIP("10.0.0.2")
	f := ipv4Frame(ether.SeqMAC(1), ether.SeqMAC(2), 17, ip1, ip2, 60)
	for _, vni := range []uint32{0, 9} {
		batch := []byte{paFrameBatch}
		for i := 0; i < 2; i++ {
			batch = appendBatchFrame(batch, vni, f)
		}
		batch = appendBatchFrame(batch, 42, allocTestFrame())
		relayed := append([]byte{rendezvous.RelayMagic, 0, 0, 0, 0, 0, 0, 0, 7}, batch...)
		seeds = append(seeds, batch, relayed, batch[:len(batch)-1], append(batch, 0, 0))
	}
	return seeds
}

// FuzzVNISet holds the reader of VNI-set announcements (parseVNISet) —
// the one Packet Assembler control payload that carries a count — to
// the same properties: no panic, no read past the input, and an
// accepted payload re-encodes through appendVNISet to the bytes it was
// read from. A refused payload appends nothing.
func FuzzVNISet(f *testing.F) {
	for _, vnis := range [][]uint32{nil, {7}, {1, 9, 42, 1<<24 - 1}} {
		wire := appendVNISet(nil, vnis)
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
		f.Add(append(wire, 0xff))
	}
	f.Add([]byte{paVNISet, 0xff, 0xff})
	f.Add([]byte{paFrame, 0, 1, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)] // a read past the input is a slice past its capacity: a panic
		vnis, ok := parseVNISet(nil, b)
		if !ok {
			if len(vnis) != 0 {
				t.Fatalf("refused % x but appended %v", b, vnis)
			}
			return
		}
		if again := appendVNISet(nil, vnis); !bytes.HasPrefix(b, again) {
			t.Fatalf("accepted % x\nencodes as % x", b, again)
		}
	})
}
