package core

import (
	"fmt"
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/nat"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// Egress-batching behaviour tests: same-instant frames to one
// destination coalesce into one wire packet, quota drops stay
// per-frame, order survives the batch codec, and relayed tunnels get
// their envelope in place.

// batchPair builds a two-host world with an established a→b tunnel and
// a collector port on b's default bridge recording frame payloads in
// arrival order.
func batchPair(t testing.TB, seed int64, types []nat.Type) (*world, *[]string) {
	t.Helper()
	w := buildWorld(t, seed, types,
		[]sim.Duration{10 * time.Millisecond, 15 * time.Millisecond})
	w.joinAll(t)
	var connErr error
	w.eng.Spawn("connect", func(p *sim.Proc) {
		_, connErr = w.hosts[0].ConnectTo(p, hostName(1))
	})
	w.eng.RunFor(30 * time.Second)
	if connErr != nil {
		t.Fatalf("connect: %v", connErr)
	}
	got := &[]string{}
	col := w.hosts[1].Bridge().AddPort("col")
	col.SetRecv(func(f *ether.Frame) { *got = append(*got, string(f.Payload)) })
	return w, got
}

// injectBroadcasts floods n same-instant frames ("f-0".."f-n-1")
// through host 0's default segment.
func injectBroadcasts(w *world, n int) {
	w.eng.Schedule(0, func() {
		h := w.hosts[0]
		seg := h.segments[0]
		for i := 0; i < n; i++ {
			h.switchFrame(seg, &ether.Frame{
				Dst:     ether.Broadcast,
				Src:     ether.SeqMAC(99),
				Type:    ether.TypeIPv4,
				Payload: []byte(fmt.Sprintf("f-%d", i)),
			})
		}
	})
	w.eng.RunFor(5 * time.Second)
}

func wantOrder(t *testing.T, got []string, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d frames (%v), want %d", len(got), got, n)
	}
	for i, s := range got {
		if s != fmt.Sprintf("f-%d", i) {
			t.Fatalf("frame order broken at %d: %v", i, got)
		}
	}
}

func TestBatchCoalescesSameInstantFrames(t *testing.T) {
	w, got := batchPair(t, 21, []nat.Type{nat.FullCone, nat.FullCone})
	h := w.hosts[0]
	flushes0 := h.BatchFlushes
	injectBroadcasts(w, 5)
	wantOrder(t, *got, 5)
	// One destination, one instant, well under both caps: exactly one
	// aggregated packet.
	if d := h.BatchFlushes - flushes0; d != 1 {
		t.Fatalf("BatchFlushes = %d, want 1", d)
	}
	tun, _ := h.Tunnel(hostName(1))
	if tun.BatchesOut != 1 {
		t.Fatalf("BatchesOut = %d, want 1", tun.BatchesOut)
	}
	rtun, _ := w.hosts[1].Tunnel(hostName(0))
	if rtun.BatchesIn != 1 || rtun.FramesIn < 5 {
		t.Fatalf("receiver BatchesIn = %d FramesIn = %d, want 1 batch / ≥5 frames",
			rtun.BatchesIn, rtun.FramesIn)
	}
	if h.BatchSizes().Max() != 5 {
		t.Fatalf("batch size max = %.0f, want 5", h.BatchSizes().Max())
	}
}

func TestBatchFrameCapFlushesEarly(t *testing.T) {
	w, got := batchPair(t, 22, []nat.Type{nat.FullCone, nat.FullCone})
	h := w.hosts[0]
	n := batchMaxFrames + 8
	injectBroadcasts(w, n)
	wantOrder(t, *got, n)
	if h.BatchCapFlushes == 0 {
		t.Fatal("overflowing batchMaxFrames never cap-flushed")
	}
	if h.BatchFlushes < 2 {
		t.Fatalf("BatchFlushes = %d, want ≥2 (cap flush + final flush)", h.BatchFlushes)
	}
}

func TestBatchByteCapKeepsWireUnderBudget(t *testing.T) {
	w, got := batchPair(t, 23, []nat.Type{nat.FullCone, nat.FullCone})
	h := w.hosts[0]
	// Three ~700-byte frames: two fit the 1500-byte budget, the third
	// must open a second packet.
	w.eng.Schedule(0, func() {
		seg := h.segments[0]
		for i := 0; i < 3; i++ {
			pay := make([]byte, 700)
			copy(pay, fmt.Sprintf("f-%d", i))
			h.switchFrame(seg, &ether.Frame{
				Dst: ether.Broadcast, Src: ether.SeqMAC(99),
				Type: ether.TypeIPv4, Payload: pay,
			})
		}
	})
	w.eng.RunFor(5 * time.Second)
	if len(*got) != 3 {
		t.Fatalf("received %d frames, want 3", len(*got))
	}
	for i, s := range *got {
		if want := fmt.Sprintf("f-%d", i); s[:len(want)] != want {
			t.Fatalf("frame order broken at %d", i)
		}
	}
	if h.BatchCapFlushes != 1 || h.BatchFlushes != 2 {
		t.Fatalf("flushes = %d (capped %d), want 2 with 1 capped",
			h.BatchFlushes, h.BatchCapFlushes)
	}
}

func TestBatchQuotaDropsPerFrame(t *testing.T) {
	w, got := batchPair(t, 24, []nat.Type{nat.FullCone, nat.FullCone})
	h := w.hosts[0]
	// Bucket depth of exactly two frames and a negligible refill rate:
	// of five same-instant frames the first two are admitted, the rest
	// drop at enqueue — the batch carries only admitted frames.
	frame := &ether.Frame{Dst: ether.Broadcast, Src: ether.SeqMAC(99),
		Type: ether.TypeIPv4, Payload: []byte("f-0")}
	wireLen := VNIEncapLen(0) + frame.WireLen()
	h.SetVNIQuota(0, QuotaConfig{Tenant: "t", RateBps: 1, BurstBytes: 2 * wireLen})
	injectBroadcasts(w, 5)
	wantOrder(t, *got, 2)
	if h.QuotaDrops != 3 {
		t.Fatalf("QuotaDrops = %d, want 3", h.QuotaDrops)
	}
	if h.BatchedFrames != 2 || h.BatchFlushes != 1 {
		t.Fatalf("batched %d frames in %d flushes, want 2 in 1",
			h.BatchedFrames, h.BatchFlushes)
	}
}

func TestBatchAcrossRelayedTunnel(t *testing.T) {
	// Symmetric-symmetric pairs fall back to a brokered relay; the
	// multi-frame batch rides one relay envelope written into the
	// buffer's headroom in place.
	w, got := batchPair(t, 25, []nat.Type{nat.Symmetric, nat.Symmetric})
	tun, _ := w.hosts[0].Tunnel(hostName(1))
	if !tun.Relayed {
		t.Fatal("tunnel not relayed; test fixture broken")
	}
	injectBroadcasts(w, 5)
	wantOrder(t, *got, 5)
	if tun.BatchesOut != 1 {
		t.Fatalf("BatchesOut = %d, want 1 (one envelope for the whole batch)", tun.BatchesOut)
	}
	rtun, _ := w.hosts[1].Tunnel(hostName(0))
	if rtun.BatchesIn != 1 {
		t.Fatalf("receiver BatchesIn = %d, want 1", rtun.BatchesIn)
	}
}

func TestBatchCodecSteadyStateAllocs(t *testing.T) {
	// The enqueue/flush cycle reuses the per-frame codec; with the
	// batch buffer provided (as the live path's reused capacity is),
	// append plus the receive walk is allocation-free.
	f := allocTestFrame()
	const vni = uint32(42)
	const headroom = rendezvous.RelayHeaderLen
	buf := make([]byte, headroom+batchHeaderLen, headroom+batchHeaderLen+1500)
	buf[headroom] = paFrameBatch
	var got ether.Frame
	allocs := testing.AllocsPerRun(100, func() {
		b := buf[:headroom+batchHeaderLen]
		for i := 0; i < 4; i++ {
			b = appendBatchFrame(b, vni, f)
		}
		w := walkFrames(b[headroom:])
		frames := 0
		for img, ok := w.next(); ok; img, ok = w.next() {
			gotVNI, err := UnmarshalVNIFrameInto(&got, img)
			if err != nil || gotVNI != vni {
				t.Fatalf("entry decode: vni=%d err=%v", gotVNI, err)
			}
			frames++
		}
		if frames != 4 {
			t.Fatalf("walked %d entries, want 4", frames)
		}
	})
	if allocs != 0 {
		t.Errorf("batch codec round trip: %.1f allocs/op, want 0", allocs)
	}
}
