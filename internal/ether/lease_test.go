package ether

import (
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// released reports whether every reference on b is gone: in poison mode
// a further Release panics exactly then.
func released(b *netsim.Buf) (gone bool) {
	defer func() { gone = recover() != nil }()
	b.Release()
	return false
}

// TestLeasedFrameThroughBridge floods a leased frame to three ports —
// one of them unplugged while the frame is in flight — and forwards a
// second one through a pipe: each delivery holds its own reference, the
// dead port's is released unseen, and the buffer is back in the pool
// when the last handler returns, not before.
func TestLeasedFrameThroughBridge(t *testing.T) {
	eng := sim.NewEngine(1)
	pool := netsim.NewPool()
	pool.SetPoison(true)
	br := NewBridge(eng, "br", 10*time.Microsecond)
	in := br.AddPort("in")
	var seen []string
	var dead *BridgePort
	for _, name := range []string{"a", "b", "c"} {
		name, p := name, br.AddPort(name)
		p.SetRecv(func(f *Frame) { seen = append(seen, name+":"+string(f.Payload)) })
		if name == "b" {
			dead = p
		}
	}
	pipe := NewPipe(eng, 5*time.Microsecond)
	pipe.B.SetRecv(func(f *Frame) { seen = append(seen, "pipe:"+string(f.Payload)) })

	send := func(nic NIC, payload string) *netsim.Buf {
		b := pool.Get(len(payload))
		f := NewFrame(b)
		f.Dst, f.Src, f.Type = Broadcast, SeqMAC(1), TypeIPv4
		f.Payload = b.Data[:copy(b.Data, payload)]
		nic.Send(f)
		b.Release() // the sender is done; whoever still needs it retained it
		return b
	}
	flood := send(in, "flood")
	piped := send(pipe.A, "piped")
	br.RemovePort(dead)
	if len(seen) != 0 {
		t.Fatalf("delivered synchronously: %v", seen)
	}
	eng.Run()
	want := []string{"pipe:piped", "a:flood", "c:flood"}
	if len(seen) != len(want) {
		t.Fatalf("deliveries %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("deliveries %v, want %v (a payload read after release would be 0xDB)", seen, want)
		}
	}
	if !released(flood) || !released(piped) {
		t.Fatal("a lease outlived its last delivery")
	}
}

// TestFramesRideOnTheirBuffer: the frame structs carved from a buffer
// stay parked on it and are handed out again, in order and zeroed,
// under its next lease; a frame released after its lease ended panics
// as the double release it is (the pool poisoned, so the buffer is
// never reissued to hide it).
func TestFramesRideOnTheirBuffer(t *testing.T) {
	pool := netsim.NewPool()
	b := pool.Get(100)
	f1, f2 := NewFrame(b), NewFrame(b)
	if f1 == f2 || f1.Lease() != b || f2.Lease() != b {
		t.Fatal("two frames on one lease must be distinct views of it")
	}
	f1.Type, f1.Payload = TypeARP, b.Data[:4]
	b.Release()
	if again := pool.Get(100); again != b {
		t.Fatal("buffer not reissued")
	}
	if g1, g2 := NewFrame(b), NewFrame(b); g1 != f1 || g2 != f2 || g1.Type != 0 || g1.Payload != nil {
		t.Fatalf("next lease got frames %p %p (type %#x), want the parked %p %p zeroed", g1, g2, g1.Type, f1, f2)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		b.Release()
		NewFrame(pool.Get(100))
	}); allocs != 0 {
		t.Fatalf("framing a recycled buffer allocates %.0f objects", allocs)
	}
	pool.SetPoison(true)
	f1.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of a frame did not panic in poison mode")
		}
	}()
	f1.Release()
}

// TestFrameLiteralsStayCallerOwned: a frame built as a literal carries
// no lease; Retain and Release do nothing and Clone is independent.
func TestFrameLiteralsStayCallerOwned(t *testing.T) {
	f := &Frame{Dst: SeqMAC(1), Src: SeqMAC(2), Type: TypeARP, Payload: []byte("abc")}
	f.Retain()
	f.Release()
	f.Release()
	c := f.Clone()
	c.Payload[0] = 'x'
	if f.Lease() != nil || string(f.Payload) != "abc" || c.Dst != f.Dst || c.Type != f.Type {
		t.Fatalf("literal frame %+v, clone %+v", f, c)
	}
	if nf := NewFrame(nil); nf.Lease() != nil {
		t.Fatal("NewFrame(nil) carries a lease")
	}
}
