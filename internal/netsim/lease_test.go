package netsim

import (
	"bytes"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLeaseRecyclesLIFO(t *testing.T) {
	p := NewPool()
	a, b := p.Get(100), p.Get(100)
	if len(a.Data) != smallBuf || a == b {
		t.Fatalf("small lease: len %d, distinct %v", len(a.Data), a != b)
	}
	a.Parked, a.ParkedBytes = "left by the first holder", 24
	gen := a.Gen()
	a.Release()
	b.Release()
	if got := p.Get(1); got != b {
		t.Fatal("free list is not LIFO")
	}
	if got := p.Get(1); got != a {
		t.Fatal("second Get did not return the first-released buffer")
	}
	if a.Parked != "left by the first holder" || a.Gen() == gen {
		t.Fatalf("reissued buffer: parked %v, lease generation %d then %d", a.Parked, gen, a.Gen())
	}
	if big := p.Get(smallBuf + 1); len(big.Data) != largeBuf {
		t.Fatalf("large lease: len %d", len(big.Data))
	}
	huge := p.Get(1<<maxRingShift + 1)
	if p.Leased() != 4 || p.Misses() != 4 {
		t.Fatalf("%d leases out after %d misses, want 4 and 4", p.Leased(), p.Misses())
	}
	huge.Release()
	if len(huge.Data) != 1<<maxRingShift+1 || p.Retained() != 0 || p.Leased() != 3 {
		t.Fatal("a lease over the largest class must be a one-off the pool does not keep")
	}
}

// TestFreeListsFollowDemand: a list holds up to twice what is out on
// lease, so steady churn at any level stops missing once that level has
// been allocated, and falls back to its floor — nothing, for a socket
// buffer class — as the leases come home.
func TestFreeListsFollowDemand(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, level int
	}{
		{"small", 64, 500},
		{"large", 1400, 500},
		{"ring_8k", 8 << 10, 100},
		{"ring_1m", 1 << 20, 3},
	} {
		p := NewPool()
		held := make([]*Buf, c.level)
		for i := range held {
			held[i] = p.Get(c.size)
		}
		if p.Misses() != uint64(c.level) {
			t.Fatalf("%s: %d misses filling to %d", c.name, p.Misses(), c.level)
		}
		// Churn: the count out swings between half the level and all of
		// it, in an order that is not LIFO.
		for round := 0; round < 20; round++ {
			for i := round % 2; i < len(held); i += 2 {
				held[i].Release()
			}
			for i := round % 2; i < len(held); i += 2 {
				held[i] = p.Get(c.size)
			}
		}
		if p.Misses() != uint64(c.level) || p.Leased() != c.level {
			t.Errorf("%s: churn at %d out cost %d further misses (%d leased)", c.name, c.level, p.Misses()-uint64(c.level), p.Leased())
		}
		for _, b := range held {
			b.ParkedBytes = 200
			b.Release()
		}
		if r := p.Retained(); p.Leased() != 0 || r+128*64 > 64<<10 || (c.size > largeBuf && r != 0) {
			t.Errorf("%s: drained pool retains %d bytes with %d leased", c.name, r, p.Leased())
		}
	}
	// A ring growing from its first 512 bytes to a full window takes the
	// next class and gives the last one back, rung by rung: the socket
	// buffer classes it passed through keep nothing, and neither does the
	// top one once the connection is done.
	p := NewPool()
	b := p.Get(512)
	for n := 1024; n <= 1<<maxRingShift; n *= 2 {
		next := p.Get(n)
		b.Release()
		if b = next; p.Leased() != 1 || len(b.Data) < n {
			t.Fatalf("ladder at %d: %d leased, %d bytes", n, p.Leased(), len(b.Data))
		}
	}
	b.Release()
	for i, l := range p.rings {
		if len(l) != 0 {
			t.Fatalf("growth ladder left %d buffers of %d bytes behind", len(l), 1<<(minRingShift+i))
		}
	}
	if p.Leased() != 0 || len(p.large) != 2 {
		t.Fatalf("finished ladder: %d leased, %d MTU-size buffers idle (want the first two rungs)", p.Leased(), len(p.large))
	}
}

func TestLeaseRefcountAndMisuse(t *testing.T) {
	p := NewPool()
	b := p.Get(10)
	b.Retain()
	b.Release()
	if len(p.small) != 0 {
		t.Fatal("released to the pool with a reference outstanding")
	}
	b.Release()
	if len(p.small) != 1 {
		t.Fatal("last Release did not return the buffer")
	}
	mustPanic(t, "double Release", b.Release)
	mustPanic(t, "Retain after the last Release", func() { b.Retain() })
}

func TestLeasePoisonOverwritesAndNeverReissues(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Get(16)
	stale := b.Data[:16]
	copy(stale, "sixteen byte msg")
	b.Release()
	if !bytes.Equal(stale, bytes.Repeat([]byte{0xDB}, 16)) {
		t.Fatalf("released buffer not poisoned: %q", stale)
	}
	if p.Get(16) == b {
		t.Fatal("poisoned buffer was reissued")
	}
	mustPanic(t, "double Release under poison", b.Release)
}

func TestFreeListsAreBounded(t *testing.T) {
	p := NewPool()
	var held []*Buf
	for i := 0; i < 4*maxFreeSmall; i++ {
		held = append(held, p.Get(1), p.Get(largeBuf))
	}
	for _, b := range held {
		b.ParkedBytes = 200 // say, two ether frames and their slice
		b.Release()
	}
	if len(p.small) != maxFreeSmall || len(p.large) != maxFreeLarge || p.Leased() != 0 {
		t.Fatalf("free lists hold %d small, %d large, %d still leased", len(p.small), len(p.large), p.Leased())
	}
	// The engine's free list may hold 128 events of 64 bytes on top.
	if r := p.Retained(); r+128*64 > 64<<10 {
		t.Fatalf("full free lists retain %d bytes: over 64 KB with the engine's events", r)
	}
}

func TestKeepCopiesOnlyLeasedPayloads(t *testing.T) {
	p := NewPool()
	b := p.Get(8)
	leased := Packet{Payload: b.Data[:8], lease: b}
	if k := leased.Keep(); k.lease != nil || &k.Payload[0] == &b.Data[0] {
		t.Fatal("Keep left a leased payload aliased")
	}
	own := Packet{Payload: make([]byte, 8)}
	if k := own.Keep(); &k.Payload[0] != &own.Payload[0] {
		t.Fatal("Keep copied a caller-owned payload")
	}
}
