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
	huge := p.Get(largeBuf + 1)
	if p.Leased() != 4 || p.Misses() != 4 {
		t.Fatalf("%d leases out after %d misses, want 4 and 4", p.Leased(), p.Misses())
	}
	huge.Release()
	if len(huge.Data) != largeBuf+1 || p.Retained() != 0 || p.Leased() != 3 {
		t.Fatal("oversize lease must be a one-off the pool does not keep")
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
