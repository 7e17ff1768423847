package netsim

import (
	"math/bits"
	"unsafe"
)

// Buf is a lease on one pooled buffer: the single unit of payload
// ownership on the frame path, from the socket write that fills it to
// the far-side tap that reads it.
//
// Ownership rule. Whoever calls Pool.Get holds one reference and must
// Release it. A Buf — and any Packet, ether.Frame or ipstack.Datagram
// whose bytes it backs — handed to a function or handler is borrowed:
// it is valid only for the duration of that call. A callee that needs
// the bytes afterwards (a bridge scheduling delivery, a link in
// transit, a relay forwarding, an out-of-order TCP stash) calls Retain
// before it returns and Release when it is done; a callee that wants
// to keep them indefinitely copies them out instead. The buffer goes
// back to its pool when the last reference is released, so releasing
// twice, or touching the bytes after the last Release, is a bug — the
// first panics, the second is what Pool.SetPoison exists to catch.
// Forgetting to Release is safe: the garbage collector takes the
// buffer and the pool allocates another. Payloads that arrive without
// a lease (SendTo with a plain []byte, &ether.Frame{} literals) stay
// caller-owned exactly as before and are never recycled.
//
// The ring rule. A TCP connection's send and receive rings are leases
// too, held by the connection alone (segments are copied between ring
// and packet lease). A ring that outgrows its buffer leases a larger
// one, copies across and releases the old. The connection releases
// them where it can no longer use them: the send ring, and a receive
// ring already read empty, on entering TIME_WAIT; both on leaving its
// stack, whichever way it ended — bytes still unread then move to a
// plain slice first, so a removed connection holds no lease. A ring that
// merely runs empty keeps its buffer (see Pool for why).
//
// A recycled buffer is dirty: write every byte you send.
type Buf struct {
	// Data is the whole buffer, at least as long as was asked for; the
	// holder slices it as it likes (headroom is whatever it leaves in
	// front).
	Data []byte

	// Parked is one slot for the layer above to leave state on the
	// buffer that outlives the lease and is found again by whoever is
	// issued the buffer next (ether parks its Frame structs here, so
	// they are recycled with the buffer). ParkedBytes is what the parker
	// says that state weighs; Pool.Retained charges it.
	Parked      any
	ParkedBytes int

	pool *Pool
	refs int
	gen  uint32
}

// Gen numbers the buffer's leases: it changes every time the pool
// issues the buffer again, so state parked under one lease can tell it
// has been carried into the next.
func (b *Buf) Gen() uint32 { return b.gen }

// Buffer size classes and free-list floors. The two packet classes keep
// a floor of idle buffers, which is all a drained world retains (64 KB
// with the engine's event list); the socket-buffer classes, a power of
// two each from 2 KiB to the largest socket buffer, keep none.
const (
	smallBuf = 256  // control packets, ACKs, small datagrams
	largeBuf = 1536 // MTU-size packets and egress batches

	minRingShift = 11 // 2 KiB
	maxRingShift = 20 // 1 MiB
	ringClasses  = maxRingShift - minRingShift + 1

	maxFreeSmall = 40
	maxFreeLarge = 16
	maxFreePkts  = 64
	// What Retained charges per idle object.
	packetBytes = int(unsafe.Sizeof(Packet{}))
	bufBytes    = int(unsafe.Sizeof(Buf{}))
)

// Pool is one world's free lists of buffers and packets: plain LIFO
// slices, so what a run allocates depends only on the (deterministic)
// order of its Gets and Releases — never on the garbage collector's
// timing, as the contents of package sync's pool do. A Network owns
// one; a component built without a network makes its own with NewPool.
//
// The demand bound. Beside each list the pool counts the objects of
// that kind in use right now, and at every Release the list may hold
// max(floor, 2·out) idle ones: a busy world keeps buffers for the swing
// of its in-flight count — down to a third of the peak and back costs
// nothing — instead of missing on all but sixteen, and as the count
// falls the list sheds what it no longer covers, down to the floor.
// Measured on rr_relay_mesh (72 closed-loop flows, seed 1, MB allocated
// per rep): fixed floors 447, out 102, 2·out 70, 3·out 59 — the flows
// run in step, so the count keeps falling to almost nothing, and a
// larger factor buys less each time while an idle world may hold more.
// Two other rules were measured on bulk_tagged and rejected. Letting go
// of a socket buffer whenever its ring runs empty: with one connection
// the count drops to zero on every drain, the list is trimmed to its
// floor and the next write misses — 13.4 MB allocated per rep against
// 3.4. A floor of one on the socket-buffer classes: a ring's growth
// ladder leaves an idle buffer behind in every class it climbed through
// — 2.31 MB of live heap against 0.23.
type Pool struct {
	small, large []*Buf
	rings        [ringClasses][]*Buf // socket buffers, 2 KiB << index
	pkts         []*Packet
	out          [2 + ringClasses]int // leases out, by class
	pktsOut      int
	oversize     int // leases out that are larger than any class
	poison       bool
	misses       uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// SetPoison turns on the use-after-release detector, for tests: a
// released buffer is overwritten with 0xDB and neither it nor a released
// Packet is ever issued again, so a stale reader sees garbage and a
// second Release — of the buffer, of a packet, or of a frame riding on
// the buffer — always panics.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Poisoned reports whether SetPoison is on, for the layers above that
// keep reusable state of their own and scribble over it in the same
// mode.
func (p *Pool) Poisoned() bool { return p.poison }

// Misses reports how many buffers and packets the pool had to allocate
// because a free list was empty (one-off oversize buffers included).
// For a given seed the count repeats exactly.
func (p *Pool) Misses() uint64 { return p.misses }

// Leased reports how many buffers are out on lease: issued by Get and
// not yet back from their last Release.
func (p *Pool) Leased() int {
	n := p.oversize
	for _, out := range p.out {
		n += out
	}
	return n
}

// class returns the free list serving buffers of n bytes, its count of
// leases out, its buffer size and its floor; the list is nil above the
// largest class.
func (p *Pool) class(n int) (list *[]*Buf, out *int, size, floor int) {
	switch {
	case n <= smallBuf:
		return &p.small, &p.out[0], smallBuf, maxFreeSmall
	case n <= largeBuf:
		return &p.large, &p.out[1], largeBuf, maxFreeLarge
	case n <= 1<<maxRingShift:
		shift := max(bits.Len(uint(n-1)), minRingShift)
		i := shift - minRingShift
		return &p.rings[i], &p.out[2+i], 1 << shift, 0
	}
	return nil, &p.oversize, n, 0
}

// Get leases a buffer of at least n bytes; the caller holds the one
// reference.
func (p *Pool) Get(n int) *Buf {
	list, out, size, _ := p.class(n)
	*out++
	if list != nil {
		if b, ok := pop(list); ok {
			b.refs = 1
			b.gen++
			return b
		}
	}
	// A miss — or, above the largest class, a one-off never recycled.
	p.misses++
	return &Buf{Data: make([]byte, size), pool: p, refs: 1}
}

// pop takes the most recently pushed element off a LIFO free list.
func pop[T any](list *[]T) (v T, ok bool) {
	k := len(*list) - 1
	if k < 0 {
		return v, false
	}
	var zero T
	v, (*list)[k] = (*list)[k], zero
	*list = (*list)[:k]
	return v, true
}

// push returns v to a free list under the demand bound (see Pool; out
// counts those still in use), shedding what the bound no longer covers.
func push[T any](list *[]T, v T, floor, out int) {
	limit := max(floor, 2*out)
	if len(*list) < limit {
		*list = append(*list, v)
		return
	}
	for len(*list) > limit {
		pop(list)
	}
}

// Retain adds a reference and returns b.
func (b *Buf) Retain() *Buf {
	if b.refs <= 0 {
		panic("netsim: Buf retained after its last Release")
	}
	b.refs++
	return b
}

// Release drops one reference; the last one returns the buffer to its
// pool.
func (b *Buf) Release() {
	if b.refs <= 0 {
		panic("netsim: Buf released twice")
	}
	if b.refs--; b.refs > 0 {
		return
	}
	p := b.pool
	list, out, _, floor := p.class(len(b.Data))
	*out--
	if p.poison {
		// Filled by doubling copies: a byte loop is what -race is slowest at.
		b.Data[0] = 0xDB
		for n := 1; n < len(b.Data); n *= 2 {
			copy(b.Data[n:], b.Data[:n])
		}
		return
	}
	if list != nil {
		push(list, b, floor, *out)
	}
}

// Retained reports the bytes the pool's free lists hold.
func (p *Pool) Retained() int {
	n := len(p.pkts) * packetBytes
	for _, l := range append([][]*Buf{p.small, p.large}, p.rings[:]...) {
		for _, b := range l {
			n += bufBytes + len(b.Data) + b.ParkedBytes
		}
	}
	return n
}

// packet returns a zeroed Packet from the free list.
func (p *Pool) packet() *Packet {
	p.pktsOut++
	if pkt, ok := pop(&p.pkts); ok {
		pkt.stage = 0
		return pkt
	}
	p.misses++
	return &Packet{pool: p}
}

// Lease returns the lease backing the packet's payload, nil when the
// sender's bytes are caller-owned.
func (pkt *Packet) Lease() *Buf { return pkt.lease }

// Keep returns a copy of the packet that stays valid after the handler
// it was passed to returns: leased payload bytes are copied out,
// caller-owned ones are shared as they always were.
func (pkt Packet) Keep() Packet {
	if pkt.lease != nil {
		pkt.Payload = append([]byte(nil), pkt.Payload...)
		pkt.lease = nil
	}
	return pkt
}

// Release ends the packet's flight: its lease reference is dropped and
// a pool-owned Packet goes back to the free list. The network calls it
// after final delivery and at every drop site; a consumer outside
// netsim (a NAT gateway) calls it when it terminates a packet instead
// of re-emitting it.
func (pkt *Packet) Release() {
	if pkt.stage == hopFree {
		panic("netsim: Packet released twice")
	}
	lease, p := pkt.lease, pkt.pool
	*pkt = Packet{pool: p, stage: hopFree}
	if lease != nil {
		lease.Release()
	}
	if p == nil {
		return
	}
	p.pktsOut--
	if !p.poison {
		push(&p.pkts, pkt, maxFreePkts, p.pktsOut)
	}
}
