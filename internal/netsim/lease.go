package netsim

import "unsafe"

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

// Buffer size classes and free-list bounds. The bounds cap what a
// drained world retains (64 KB with the engine's event list), not what
// it can have in flight: a list only has to absorb the swing of the
// in-flight count, and a busier world simply allocates the excess.
const (
	smallBuf = 256  // control packets, ACKs, small datagrams
	largeBuf = 1536 // MTU-size packets and egress batches

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
type Pool struct {
	small, large []*Buf
	pkts         []*Packet
	poison       bool
	misses       uint64
	leased       int
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
func (p *Pool) Leased() int { return p.leased }

// Get leases a buffer of at least n bytes; the caller holds the one
// reference.
func (p *Pool) Get(n int) *Buf {
	p.leased++
	list, size := &p.small, smallBuf
	switch {
	case n > largeBuf:
		// Larger than any class: a one-off, never recycled.
		list, size = nil, n
	case n > smallBuf:
		list, size = &p.large, largeBuf
	}
	if list != nil {
		if b, ok := pop(list); ok {
			b.refs = 1
			b.gen++
			return b
		}
	}
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
	p.leased--
	if p.poison {
		// Filled by doubling copies: a byte loop is what -race is slowest at.
		b.Data[0] = 0xDB
		for n := 1; n < len(b.Data); n *= 2 {
			copy(b.Data[n:], b.Data[:n])
		}
		return
	}
	switch len(b.Data) {
	case smallBuf:
		if len(p.small) < maxFreeSmall {
			p.small = append(p.small, b)
		}
	case largeBuf:
		if len(p.large) < maxFreeLarge {
			p.large = append(p.large, b)
		}
	}
}

// Retained reports the bytes the pool's free lists hold.
func (p *Pool) Retained() int {
	n := len(p.pkts) * packetBytes
	for _, l := range [][]*Buf{p.small, p.large} {
		for _, b := range l {
			n += bufBytes + len(b.Data) + b.ParkedBytes
		}
	}
	return n
}

// packet returns a zeroed Packet from the free list.
func (p *Pool) packet() *Packet {
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
	if p != nil && !p.poison && len(p.pkts) < maxFreePkts {
		p.pkts = append(p.pkts, pkt)
	}
}
