package ipstack

import "wavnet/internal/netsim"

// ring is a byte FIFO over a circular buffer that grows on demand, the
// storage behind a connection's send and receive buffers: bytes leave
// at the front by moving an index, so nothing is re-sliced or
// re-allocated as the window slides. The buffer is a lease from the
// stack's pool — the size class that fits the most the connection ever
// held at once — and goes back there when the connection can no longer
// use it (see netsim.Buf for who releases, and when).
type ring struct {
	buf   []byte      // lease.Data, or after detach a plain copy
	lease *netsim.Buf // nil when buf is not the pool's
	head  int         // index of the first held byte
	n     int         // bytes held
}

// Len reports the bytes held.
func (r *ring) Len() int { return r.n }

// write appends p, moving to a larger lease from pool when it does not
// fit. A ring that has to grow is streaming, so it takes four times its
// size at once (within limit, the connection's byte limit, which the
// caller enforces): a window is five leases up from the first segment,
// and the classes passed over are those few connections are in at any
// one time, whose free lists are therefore short.
func (r *ring) write(pool *netsim.Pool, p []byte, limit int) {
	if need := r.n + len(p); need > len(r.buf) {
		grown, held := pool.Get(max(need, min(4*len(r.buf), limit))), r.n
		a, b := r.slices(0, held)
		copy(grown.Data[copy(grown.Data, a):], b)
		r.free()
		r.buf, r.lease, r.n = grown.Data, grown, held
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	k := copy(r.buf[tail:], p)
	copy(r.buf, p[k:])
	r.n += len(p)
}

// slices returns the n bytes starting off bytes into the held data, as
// up to two spans of the circular buffer.
func (r *ring) slices(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	start := r.head + off
	if start >= len(r.buf) {
		start -= len(r.buf)
	}
	if end := start + n; end > len(r.buf) {
		return r.buf[start:], r.buf[:end-len(r.buf)]
	}
	return r.buf[start : start+n], nil
}

// discard drops n bytes from the front.
func (r *ring) discard(n int) {
	r.n -= n
	if r.n == 0 {
		r.head = 0
		return
	}
	if r.head += n; r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}

// read moves up to len(p) bytes from the front into p.
func (r *ring) read(p []byte) int {
	n := len(p)
	if n > r.n {
		n = r.n
	}
	a, b := r.slices(0, n)
	copy(p[copy(p, a):], b)
	r.discard(n)
	return n
}

// free gives the buffer back along with whatever it held.
func (r *ring) free() {
	if r.lease != nil {
		r.lease.Release()
	}
	*r = ring{}
}

// detach gives the buffer back and keeps what the ring still holds
// readable in a plain slice of exactly that size (none when empty).
func (r *ring) detach() {
	kept := make([]byte, r.n)
	r.read(kept)
	r.free()
	r.buf, r.n = kept, len(kept)
}
