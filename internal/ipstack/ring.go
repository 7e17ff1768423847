package ipstack

// ring is a byte FIFO over a circular buffer that grows on demand, the
// storage behind a connection's send and receive buffers: bytes leave
// at the front by moving an index, so nothing is re-sliced or
// re-allocated as the window slides, and the backing array is only as
// large as the most the connection ever held at once.
type ring struct {
	buf  []byte
	head int // index of the first held byte
	n    int // bytes held
}

// minRing is the smallest allocation; growth doubles until the write
// fits, so a short-lived connection that moves a few bytes pays for a
// few hundred, not for a window.
const minRing = 512

// Len reports the bytes held.
func (r *ring) Len() int { return r.n }

// write appends p, growing the buffer as needed. The caller enforces
// the connection's byte limit.
func (r *ring) write(p []byte) {
	if need := r.n + len(p); need > len(r.buf) {
		size := len(r.buf) * 2
		if size < minRing {
			size = minRing
		}
		for size < need {
			size *= 2
		}
		grown := make([]byte, size)
		a, b := r.slices(0, r.n)
		copy(grown[copy(grown, a):], b)
		r.buf, r.head = grown, 0
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

// free drops the buffer along with whatever it held.
func (r *ring) free() { *r = ring{} }
