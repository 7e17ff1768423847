package core

import (
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
)

// Tunnel egress batching.
//
// The per-frame hot path of PR 8 still paid one wire packet — and one
// scheduled netsim event — per forwarded frame. A TCP window arriving
// at the tap lands at a single virtual instant, so the frames to one
// destination can share a packet: switchFrame enqueues encoded frame
// images into a per-Tunnel egress queue, and a flush — at the end of
// the current sim timestamp (Engine.AtTimeEnd), or early when a queue
// hits batchMaxBytes/batchMaxFrames — emits one aggregated
// paFrameBatch packet per destination:
//
//	[0x1A] ( [len:2 BE] [paFrame|paFrameVNI frame image] )*
//
// laid out behind the usual relay-envelope headroom, so a relayed
// destination fills its 9 header bytes in place exactly like the
// single-frame path. A batch holding one frame degrades to the legacy
// single-frame wire format (no container byte, no length prefix) so
// sparse traffic is bit-identical to PR 8.
//
// Invariants:
//   - Quota admission, FramesOut/BytesOut and QuotaDrops are per frame,
//     charged at enqueue time: batching never changes which frames a
//     tenant's bucket admits, only how admitted frames share packets.
//   - Flood determinism: destinations flush in first-enqueue order,
//     which for a flood is sortedTunnels order; frames within a batch
//     keep admission order, and the receive loop unbatches in order.
//   - Steady-state zero-alloc: the batch buffer is leased from the
//     world's pool (netsim.Buf) — the network retains it for the flight,
//     the receiver's decapsulated frames are views on it, and it is
//     recycled when the last of them is released — while the flush
//     list and scratch are reused.

const (
	// batchLenBytes is the size of each entry's big-endian length prefix.
	batchLenBytes = 2
	// batchHeaderLen is the container overhead: the paFrameBatch byte.
	batchHeaderLen = 1

	// batchMaxBytes / batchMaxFrames cap one egress batch: a
	// destination's queue is flushed early once its batched payload
	// would exceed batchMaxBytes or holds batchMaxFrames frames.
	// batchMaxBytes is the classic 1500-byte path-MTU budget: a UDP
	// datagram above it would IP-fragment on a real path, and a
	// fragmented batch dies whole when any fragment drops — measured
	// here as multi-segment TCP holes that stall recovery into RTOs.
	// Under the MTU budget a full-size data frame rides alone (legacy
	// single-frame format, bit-identical to the unbatched wire), while
	// same-instant small frames — ACK trains, ARP, control chatter —
	// coalesce.
	batchMaxBytes  = 1500
	batchMaxFrames = 32
)

// appendBatchFrame appends one length-prefixed encapsulated frame image
// to dst and returns the extended slice (allocation-free when dst has
// capacity).
func appendBatchFrame(dst []byte, vni uint32, f *ether.Frame) []byte {
	n := VNIEncapLen(vni) + f.WireLen()
	dst = append(dst, byte(n>>8), byte(n))
	return AppendVNIFrame(dst, vni, f)
}

// enqueueFrame adds one admitted frame to t's egress batch, leasing a
// batch buffer when none is open and registering the end-of-timestamp
// flush hook on first use in this instant. Caps flush the open batch
// early so no wire packet exceeds the configured size.
func (h *Host) enqueueFrame(t *Tunnel, vni uint32, f *ether.Frame) {
	const headroom = wireHeadroom
	need := batchLenBytes + VNIEncapLen(vni) + f.WireLen()
	if t.egressFrames > 0 &&
		(len(t.egress)+need > headroom+batchHeaderLen+batchMaxBytes ||
			t.egressFrames >= batchMaxFrames) {
		h.flushTunnel(t, true)
	}
	if t.egressFrames == 0 {
		// Sized for the byte cap up front so appends within one batch
		// never outgrow the lease.
		capBytes := headroom + batchHeaderLen + batchMaxBytes
		if capBytes < headroom+batchHeaderLen+need {
			capBytes = headroom + batchHeaderLen + need // jumbo frame
		}
		t.egressBuf = h.pool.Get(capBytes)
		t.egress = t.egressBuf.Data[:headroom+batchHeaderLen]
		t.egress[headroom] = paFrameBatch
	}
	t.egress = appendBatchFrame(t.egress, vni, f)
	t.egressFrames++
	h.BatchedFrames++
	if !t.egressQueued {
		t.egressQueued = true
		h.pendingFlush = append(h.pendingFlush, t)
	}
	if !h.flushHooked {
		h.flushHooked = true
		h.eng.AtTimeEnd(h.flushFn)
	}
}

// flushEgress is the end-of-timestamp hook: it emits every pending
// destination's batch in first-enqueue order. Registered once per
// virtual instant with frames pending (h.flushFn caches the closure).
func (h *Host) flushEgress() {
	h.flushHooked = false
	pend := h.pendingFlush
	for i := 0; i < len(pend); i++ {
		t := pend[i]
		pend[i] = nil
		t.egressQueued = false
		h.flushTunnel(t, false)
	}
	h.pendingFlush = pend[:0]
}

// flushTunnel emits t's open batch as one wire packet and lets go of
// the buffer (the network holds it for the flight). A single-frame
// batch is sent in the legacy per-frame format; multi-frame batches go
// out as paFrameBatch. Either way a relayed tunnel's envelope is
// written in place into headroom (sendWire).
func (h *Host) flushTunnel(t *Tunnel, capped bool) {
	buf, wire, frames := t.takeEgress()
	if buf == nil {
		return
	}
	h.BatchFlushes++
	if capped {
		h.BatchCapFlushes++
	}
	t.BatchesOut++
	h.batchSizes.Observe(float64(frames))
	off := wireHeadroom
	if frames == 1 {
		// Legacy single-frame format: skip the container byte and the
		// length prefix; the bytes ahead of the frame image are spare
		// headroom for the relay envelope.
		off += batchHeaderLen + batchLenBytes
	}
	h.sendWire(t, buf, off, len(wire)-off)
	buf.Release()
}

// takeEgress detaches t's open batch: its lease (nil when none is
// open), the bytes filled so far and how many frames they hold. The
// caller releases the lease.
func (t *Tunnel) takeEgress() (buf *netsim.Buf, wire []byte, frames int) {
	buf, wire, frames = t.egressBuf, t.egress, t.egressFrames
	t.egressBuf, t.egress, t.egressFrames = nil, nil, 0
	return buf, wire, frames
}

// frameWalk reads a frame payload, the one place the batch layout is
// read: a paFrameBatch yields its length-prefixed entries in order, and
// anything else is one frame image (paFrame or paFrameVNI; whether an
// image decodes is UnmarshalVNIFrameInto's call). A malformed entry — a
// zero length, or one running past the payload — ends the walk; the
// images before it still count.
type frameWalk struct {
	rest  []byte
	batch bool
}

func walkFrames(payload []byte) frameWalk {
	if len(payload) > 0 && payload[0] == paFrameBatch {
		return frameWalk{rest: payload[batchHeaderLen:], batch: true}
	}
	return frameWalk{rest: payload}
}

// next returns the next frame image, or false once the walk is over.
func (w *frameWalk) next() ([]byte, bool) {
	img := w.rest
	if !w.batch {
		w.rest = nil
		return img, len(img) > 0
	}
	if len(img) < batchLenBytes {
		return nil, false
	}
	n := int(img[0])<<8 | int(img[1])
	if n == 0 || batchLenBytes+n > len(img) {
		w.rest = nil
		return nil, false
	}
	w.rest = img[batchLenBytes+n:]
	return img[batchLenBytes : batchLenBytes+n], true
}

// onTunnelFrames receives one frame payload over t: each image the walk
// yields runs through the same zero-alloc decode, isolation check,
// learn and tap injection (onTunnelFrame).
func (h *Host) onTunnelFrames(t *Tunnel, payload []byte, lease *netsim.Buf) {
	t.lastHeard = h.eng.Now()
	w := walkFrames(payload)
	if w.batch {
		t.BatchesIn++
	}
	for img, ok := w.next(); ok; img, ok = w.next() {
		h.onTunnelFrame(t, img, lease)
	}
}

// BatchSizes exposes the frames-per-batch distribution.
func (h *Host) BatchSizes() *obs.Histogram { return h.batchSizes }
