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
// hits Config.BatchMaxBytes/BatchMaxFrames — emits one aggregated
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
		(len(t.egress)+need > headroom+batchHeaderLen+h.cfg.BatchMaxBytes ||
			t.egressFrames >= h.cfg.BatchMaxFrames) {
		h.flushTunnel(t, true)
	}
	if t.egressFrames == 0 {
		// Sized for the byte cap up front so appends within one batch
		// never outgrow the lease.
		capBytes := headroom + batchHeaderLen + h.cfg.BatchMaxBytes
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

// onTunnelBatch unbatches an aggregated paFrameBatch payload into the
// per-frame receive path. Each entry runs through the same zero-alloc
// decode, isolation check, learn and tap injection as a lone frame;
// a malformed entry ends the walk (frames before it still count).
func (h *Host) onTunnelBatch(t *Tunnel, payload []byte, lease *netsim.Buf) {
	t.BatchesIn++
	off := batchHeaderLen
	for off+batchLenBytes <= len(payload) {
		n := int(payload[off])<<8 | int(payload[off+1])
		off += batchLenBytes
		if n == 0 || off+n > len(payload) {
			return
		}
		h.onTunnelFrame(t, payload[off:off+n], lease)
		off += n
	}
}

// BatchSizes exposes the frames-per-batch distribution.
func (h *Host) BatchSizes() *obs.Histogram { return h.batchSizes }
