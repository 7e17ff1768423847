// Flow telemetry export leg: the record shape one closed (or live)
// data-plane flow exports, a bounded in-memory flow log the core's
// eviction sweep appends to, and a space-bounded top-K talkers sketch
// (count-min + min-heap) so "who is hot" stays O(K) to answer at
// 10k-host scale. The hot-path flow *accounting* lives in
// internal/core/flow.go; this file is everything downstream of it.
package obs

import (
	"container/heap"
	"fmt"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// FlowDropReason classifies why the data plane dropped a flow's frame.
// The first two fire inside the WAVNet host (sender-side metering and
// the receiver-side isolation check); the rest are wire fates reported
// back by the substrate's drop hook.
type FlowDropReason uint8

// Flow drop reasons.
const (
	FlowDropQuota     FlowDropReason = iota // sender-side tenant metering
	FlowDropCrossVNI                        // receiver-side isolation check
	FlowDropNoRoute                         // substrate had no route
	FlowDropQueue                           // access-link queue overflow
	FlowDropWANLoss                         // random WAN loss
	FlowDropPartition                       // severed WAN path
	FlowDropReasons                         // count; keep last
)

// String names the reason the way flow series are labeled.
func (r FlowDropReason) String() string {
	switch r {
	case FlowDropQuota:
		return "quota"
	case FlowDropCrossVNI:
		return "cross_vni"
	case FlowDropNoRoute:
		return "no_route"
	case FlowDropQueue:
		return "queue_overflow"
	case FlowDropWANLoss:
		return "wan_loss"
	case FlowDropPartition:
		return "partition"
	default:
		return fmt.Sprintf("reason%d", uint8(r))
	}
}

// FlowDropNames names one series per reason: prefix + the reason's
// String.
func FlowDropNames(prefix string) (names [FlowDropReasons]string) {
	for r := range names {
		names[r] = prefix + FlowDropReason(r).String()
	}
	return names
}

// FlowRecord is one flow-log record: the 6-tuple key, what the flow
// moved, why frames of it died, and its first/last-seen sim timestamps.
// Host is the WAVNet host that accounted the flow (sender for egress
// and drop records, receiver for ingress); Tenant/Net are filled by the
// scenario aggregation, which knows the VNI→tenant mapping.
type FlowRecord struct {
	Host   string
	Tenant string
	Net    string

	VNI          uint32
	Src, Dst     ether.MAC
	SrcIP, DstIP netsim.IP
	// Proto is the IPv4 protocol number for IP frames (1=ICMP, 6=TCP,
	// 17=UDP) and the EtherType for everything else (values ≥ 0x0600
	// never collide with protocol numbers).
	Proto uint16

	Bytes, Frames uint64
	Drops         [FlowDropReasons]uint64

	First, Last sim.Time
}

// DropTotal sums the record's drops across reasons.
func (r *FlowRecord) DropTotal() uint64 {
	var n uint64
	for _, d := range r.Drops {
		n += d
	}
	return n
}

// Key renders the flow's identity as a stable string — the top-K
// sketch's key and the flow log's human-readable handle.
func (r *FlowRecord) Key() string {
	return fmt.Sprintf("vni%d %s>%s %s>%s proto%d",
		r.VNI, r.Src, r.Dst, r.SrcIP, r.DstIP, r.Proto)
}

// String renders one flow-log line.
func (r *FlowRecord) String() string {
	return fmt.Sprintf("%v..%v host=%s %s bytes=%d frames=%d drops=%d",
		r.First, r.Last, r.Host, r.Key(), r.Bytes, r.Frames, r.DropTotal())
}

// FlowLog is a bounded ring of flow records. The core's eviction sweep
// appends a record when a flow idles out of the table; scenario worlds
// share one log across every host. Nil-safe.
type FlowLog struct {
	recs  []FlowRecord
	next  int // oldest record once the ring is full
	limit int
	total uint64
}

// DefaultFlowLogLimit bounds the log when NewFlowLog is given no limit.
const DefaultFlowLogLimit = 4096

// NewFlowLog creates a flow log holding at most limit records (<=0 uses
// DefaultFlowLogLimit); the oldest records are overwritten past it.
func NewFlowLog(limit int) *FlowLog {
	if limit <= 0 {
		limit = DefaultFlowLogLimit
	}
	return &FlowLog{limit: limit}
}

// Append records one closed flow (nil-safe).
func (l *FlowLog) Append(r FlowRecord) {
	if l == nil {
		return
	}
	l.total++
	if len(l.recs) < l.limit {
		l.recs = append(l.recs, r)
		return
	}
	l.recs[l.next] = r
	l.next = (l.next + 1) % l.limit
}

// Records returns a copy of the retained records, oldest first.
func (l *FlowLog) Records() []FlowRecord {
	if l == nil {
		return nil
	}
	out := make([]FlowRecord, 0, l.Len())
	l.Each(func(r FlowRecord) { out = append(out, r) })
	return out
}

// Each calls f with every retained record, oldest first, without
// copying the log.
func (l *FlowLog) Each(f func(FlowRecord)) {
	if l == nil {
		return
	}
	for i := range l.recs {
		f(l.recs[(l.next+i)%len(l.recs)])
	}
}

// Len reports the retained record count.
func (l *FlowLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.recs)
}

// Total reports every record ever appended (including overwritten ones).
func (l *FlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// ---- top-K talkers sketch ----

// Talker is one heavy-hitter estimate.
type Talker struct {
	Key   string
	Bytes uint64
}

// Count-min sketch shape: 4 hash rows of 1024 counters bound the
// overestimate to ~N/1024 per row with 4 independent chances, which is
// plenty to rank heavy hitters when K ≪ 1024.
const (
	topkRows = 4
	topkCols = 1024 // power of two
)

// TopK tracks the heaviest flows by byte weight in bounded space: a
// count-min sketch estimates every key's total without storing keys,
// and a K-entry min-heap retains the current heavy hitters. Offer is
// O(rows + log K); Top is O(K log K). Not concurrency-safe — callers
// build sketches from a consistent scrape.
type TopK struct {
	k     int
	cm    [topkRows][topkCols]uint64
	heap  talkerHeap
	index map[string]int // key → heap position
}

// NewTopK returns a sketch retaining the k heaviest keys (k<=0 → 10).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 10
	}
	return &TopK{k: k, index: make(map[string]int, k+1)}
}

// Offer adds weight bytes under key and updates the heavy-hitter heap.
func (t *TopK) Offer(key string, bytes uint64) {
	if bytes == 0 {
		return
	}
	est := ^uint64(0)
	h := fnv64(key)
	for row := 0; row < topkRows; row++ {
		// Derive per-row hashes from one FNV pass (h, then mixes of it):
		// cheap and independent enough for heavy-hitter ranking.
		col := (h >> (row * 13)) & (topkCols - 1)
		t.cm[row][col] += bytes
		if v := t.cm[row][col]; v < est {
			est = v
		}
	}
	if pos, ok := t.index[key]; ok {
		t.heap.items[pos].Bytes = est
		heap.Fix(&t.heap, pos)
		return
	}
	if t.heap.Len() < t.k {
		heap.Push(&t.heap, Talker{Key: key, Bytes: est})
		t.reindex()
		return
	}
	if est <= t.heap.items[0].Bytes {
		return
	}
	delete(t.index, t.heap.items[0].Key)
	t.heap.items[0] = Talker{Key: key, Bytes: est}
	heap.Fix(&t.heap, 0)
	t.reindex()
}

// reindex rebuilds the key→position map after heap membership changed.
// The heap holds at most K entries, so this stays O(K).
func (t *TopK) reindex() {
	for i, it := range t.heap.items {
		t.index[it.Key] = i
	}
}

// Top returns the retained talkers, heaviest first.
func (t *TopK) Top() []Talker {
	out := append([]Talker(nil), t.heap.items...)
	// Heaviest first; ties break by key for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j-1], out[j]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Talker) bool {
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Key > b.Key
}

// Estimate reports the sketch's byte estimate for one key (an
// overestimate by construction, tight for heavy hitters).
func (t *TopK) Estimate(key string) uint64 {
	est := ^uint64(0)
	h := fnv64(key)
	for row := 0; row < topkRows; row++ {
		col := (h >> (row * 13)) & (topkCols - 1)
		if v := t.cm[row][col]; v < est {
			est = v
		}
	}
	return est
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// talkerHeap is a min-heap by estimated bytes (ties by key, so the
// eviction order is deterministic).
type talkerHeap struct{ items []Talker }

func (h *talkerHeap) Len() int           { return len(h.items) }
func (h *talkerHeap) Less(i, j int) bool { return less(h.items[i], h.items[j]) }
func (h *talkerHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *talkerHeap) Push(x any)         { h.items = append(h.items, x.(Talker)) }
func (h *talkerHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}
