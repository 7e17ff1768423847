package netsim

import (
	"wavnet/internal/sim"
)

// DefaultQueueBytes is the default drop-tail queue capacity of a link, a
// typical home-router buffer.
const DefaultQueueBytes = 256 << 10

// Link is a unidirectional rate-limited, drop-tail-queued pipe: the model
// of one direction of an access link (or a `tc` token bucket in the
// paper's emulated WAN). A zero RateBps means infinite bandwidth.
type Link struct {
	eng        *sim.Engine
	RateBps    float64
	Delay      sim.Duration
	QueueBytes int

	busyUntil sim.Time

	// Stats.
	SentPackets uint64
	SentBytes   uint64
	Dropped     uint64
}

// NewLink creates a link. rateBps <= 0 means unlimited; queueBytes <= 0
// selects DefaultQueueBytes.
func NewLink(eng *sim.Engine, rateBps float64, delay sim.Duration, queueBytes int) *Link {
	if queueBytes <= 0 {
		queueBytes = DefaultQueueBytes
	}
	return &Link{eng: eng, RateBps: rateBps, Delay: delay, QueueBytes: queueBytes}
}

// Backlog reports the bytes currently queued for transmission.
func (l *Link) Backlog() int {
	now := l.eng.Now()
	if l.busyUntil <= now || l.RateBps <= 0 {
		return 0
	}
	return int(l.busyUntil.Sub(now).Seconds() * l.RateBps / 8)
}

// Post serializes size bytes through the link and delivers
// h.HandleEvent(arg) when the last bit (plus the link's fixed delay)
// arrives at the far end. It reports false — and delivers nothing —
// when the drop-tail queue is full.
func (l *Link) Post(size int, h sim.Handler, arg any) bool {
	now := l.eng.Now()
	if l.RateBps <= 0 {
		l.SentPackets++
		l.SentBytes += uint64(size)
		l.eng.PostAt(now.Add(l.Delay), h, arg)
		return true
	}
	// Drop-tail: refuse new packets once the backlog exceeds the queue
	// capacity (the packet in service is part of the backlog, so a queue
	// always admits at least one packet beyond its capacity).
	if l.Backlog() > l.QueueBytes {
		l.Dropped++
		return false
	}
	if l.busyUntil < now {
		l.busyUntil = now
	}
	tx := sim.Duration(float64(size*8) / l.RateBps * 1e9)
	l.busyUntil = l.busyUntil.Add(tx)
	l.SentPackets++
	l.SentBytes += uint64(size)
	l.eng.PostAt(l.busyUntil.Add(l.Delay), h, arg)
	return true
}
