package rendezvous

import "wavnet/internal/sim"

// aged is a keyed table whose entries also sit in a list ordered by
// lastSeen, oldest first. lastSeen only ever moves to the current time,
// so moving a touched entry to the tail keeps the list sorted: whatever
// has expired is at the head, expiry visits nothing else, and a walk
// from the head is in the same order on every run where Go's map order
// is not. The zero value is an empty table.
type aged[K comparable, V any] struct {
	byKey      map[K]*entry[K, V]
	head, tail *entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	rec        V
	lastSeen   sim.Time
	prev, next *entry[K, V]
}

// get returns the entry stored under k, nil when there is none.
func (t *aged[K, V]) get(k K) *entry[K, V] { return t.byKey[k] }

func (t *aged[K, V]) len() int { return len(t.byKey) }

// put stores rec under k as seen now — a new entry, or the existing one
// overwritten — at the tail either way.
func (t *aged[K, V]) put(k K, rec V, now sim.Time) {
	e := t.byKey[k]
	if e == nil {
		if t.byKey == nil {
			t.byKey = make(map[K]*entry[K, V])
		}
		e = &entry[K, V]{key: k}
		t.byKey[k] = e
	} else {
		t.unlink(e)
	}
	e.rec = rec
	t.pushBack(e, now)
}

// touch marks e as seen now.
func (t *aged[K, V]) touch(e *entry[K, V], now sim.Time) {
	t.unlink(e)
	t.pushBack(e, now)
}

// drop removes e from the table. e.next stays valid, so a walk may drop
// the entry it stands on.
func (t *aged[K, V]) drop(e *entry[K, V]) {
	t.unlink(e)
	delete(t.byKey, e.key)
}

func (t *aged[K, V]) pushBack(e *entry[K, V], now sim.Time) {
	e.lastSeen = now
	e.prev, e.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
}

func (t *aged[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
}
