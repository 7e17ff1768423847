package sim

import (
	"testing"
	"time"
)

// recorder appends the argument of every event it handles.
type recorder struct{ got []any }

func (r *recorder) HandleEvent(arg any) { r.got = append(r.got, arg) }

// TestPostKeepsScheduleOrder interleaves lane posts, PostAt and Schedule
// at equal times: a handle-less event takes its turn in (time, sequence)
// order exactly as the closure it replaces would have, whichever of the
// lanes or the heap it waits in.
func TestPostKeepsScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	r := &recorder{}
	ms := e.Lane(time.Millisecond)
	if e.Lane(time.Millisecond) != ms || e.Lane(-time.Second) != e.Lane(0) {
		t.Fatal("lanes are shared by delay value, a negative delay clamped to zero")
	}
	ms.Post(r, 1)
	e.Schedule(time.Millisecond, func() { r.got = append(r.got, 2) })
	e.PostAt(Time(time.Millisecond), r, 3)
	ms.Post(r, 4)
	e.Lane(0).Post(r, 0)
	e.PostAt(-5, r, "clamped")
	if e.Pending() != 6 {
		t.Fatalf("%d events pending, want 6", e.Pending())
	}
	e.Run()
	want := []any{0, "clamped", 1, 2, 3, 4}
	if len(r.got) != len(want) {
		t.Fatalf("handled %v, want %v", r.got, want)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("handled %v, want %v", r.got, want)
		}
	}
	if e.Dispatched() != 6 || e.Pending() != 0 {
		t.Fatalf("dispatched %d events with %d pending, want 6 and 0", e.Dispatched(), e.Pending())
	}
}

// chain re-posts itself from inside its own handler: to its lane, or to
// the heap when it has none.
type chain struct {
	e    *Engine
	lane *Lane
	left int
}

func (c *chain) post() {
	if c.lane != nil {
		c.lane.Post(c, nil)
		return
	}
	c.e.PostAt(c.e.Now().Add(time.Microsecond), c, nil)
}

func (c *chain) HandleEvent(any) {
	if c.left--; c.left > 0 {
		c.post()
	}
}

// TestPostRecyclesEvents: a heap post is back on the free list before
// its handler runs, so a handler that posts again reuses the very same
// one; a lane post needs no event at all. Either way steady-state
// posting allocates nothing.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEngine(1)
	for _, c := range []*chain{{e: e}, {e: e, lane: e.Lane(time.Microsecond)}} {
		fresh, want := e.FreshEvents(), uint64(1)
		if c.lane != nil {
			want = 0
		}
		c.left = 1000
		c.post()
		e.Run()
		if got := e.FreshEvents() - fresh; got != want || len(e.freePosts) != 1 {
			t.Fatalf("a self-reposting chain (lane %v) allocated %d events, want %d; free list holds %d, want 1",
				c.lane != nil, got, want, len(e.freePosts))
		}
		c.left = 1000
		allocs := testing.AllocsPerRun(1, func() {
			c.post()
			e.Run()
		})
		if allocs != 0 {
			t.Fatalf("steady-state posting (lane %v) allocates %.0f objects per 1000 events", c.lane != nil, allocs)
		}
	}
	if n := len(e.Lane(time.Microsecond).ring); n != minLaneRing {
		t.Fatalf("a lane that never held two events grew its ring to %d", n)
	}
	// The free list is bounded: a burst leaves at most maxFreePosts idle.
	r := &recorder{}
	for i := 0; i < 2*maxFreePosts; i++ {
		e.PostAt(e.Now(), r, nil)
	}
	e.Run()
	if len(e.freePosts) != maxFreePosts {
		t.Fatalf("free list holds %d events, want %d", len(e.freePosts), maxFreePosts)
	}
}

// TestTimerRearmsInPlace: Reset of a pending timer moves its one event
// (no allocation), consumes a sequence number like the cancel-and-
// schedule it replaces — so same-instant order is unchanged — and a
// timer may re-arm itself from its own callback.
func TestTimerRearmsInPlace(t *testing.T) {
	e := NewEngine(1)
	var order []string
	a := NewTimer(e, func() { order = append(order, "a") })
	b := NewTimer(e, func() { order = append(order, "b") })
	a.Reset(time.Millisecond)
	b.Reset(time.Millisecond)
	a.Reset(time.Millisecond) // re-armed after b: now fires after b
	if e.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", e.Pending())
	}
	e.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("fired %v, want [b a]", order)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Reset(time.Second); a.Stop() }); allocs != 0 {
		t.Fatalf("Reset+Stop allocates %.0f objects", allocs)
	}
	n := 0
	var self *Timer
	self = NewTimer(e, func() {
		if self.Active() {
			t.Error("timer reads as armed inside its own callback")
		}
		if n++; n < 3 {
			self.Reset(time.Millisecond)
		}
	})
	self.Reset(0)
	e.Run()
	if n != 3 || self.Active() {
		t.Fatalf("self-re-arming timer fired %d times (active %v), want 3", n, self.Active())
	}
}

// twoTimers owns its timers as fields; each fires through a handler type
// of its own over the one pointer.
type twoTimers struct {
	a, b  Timer
	fired []string
}

type (
	fireA twoTimers
	fireB twoTimers
)

func (o *fireA) HandleEvent(any) { o.fired = append(o.fired, "a") }
func (o *fireB) HandleEvent(any) { o.fired = append(o.fired, "b") }

// TestTimerInitInPlace: timers that are fields of their owner cost no
// allocation to set up, arm or fire, and dispatch in arming order like
// any other.
func TestTimerInitInPlace(t *testing.T) {
	e := NewEngine(1)
	o := &twoTimers{fired: make([]string, 0, 2)}
	allocs := testing.AllocsPerRun(100, func() {
		o.fired = o.fired[:0]
		o.a.Init(e, (*fireA)(o))
		o.b.Init(e, (*fireB)(o))
		o.b.Reset(time.Millisecond)
		o.a.Reset(time.Millisecond)
		e.Run()
	})
	if allocs != 0 || len(o.fired) != 2 || o.fired[0] != "b" || o.fired[1] != "a" || o.a.Active() || o.b.Active() {
		t.Fatalf("in-place timers: %.0f allocations, fired %v, want none and [b a]", allocs, o.fired)
	}
}
