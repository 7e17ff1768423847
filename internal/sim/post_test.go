package sim

import (
	"testing"
	"time"
)

// recorder appends the argument of every event it handles.
type recorder struct{ got []any }

func (r *recorder) HandleEvent(arg any) { r.got = append(r.got, arg) }

// TestPostKeepsScheduleOrder interleaves Post and Schedule at equal
// times: a post takes its turn in (time, sequence) order exactly as the
// closure it replaces would have.
func TestPostKeepsScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	r := &recorder{}
	e.Post(time.Millisecond, r, 1)
	e.Schedule(time.Millisecond, func() { r.got = append(r.got, 2) })
	e.PostAt(Time(time.Millisecond), r, 3)
	e.Post(0, r, 0)
	e.Post(-time.Second, r, "clamped")
	e.Run()
	want := []any{0, "clamped", 1, 2, 3}
	if len(r.got) != len(want) {
		t.Fatalf("handled %v, want %v", r.got, want)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("handled %v, want %v", r.got, want)
		}
	}
	if e.Dispatched() != 5 {
		t.Fatalf("dispatched %d events, want 5", e.Dispatched())
	}
}

// chain re-posts itself from inside its own handler.
type chain struct {
	e    *Engine
	left int
}

func (c *chain) HandleEvent(any) {
	if c.left--; c.left > 0 {
		c.e.Post(time.Microsecond, c, nil)
	}
}

// TestPostRecyclesEvents: an event is back on the free list before its
// handler runs, so a handler that posts again reuses the very same one
// and steady-state posting allocates nothing.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEngine(1)
	c := &chain{e: e, left: 1000}
	e.Post(0, c, nil)
	e.Run()
	if len(e.freePosts) != 1 {
		t.Fatalf("a self-reposting chain used %d events, want 1", len(e.freePosts))
	}
	c.left = 1000
	allocs := testing.AllocsPerRun(1, func() {
		e.Post(0, c, nil)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state posting allocates %.0f objects per 1000 events", allocs)
	}
	// The free list is bounded: a burst leaves at most maxFreePosts idle.
	r := &recorder{}
	for i := 0; i < 2*maxFreePosts; i++ {
		e.Post(0, r, nil)
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
