package sim

import (
	"slices"
	"testing"
	"time"
)

// The sticky-interrupt contract: Interrupt marks the proc, and every
// Park, Sleep and WaitUntil — current or future — returns false for the
// rest of its life, so a stop request propagates out of arbitrarily
// nested wait loops.

func TestInterruptStickyBeforePark(t *testing.T) {
	e := NewEngine(1)
	var slept bool
	sawFlag := false
	p := e.Spawn("s", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // let the interrupter run first
		sawFlag = p.Interrupted()
		slept = p.Sleep(time.Hour)
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(5 * time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if !sawFlag {
		t.Fatal("Interrupted() false after Interrupt on a running proc")
	}
	if slept {
		t.Fatal("Sleep succeeded with a pending interrupt")
	}
	if e.Now() >= Time(time.Hour) {
		t.Fatalf("pre-park check did not fire: clock ran to %v", e.Now())
	}
}

func TestInterruptPropagatesAcrossWaits(t *testing.T) {
	e := NewEngine(1)
	falses := 0
	p := e.Spawn("s", func(p *Proc) {
		// Every wait after the interrupt must refuse, not just the one
		// that was live when it landed.
		for i := 0; i < 3; i++ {
			if !p.Sleep(time.Minute) {
				falses++
			}
			if !p.WaitUntil(p.Now().Add(time.Minute), func() bool { return false }) {
				falses++
			}
		}
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if falses != 6 {
		t.Fatalf("%d of 6 waits refused, want all (sticky flag lost)", falses)
	}
	if e.Now() > Time(2*time.Minute) {
		t.Fatalf("later waits parked anyway: clock at %v", e.Now())
	}
}

// AtTimeEnd flushers run after the last runnable event of the current
// timestamp and before the clock advances — the egress batcher's hook.

func TestAtTimeEndRunsAfterInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	at := time.Millisecond
	e.Schedule(at, func() {
		order = append(order, "ev1")
		e.AtTimeEnd(func() { order = append(order, "flush@"+e.Now().String()) })
	})
	e.Schedule(at, func() { order = append(order, "ev2") })
	e.Schedule(2*at, func() { order = append(order, "later") })
	e.Run()
	want := []string{"ev1", "ev2", "flush@" + Time(at).String(), "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAtTimeEndIgnoresCancelledHead(t *testing.T) {
	e := NewEngine(1)
	var flushedAt Time
	var ev *Event
	e.Schedule(time.Millisecond, func() {
		e.AtTimeEnd(func() { flushedAt = e.Now() })
		// A cancelled same-instant event must not defer the flush to a
		// later timestamp.
		e.Cancel(ev)
	})
	ev = e.Schedule(time.Millisecond, func() {})
	e.Schedule(5*time.Millisecond, func() {})
	e.Run()
	if flushedAt != Time(time.Millisecond) {
		t.Fatalf("flushed at %v, want 1ms (cancelled head deferred it)", flushedAt)
	}
}

func TestAtTimeEndFlusherSchedulesSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(time.Millisecond, func() {
		e.AtTimeEnd(func() {
			order = append(order, "flush1")
			// A flush may emit follow-on work at the same timestamp (a
			// delivered batch triggering more sends); it runs after this
			// flush, and a flusher it registers runs in a second pass.
			e.Schedule(0, func() {
				order = append(order, "followup")
				e.AtTimeEnd(func() { order = append(order, "flush2") })
			})
		})
	})
	e.Run()
	want := []string{"flush1", "followup", "flush2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("clock advanced to %v during same-instant flushing", e.Now())
	}
}

func TestAtTimeEndRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			i := i
			e.AtTimeEnd(func() { order = append(order, i) })
		}
	})
	e.Run()
	if len(order) != 4 {
		t.Fatalf("ran %d flushers, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("flushers out of registration order: %v", order)
		}
	}
}

// marker logs the name each handle-less event carries; the one named
// "reg" registers a flusher, and posts one more event of the same
// instant to the 0 s lane when it has one.
type marker struct {
	e     *Engine
	order *[]string
	zero  *Lane
}

func (m *marker) HandleEvent(arg any) {
	*m.order = append(*m.order, arg.(string))
	if arg == "reg" {
		m.e.AtTimeEnd(func() { *m.order = append(*m.order, "flush@"+m.e.Now().String()) })
		if m.zero != nil {
			m.zero.Post(m, "zero")
		}
	}
}

// TestAtTimeEndSeesLanes: "is anything else due at this instant" looks
// at the lanes' heads as well as the heap's top, wherever the flusher
// was registered from — one flush, after the instant's last event.
func TestAtTimeEndSeesLanes(t *testing.T) {
	const d = 10 * time.Microsecond
	at := Time(d).String()
	for _, tc := range []struct {
		name string
		arm  func(e *Engine, l *Lane, m *marker)
		want []string
	}{
		{"last event in a lane", func(e *Engine, l *Lane, m *marker) {
			e.PostAt(Time(d), m, "reg")
			l.Post(m, "lane")
		}, []string{"reg", "lane", "flush@" + at, "later"}},
		{"last event in the heap, flusher registered from a lane", func(e *Engine, l *Lane, m *marker) {
			l.Post(m, "reg")
			e.PostAt(Time(d), m, "heap")
		}, []string{"reg", "heap", "flush@" + at, "later"}},
		{"last event in another lane, posted during the instant", func(e *Engine, l *Lane, m *marker) {
			m.zero = e.Lane(0)
			l.Post(m, "reg")
			l.Post(m, "lane")
		}, []string{"reg", "lane", "zero", "flush@" + at, "later"}},
	} {
		e := NewEngine(1)
		var order []string
		m := &marker{e: e, order: &order}
		tc.arm(e, e.Lane(d), m)
		e.PostAt(Time(2*d), m, "later")
		e.Run()
		if !slices.Equal(order, tc.want) {
			t.Errorf("%s: order = %v, want %v", tc.name, order, tc.want)
		}
	}
}
