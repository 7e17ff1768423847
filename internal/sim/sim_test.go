package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel must not panic.
	e.Cancel(ev)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(30*time.Millisecond, func() { fired = append(fired, 2) })
	e.RunUntil(Time(20 * time.Millisecond))
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want just first event", fired)
	}
	if e.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 20ms", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Microsecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(50*time.Millisecond) {
		t.Fatalf("woke at %v, want 50ms", wake)
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var a *Proc
	order := []string{}
	a = e.Spawn("a", func(p *Proc) {
		order = append(order, "a-park")
		p.Park()
		order = append(order, "a-resume")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "b-unpark")
		a.Unpark()
	})
	e.Run()
	want := []string{"a-park", "b-unpark", "a-resume"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestProcInterrupt(t *testing.T) {
	e := NewEngine(1)
	var completed, sleptFull bool
	p := e.Spawn("s", func(p *Proc) {
		sleptFull = p.Sleep(time.Hour)
		completed = true
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if !completed {
		t.Fatal("interrupted proc did not continue")
	}
	if sleptFull {
		t.Fatal("Sleep reported full sleep despite interrupt")
	}
	if e.Now() >= Time(time.Hour) {
		t.Fatalf("clock ran to %v; interrupt did not cancel wake event", e.Now())
	}
}

func TestEngineStopUnwindsProcs(t *testing.T) {
	e := NewEngine(1)
	deferred := false
	e.Spawn("p", func(p *Proc) {
		defer func() { deferred = true }()
		p.Park() // nobody will unpark
	})
	e.Schedule(time.Millisecond, func() { e.Stop() })
	e.Run()
	if !deferred {
		t.Fatal("deferred cleanup did not run on Stop")
	}
}

func TestWaitQueueSignal(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	got := []int{}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			got = append(got, i)
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Signal()
		p.Sleep(time.Millisecond)
		q.Broadcast()
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("only %d waiters woke: %v", len(got), got)
	}
	if got[0] != 0 {
		t.Fatalf("Signal woke %d, want FIFO order (0 first)", got[0])
	}
}

// TestWaitQueueInterruptBeforeSignal interrupts each waiter of a queue
// of one, two and three before any signal: it leaves, the others keep
// their order, and the queue keeps no pointer to anyone who has left.
func TestWaitQueueInterruptBeforeSignal(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for victim := 0; victim < n; victim++ {
			e := NewEngine(1)
			var q WaitQueue
			var woke []int
			procs := make([]*Proc, n)
			for i := range procs {
				i := i
				procs[i] = e.Spawn("w", func(p *Proc) {
					if q.Wait(p) {
						woke = append(woke, i)
					} else if i != victim {
						t.Errorf("%d waiters: %d was interrupted instead of %d", n, i, victim)
					}
				})
			}
			e.Run()
			procs[victim].Interrupt()
			e.Run()
			if q.Len() != n-1 || !procs[victim].Dead() {
				t.Fatalf("%d waiters, %d interrupted: %d still queued, victim dead %v", n, victim, q.Len(), procs[victim].Dead())
			}
			for i := 0; i < n; i++ { // one Signal too many must find nobody
				q.Signal()
				e.Run()
			}
			want := 0
			for _, got := range woke {
				if want == victim {
					want++
				}
				if got != want {
					t.Fatalf("%d waiters, %d interrupted: woke %v, want FIFO order without the victim", n, victim, woke)
				}
				want++
			}
			if len(woke) != n-1 || q.Len() != 0 {
				t.Fatalf("%d waiters, %d interrupted: woke %v, %d left queued", n, victim, woke, q.Len())
			}
			for _, p := range q.waiters[:cap(q.waiters)] {
				if p != nil {
					t.Fatalf("%d waiters, %d interrupted: the queue still points at a proc that left", n, victim)
				}
			}
			e.Stop()
		}
	}
}

// TestWaitQueueOneWaiterAllocatesNothing: the first waiter sits in the
// queue itself, so a queue that only ever has one — a connection's —
// never allocates.
func TestWaitQueueOneWaiterAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var q WaitQueue
	woke := 0
	e.Spawn("w", func(p *Proc) {
		for q.Wait(p) {
			woke++
		}
	})
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		q.Signal()
		q = WaitQueue{} // empty again: the next Wait finds a fresh queue
		e.Run()
	})
	if allocs != 0 || woke != 101 || q.Len() != 1 {
		t.Fatalf("wait/signal on a fresh queue: %.0f allocations, %d wake-ups, %d waiting", allocs, woke, q.Len())
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond) // supersedes
	e.RunUntil(Time(15 * time.Millisecond))
	if count != 0 {
		t.Fatal("timer fired from superseded schedule")
	}
	e.Run()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	tm.Reset(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop did not report pending timer")
	}
	e.Run()
	if count != 1 {
		t.Fatalf("stopped timer fired")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, time.Second, func() { n++ })
	e.RunUntil(Time(5500 * time.Millisecond))
	tk.Stop()
	e.Run()
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var log []Time
		for i := 0; i < 20; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					log = append(log, p.Now())
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysMS []uint8) bool {
		e := NewEngine(7)
		var last Time = -1
		ok := true
		var max Duration
		for _, ms := range delaysMS {
			d := time.Duration(ms) * time.Millisecond
			if d > max {
				max = d
			}
			e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		if len(delaysMS) > 0 && e.Now() != Time(max) {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(0, fn)
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// relay re-posts itself to its lane from its own handler.
type relay struct {
	lane *Lane
	left int
}

func (r *relay) HandleEvent(any) {
	if r.left--; r.left > 0 {
		r.lane.Post(r, nil)
	}
}

// BenchmarkLaneEvents is BenchmarkEngineEvents for fixed-delay events:
// eight chains on two lanes over a heap that holds a timer per chain.
func BenchmarkLaneEvents(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		NewTimer(e, func() {}).Reset(time.Hour)
		r := &relay{lane: e.Lane(Duration(10+5*(i%2)) * time.Microsecond), left: b.N/8 + 1}
		r.lane.Post(r, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
