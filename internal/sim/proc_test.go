package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// goroutines counts the goroutines alive once those that engines dropped
// by earlier tests left idle have been collected (see carrierPool).
func goroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && same < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestStopEndsProcsInSpawnOrder: a world with finished, parked and
// never-started procs is stopped. The parked ones unwind in the order
// they were spawned — not in the order a map yields them — the others
// end without running, and no goroutine outlives the engine.
func TestStopEndsProcsInSpawnOrder(t *testing.T) {
	before := goroutines()
	for rep := 0; rep < 20; rep++ {
		e := NewEngine(int64(rep))
		var order, want []string
		var procs []*Proc
		spawn := func(name string, body func(p *Proc)) {
			procs = append(procs, e.Spawn(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				body(p)
			}))
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprint("finished-", i)
			spawn(name, func(p *Proc) { p.Sleep(time.Millisecond) })
			want = append(want, name)
		}
		for i := 0; i < 12; i++ {
			name := fmt.Sprint("parked-", i)
			if i%2 == 0 {
				spawn(name, func(p *Proc) { p.Park() })
			} else {
				spawn(name, func(p *Proc) { p.Sleep(time.Hour) })
			}
			want = append(want, name)
		}
		e.RunFor(time.Second)
		for i := 0; i < 3; i++ {
			spawn(fmt.Sprint("never-started-", i), func(p *Proc) { t.Error("a proc started after Stop") })
		}
		e.Stop()
		if !slices.Equal(order, want) {
			t.Fatalf("rep %d: procs ended in order %v, want %v", rep, order, want)
		}
		late := e.Spawn("late", func(p *Proc) { t.Error("a proc spawned after Stop ran") })
		for _, p := range append(procs, late) {
			if !p.Dead() {
				t.Fatalf("rep %d: proc %s outlived Stop", rep, p.Name())
			}
		}
		if e.procs.next != &e.procs || e.procs.prev != &e.procs || len(e.carriers.idle) != 0 {
			t.Fatalf("rep %d: the stopped engine still lists procs or idle carriers", rep)
		}
		e.Run()
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the first engine, %d after the last Stop", before, after)
	}
}

// TestStopFromProc: the proc that calls Stop is running, not parked, so
// Stop leaves it alone; it unwinds at its next Park or Sleep.
func TestStopFromProc(t *testing.T) {
	before := goroutines()
	e := NewEngine(1)
	var order []string
	e.Spawn("waiter", func(p *Proc) {
		defer func() { order = append(order, "waiter") }()
		p.Park()
	})
	e.Spawn("stopper", func(p *Proc) {
		defer func() { order = append(order, "stopper") }()
		p.Sleep(time.Millisecond)
		e.Stop()
		order = append(order, "stopped")
		p.Sleep(time.Millisecond)
		t.Error("a proc slept on a stopped engine")
	})
	e.Run()
	if want := []string{"waiter", "stopped", "stopper"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestProcPanicReachesRun: a panic in a proc body surfaces in the caller
// of Run with its value intact — a failed assertion names its test — and
// the engine can still be stopped, unwinding the other procs.
func TestProcPanicReachesRun(t *testing.T) {
	before := goroutines()
	e := NewEngine(1)
	unwound := false
	e.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
	})
	bad := e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the body's panic value", got)
	}
	if !bad.Dead() || unwound {
		t.Fatalf("after the panic: bad proc dead %v, bystander unwound %v; want true, false", bad.Dead(), unwound)
	}
	e.Stop()
	if !unwound {
		t.Fatal("Stop after a proc panic did not unwind the other procs")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestSpawnReusesCarrier: a body that returns leaves its coroutine on
// the engine's free list and the next Spawn takes it, so in steady
// state a spawn → run → finish cycle allocates the Proc and its start
// closure and nothing else (making a coroutine costs a dozen objects).
// The free list is bounded.
func TestSpawnReusesCarrier(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	ran := 0
	body := func(p *Proc) {
		p.Sleep(time.Microsecond)
		ran++
	}
	cycle := func() {
		e.Spawn("short", body)
		e.Run()
	}
	cycle()
	if len(e.carriers.idle) != 1 {
		t.Fatalf("a finished proc left %d idle carriers, want 1", len(e.carriers.idle))
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 2 {
		t.Fatalf("spawn, run, finish allocates %.0f objects in steady state, want at most 2", allocs)
	}
	if ran != 102 || len(e.carriers.idle) != 1 {
		t.Fatalf("%d bodies ran leaving %d idle carriers, want 102 and 1", ran, len(e.carriers.idle))
	}
	for i := 0; i < 2*maxIdleCarriers; i++ {
		e.Spawn("burst", body)
	}
	e.Run()
	if len(e.carriers.idle) != maxIdleCarriers {
		t.Fatalf("a burst left %d idle carriers, want the bound %d", len(e.carriers.idle), maxIdleCarriers)
	}
}

// TestDroppedEngineEndsIdleCarriers: an engine dropped without Stop once
// its procs have finished is garbage — its idle coroutines keep nothing
// of it reachable — and collecting it ends them.
func TestDroppedEngineEndsIdleCarriers(t *testing.T) {
	before := goroutines()
	collected := make(chan struct{})
	func() {
		e := NewEngine(1)
		world := new([1 << 16]byte) // reachable from the engine's queue only
		runtime.SetFinalizer(world, func(*[1 << 16]byte) { close(collected) })
		for i := 0; i < 4; i++ {
			e.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		e.Schedule(time.Hour, func() { world[0]++ })
		e.RunFor(time.Second)
		if len(e.carriers.idle) != 4 {
			t.Fatalf("%d idle carriers, want 4", len(e.carriers.idle))
		}
	}()
	after := goroutines()
	select {
	case <-collected:
	default:
		t.Fatal("the dropped engine's events are still reachable")
	}
	if after != before {
		t.Fatalf("%d goroutines before the engine, %d after it was collected", before, after)
	}
}

// TestWaitUntil: what ends a wait, and what it leaves behind. A wait
// ends with ok false only on an interrupt; otherwise the caller reads a
// timeout as !ready(). When the condition and the deadline meet in one
// instant, in either order, the condition wins: the proc checks it on
// the wake-up, and every event of the instant armed before the deadline
// fired runs before the wake-up that deadline posts. The deadline is
// armed once — a stray wake-up re-parks without re-arming it — and
// nothing stays queued after the wait, however it ended.
func TestWaitUntil(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Proc{}) != 96 {
		t.Fatalf("Proc is %d bytes, want 96: the deadline rides wakeEv", unsafe.Sizeof(Proc{}))
	}
	const deadline = 50 * time.Millisecond
	deadlineFirst := false
	for _, tc := range []struct {
		name string
		// before runs in the waiting proc just before its wait.
		before    func(e *Engine, p *Proc, ready *bool)
		ok, ready bool
		at        Duration
	}{
		{"ready before the deadline", func(e *Engine, p *Proc, ready *bool) {
			e.Schedule(10*time.Millisecond, func() { *ready = true; p.Unpark() })
		}, true, true, 10 * time.Millisecond},
		{"deadline with ready false", func(*Engine, *Proc, *bool) {}, true, false, deadline},
		{"ready at the call", func(_ *Engine, _ *Proc, ready *bool) { *ready = true }, true, true, 0},
		{"interrupt pending before the call", func(_ *Engine, p *Proc, ready *bool) {
			*ready = true
			p.Interrupt()
		}, false, true, 0},
		{"interrupt while parked", func(e *Engine, p *Proc, _ *bool) {
			e.Schedule(10*time.Millisecond, p.Interrupt)
		}, false, false, 10 * time.Millisecond},
		{"Unpark, then the deadline, in one instant", func(e *Engine, p *Proc, ready *bool) {
			e.Schedule(deadline, func() { *ready = true; p.Unpark() }) // armed before the deadline
		}, true, true, deadline},
		{"the deadline, then Unpark, in one instant", func(e *Engine, p *Proc, ready *bool) {
			e.Schedule(10*time.Millisecond, func() {
				e.Schedule(deadline-10*time.Millisecond, func() { *ready = true; p.Unpark() }) // after it
			})
		}, true, true, deadline},
		{"stray Unpark re-parks", func(e *Engine, p *Proc, _ *bool) {
			e.Schedule(10*time.Millisecond, func() {
				// Armed after the deadline and before the stray wake-up:
				// had the re-park re-armed the deadline, it would fire
				// after this probe.
				e.Schedule(deadline-10*time.Millisecond, func() { deadlineFirst = p.wakeEv.index < 0 })
				p.Unpark()
			})
		}, true, false, deadline},
	} {
		e := NewEngine(1)
		var ok, ready, readyAtEnd bool
		var at Time
		e.Spawn("waiter", func(p *Proc) {
			tc.before(e, p, &ready)
			ok = p.WaitUntil(Time(deadline), func() bool { return ready })
			at, readyAtEnd = p.Now(), ready
			if p.Interrupted() == ok {
				t.Errorf("%s: WaitUntil returned %v with Interrupted() %v", tc.name, ok, p.Interrupted())
			}
		})
		e.Run()
		if ok != tc.ok || readyAtEnd != tc.ready || at != Time(tc.at) || e.Pending() != 0 {
			t.Errorf("%s: ok %v ready %v at %v, %d pending; want %v %v at %v, 0 pending",
				tc.name, ok, readyAtEnd, at, e.Pending(), tc.ok, tc.ready, Time(tc.at))
		}
	}
	if !deadlineFirst {
		t.Error("a stray wake-up re-armed the deadline behind a later event of its instant")
	}

	// Stop while parked unwinds the wait: defers run, nothing stays queued.
	e := NewEngine(1)
	unwound := false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.WaitUntil(Time(time.Hour), func() bool { return false })
	})
	e.RunFor(time.Second)
	e.Stop()
	if !unwound || e.Pending() != 0 {
		t.Fatalf("Stop during a wait: unwound %v with %d pending, want true and 0", unwound, e.Pending())
	}

	// A wait allocates nothing, whether the condition or the deadline
	// ends it.
	e = NewEngine(1)
	defer e.Stop()
	fired := false
	var p *Proc
	tm := NewTimer(e, func() { fired = true; p.Unpark() })
	p = e.Spawn("waiter", func(p *Proc) {
		for {
			fired = false
			tm.Reset(time.Millisecond)
			p.WaitUntil(p.Now().Add(2*time.Millisecond), func() bool { return fired })
			p.WaitUntil(p.Now().Add(time.Millisecond), func() bool { return false })
		}
	})
	e.RunFor(10 * time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { e.RunFor(2 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("a wait allocates %.1f objects", allocs/2)
	}
}
