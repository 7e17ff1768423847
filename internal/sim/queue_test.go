package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// checkQueue asserts the heap invariants: every entry is no earlier
// than its parent and every event knows its own position.
func checkQueue(t *testing.T, q queue) {
	t.Helper()
	for i, x := range q {
		if x.ev.index != i {
			t.Fatalf("entry %d: event believes it sits at %d", i, x.ev.index)
		}
		if i > 0 && x.before(q[(i-1)/4]) {
			t.Fatalf("entry %d (at %v seq %d) sorts before its parent", i, x.at, x.seq)
		}
	}
}

// TestQueueAgainstSortOracle drives the engine with random schedules,
// cancels and timer re-arms — removing and fixing heads, tails and
// middles — and checks the dispatch order against a model kept in
// arming order and stably sorted by time alone: equal timestamps must
// fire in sequence order, whatever shape the heap took on the way.
func TestQueueAgainstSortOracle(t *testing.T) {
	type armed struct {
		id int
		at Time
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var fired []int
		var model []armed // in arming (= sequence) order
		drop := func(id int) {
			for i, m := range model {
				if m.id == id {
					model = append(model[:i], model[i+1:]...)
					return
				}
			}
		}
		// Few distinct timestamps, so ties are the common case.
		when := func() Time { return Time(rng.Intn(8)) * Time(time.Millisecond) }

		owner := map[*Event]int{} // queued event -> id
		timers := map[int]*Timer{}
		var timerIDs []int
		for id := 0; id < 400; id++ {
			id := id
			switch op := rng.Intn(10); {
			case op < 5: // fresh handle
				at := when()
				owner[e.At(at, func() { fired = append(fired, id) })] = id
				model = append(model, armed{id, at})
			case op < 7: // timer
				tm := NewTimer(e, func() { fired = append(fired, id) })
				timers[id], timerIDs = tm, append(timerIDs, id)
				owner[&tm.ev] = id
				at := when()
				tm.Reset(Duration(at))
				model = append(model, armed{id, at})
			case op < 8 && len(timerIDs) > 0: // re-arm in place (or arm again): earlier, later or equal
				tid := timerIDs[rng.Intn(len(timerIDs))]
				at := when()
				before := e.seq
				timers[tid].Reset(Duration(at))
				if e.seq != before+1 {
					t.Fatalf("re-arm consumed %d sequence numbers, want 1", e.seq-before)
				}
				drop(tid)
				model = append(model, armed{tid, at})
			default: // cancel: the head, the tail or one in the middle
				if len(e.queue) == 0 {
					continue
				}
				pos := []int{0, len(e.queue) - 1, rng.Intn(len(e.queue))}[rng.Intn(3)]
				victim := e.queue[pos].ev
				vid := owner[victim]
				if tm := timers[vid]; tm != nil {
					if !tm.Stop() || tm.Stop() {
						t.Fatal("Stop of an armed timer must report true exactly once")
					}
				} else {
					e.Cancel(victim)
					e.Cancel(victim) // cancelling twice is a no-op
				}
				drop(vid)
			}
			checkQueue(t, e.queue)
			if len(e.queue) != len(model) {
				t.Fatalf("seed %d: %d queued, model holds %d", seed, len(e.queue), len(model))
			}
		}
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
		for e.Step() {
			checkQueue(t, e.queue)
		}
		if len(fired) != len(model) {
			t.Fatalf("seed %d: fired %d events, model expects %d", seed, len(fired), len(model))
		}
		for i, m := range model {
			if fired[i] != m.id {
				t.Fatalf("seed %d: event %d fired in place %d, oracle expects %d", seed, fired[i], i, m.id)
			}
		}
	}
}

// TestSleepRearmsOneEvent: a process sleeps on one embedded event — no
// allocation per Sleep, one sequence number each, and an interrupted
// sleep leaves nothing queued behind it.
func TestSleepRearmsOneEvent(t *testing.T) {
	e := NewEngine(1)
	var p *Proc
	done := false
	p = e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			before := e.seq
			p.Sleep(time.Millisecond)
			if e.seq != before+1 {
				t.Errorf("Sleep consumed %d sequence numbers, want 1", e.seq-before)
			}
		}
		if p.Sleep(time.Hour) {
			t.Error("interrupted Sleep reported completion")
		}
		done = true
	})
	fresh := e.FreshEvents()
	e.RunFor(time.Second)
	p.Interrupt()
	e.Run()
	if !done || e.Pending() != 0 {
		t.Fatalf("done %v with %d events pending, want true and 0", done, e.Pending())
	}
	// The interrupt's wake-up is the one handle-less event it needed.
	if got := e.FreshEvents() - fresh; got != 1 {
		t.Fatalf("100 sleeps and an interrupt allocated %d events, want 1", got)
	}
}
