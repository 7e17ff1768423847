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
		if i > 0 && x.before(q[(i-1)/4].key) {
			t.Fatalf("entry %d (at %v seq %d) sorts before its parent", i, x.at, x.seq)
		}
	}
}

// TestQueueAgainstSortOracle drives the engine with random schedules,
// cancels and timer re-arms — removing and fixing heads, tails and
// middles — and checks the dispatch order against a model kept in
// arming order and stably sorted by time alone: equal timestamps must
// fire in sequence order, whatever shape the heap took on the way.
//
// The second input class adds what waits outside the heap and lets the
// clock run while events are armed: posts on the 0 s, 10 µs and 15 µs
// lanes and on a lane beyond the engine's limit (which posts to the
// heap), sleeping procs, and dispatch interleaved with all of it. An
// event is always armed after, and never due before, everything
// already dispatched, so one stable sort of every arming still is the
// order.
func TestQueueAgainstSortOracle(t *testing.T) {
	type armed struct {
		id int
		at Time
	}
	for seed := int64(1); seed <= 40; seed++ {
		lanes := seed > 20
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var fired []int
		var model []armed // in arming (= sequence) order, fired ones included
		arm := func(id int, at Time) { model = append(model, armed{id, max(at, e.Now())}) }
		note := noter{&fired}
		// drop forgets the pending arming of id: its latest.
		drop := func(id int) {
			for i := len(model) - 1; i >= 0; i-- {
				if model[i].id == id {
					model = append(model[:i], model[i+1:]...)
					return
				}
			}
		}
		// Few distinct timestamps, so ties are the common case.
		when := func() Time { return Time(rng.Intn(8)) * Time(time.Millisecond) }
		nops := 10
		var posts []*Lane
		if lanes {
			// Multiples of 5 µs from now: lane and heap events tie.
			when = func() Time { return e.Now().Add(Duration(rng.Intn(8)) * 5 * time.Microsecond) }
			nops = 16
			posts = []*Lane{e.Lane(0), e.Lane(10 * time.Microsecond), e.Lane(15 * time.Microsecond)}
			for i := len(posts); i < maxLanes; i++ {
				e.Lane(time.Hour + Duration(i))
			}
			over := e.Lane(20 * time.Microsecond)
			if over.fifo || e.nlanes != maxLanes {
				t.Fatalf("lane %d of %d does not fall back to the heap", maxLanes+1, maxLanes)
			}
			posts = append(posts, over)
		}

		owner := map[*Event]int{} // cancellable event -> id
		timers := map[int]*Timer{}
		var timerIDs []int
		for id := 0; id < 400; id++ {
			id := id
			switch op := rng.Intn(nops); {
			case op < 5: // fresh handle
				at := when()
				owner[e.At(at, func() { fired = append(fired, id) })] = id
				arm(id, at)
			case op < 7: // timer
				tm := NewTimer(e, func() { fired = append(fired, id) })
				timers[id], timerIDs = tm, append(timerIDs, id)
				owner[&tm.ev] = id
				at := when()
				tm.Reset(at.Sub(e.Now()))
				arm(id, at)
			case op < 8 && len(timerIDs) > 0: // re-arm in place (or arm again): earlier, later or equal
				tid := timerIDs[rng.Intn(len(timerIDs))]
				at := when()
				before := e.seq
				if timers[tid].Active() {
					drop(tid)
				}
				timers[tid].Reset(at.Sub(e.Now()))
				if e.seq != before+1 {
					t.Fatalf("re-arm consumed %d sequence numbers, want 1", e.seq-before)
				}
				arm(tid, at)
			case op < 10: // cancel: the head, the tail or one in the middle
				if len(e.queue) == 0 {
					continue
				}
				pos := []int{0, len(e.queue) - 1, rng.Intn(len(e.queue))}[rng.Intn(3)]
				victim := e.queue[pos].ev
				vid, ok := owner[victim]
				if !ok {
					continue // a proc's wake-up or a heap post: no handle to cancel by
				}
				if tm := timers[vid]; tm != nil {
					if !tm.Stop() || tm.Stop() {
						t.Fatal("Stop of an armed timer must report true exactly once")
					}
				} else {
					e.Cancel(victim)
					e.Cancel(victim) // cancelling twice is a no-op
				}
				drop(vid)
			case op < 14: // lane post
				l := posts[rng.Intn(len(posts))]
				before := e.seq
				l.Post(note, id)
				if e.seq != before+1 {
					t.Fatalf("lane post consumed %d sequence numbers, want 1", e.seq-before)
				}
				arm(id, e.Now().Add(l.d))
			default: // a proc: its start, then three sleeps
				e.Spawn("sleeper", func(p *Proc) {
					for k := 0; ; k++ {
						fired = append(fired, id)
						if k == 3 {
							return
						}
						at := when()
						arm(id, at)
						p.Sleep(at.Sub(e.Now()))
					}
				})
				arm(id, e.Now())
			}
			for lanes && rng.Intn(3) == 0 && e.Step() {
			}
			checkQueue(t, e.queue)
			if e.Pending() != len(model)-len(fired) {
				t.Fatalf("seed %d: %d pending, model holds %d", seed, e.Pending(), len(model)-len(fired))
			}
		}
		for e.Step() {
			checkQueue(t, e.queue)
		}
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
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

// noter appends the id a handle-less event carries to the fired list.
type noter struct{ fired *[]int }

func (n noter) HandleEvent(arg any) { *n.fired = append(*n.fired, arg.(int)) }

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
	// The interrupt's wake-up waits in the 0 s lane, which needs none.
	if got := e.FreshEvents() - fresh; got != 0 {
		t.Fatalf("100 sleeps and an interrupt allocated %d events, want 0", got)
	}
}
