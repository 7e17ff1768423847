//go:build go1.23

// The constraint selects nothing — this is Proc's only implementation —
// it states what package iter needs while go.mod says go 1.21 (see the
// package comment), or go vet rejects the import.

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// ErrStopped is the panic value used to unwind a parked process when the
// engine shuts down. Process bodies should not recover it; the spawn
// wrapper does.
var ErrStopped = errors.New("sim: engine stopped")

// Proc is a simulation process: a coroutine whose execution is interleaved
// with the event loop so that at most one piece of simulation code runs at
// any instant. Inside a Proc, code may call Sleep, Park, WaitUntil and the
// blocking helpers of higher-level packages (sockets, queues) as if they
// were ordinary blocking calls. Its interrupt flag can only be set: once
// Interrupt has asked the process to wind down, every wait refuses until
// the process exits, and no deadline ever sets or clears the flag.
type Proc struct {
	eng  *Engine
	name string
	body func(*Proc)
	c    *carrier // runs body, from its first activation until it returns
	// prev and next link the live procs in spawn order (Engine.procs).
	prev, next *Proc
	parked     bool
	dead       bool

	// wakeEv starts the process, ends each Sleep and is the deadline of
	// each WaitUntil; it is re-armed in place, and cancelled when an
	// interrupt cuts a sleep short or a wait ends before its deadline.
	wakeEv Event

	// interrupted is the sticky interrupt flag: set by Interrupt, it
	// makes every Park, Sleep and WaitUntil return false — without
	// blocking — until the process dies. The stickiness is what lets an
	// interrupt cross nested wait loops: a park buried three calls deep
	// returns false, and so does every park above it as the stack
	// unwinds, so no loop can swallow a stop request by re-parking.
	interrupted bool
}

// carrier is a coroutine (iter.Pull) that runs proc bodies, one after
// another: making one costs a dozen allocations and a goroutine, so a
// carrier whose body has returned waits on the engine's bounded free
// list for the next proc to start (life cycle: package comment).
type carrier struct {
	proc  *Proc                   // the body to run at the next resume
	yield func(struct{}) bool     // suspends the coroutine; false once stopped
	next  func() (struct{}, bool) // resumes it until it next suspends or ends
	stop  func()                  // resumes it with yield reporting false
}

// carrierPool is the LIFO free list of idle carriers. A suspended
// coroutine is a goroutine, which the collector never reclaims, so the
// list is an object of its own that points at nothing else of the
// engine's, and neither does an idle carrier: a world dropped without
// Stop is still garbage once its procs have finished, and the list's
// finalizer (NewEngine) then ends the coroutines it left.
type carrierPool struct{ idle []*carrier }

// maxIdleCarriers bounds the free list.
const maxIdleCarriers = 64

// drain ends every idle carrier.
func (cp *carrierPool) drain() {
	for _, c := range cp.idle {
		c.stop()
	}
	cp.idle = nil
}

func (c *carrier) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		e := c.proc.eng
		c.proc.run()
		c.proc = nil
		if e.stopped || len(e.carriers.idle) == maxIdleCarriers {
			return
		}
		e.carriers.idle = append(e.carriers.idle, c)
		// Suspended here the coroutine refers to nothing but c.
		if !yield(struct{}{}) {
			return
		}
	}
}

// carrier takes an idle coroutine off the free list, or makes one.
func (e *Engine) carrier() *carrier {
	cp := e.carriers
	if n := len(cp.idle); n > 0 {
		c := cp.idle[n-1]
		cp.idle[n-1] = nil
		cp.idle = cp.idle[:n-1]
		return c
	}
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.run)
	return c
}

// Spawn starts fn as a new process immediately (at the current virtual
// time, as a scheduled event). The name is used in diagnostics only. A
// panic in fn surfaces in whoever is running the engine (Run, RunUntil,
// Step); ErrStopped is the only one the wrapper swallows. On a stopped
// engine the process is dead on arrival.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: fn, dead: e.stopped}
	p.wakeEv = Event{h: (*procResume)(p), index: -1}
	if !p.dead {
		last := e.procs.prev
		p.prev, p.next, last.next, e.procs.prev = last, &e.procs, p, p
		e.arm(&p.wakeEv, e.now)
	}
	return p
}

// run is the body's frame on its carrier.
func (p *Proc) run() {
	defer func() {
		p.finish()
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, ErrStopped) {
				panic(r) // real bug: on to whoever resumed the carrier
			}
		}
	}()
	p.body(p)
}

// finish marks the process dead and takes it off the engine's list.
func (p *Proc) finish() {
	p.prev.next, p.next.prev = p.next, p.prev
	p.prev, p.next, p.c, p.body, p.dead = nil, nil, nil, nil, true
}

// activate transfers control to the process and returns when it parks or
// finishes. Must be called from engine (event) context.
func (p *Proc) activate() {
	if p.dead {
		return
	}
	e := p.eng
	if p.c == nil {
		p.c = e.carrier()
		p.c.proc = p
	}
	prev := e.current
	e.current = p
	p.c.next()
	e.current = prev
}

// park suspends the process, returning control to the event loop. It
// resumes when some event calls activate, or — on a stopped engine —
// unwinds with ErrStopped so that deferred functions run and the
// carrier ends.
func (p *Proc) park() {
	p.parked = true
	ok := !p.eng.stopped && p.c.yield(struct{}{})
	p.parked = false
	if !ok {
		panic(ErrStopped)
	}
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for virtual duration d. It returns true if
// the sleep completed, false if an interrupt is pending — in which case
// the sleep is skipped entirely (a pending interrupt means the process
// has been asked to wind down; sleeping on would just delay it). A wait
// for a condition that gives up at a deadline is WaitUntil, not a Sleep
// raced against a wake-up.
func (p *Proc) Sleep(d Duration) bool {
	p.checkContext("Sleep")
	if p.interrupted {
		return false
	}
	p.eng.arm(&p.wakeEv, p.eng.now.Add(d))
	p.park()
	if p.interrupted {
		p.eng.Cancel(&p.wakeEv)
		return false
	}
	return true
}

// Park suspends the process until another event calls Unpark (or the
// engine stops). Returns true on a normal Unpark, false if an interrupt
// is pending (in which case a park with the flag already set returns
// immediately). The interrupt stays pending — see Interrupt.
func (p *Proc) Park() bool {
	p.checkContext("Park")
	if p.interrupted {
		return false
	}
	p.park()
	return !p.interrupted
}

// WaitUntil is the one way to wait with a deadline: it parks the process
// until ready() holds, virtual time t passes or an interrupt is pending.
// It returns false only on an interrupt; the caller tells a timeout by
// !ready(), which every wake-up checks before the deadline, so a
// condition met in the instant the deadline fires wins over it. The deadline
// is armed once and wakes the process through the 0 s lane, as Unpark
// does; a wake-up that finds neither condition nor deadline re-parks.
func (p *Proc) WaitUntil(t Time, ready func() bool) bool {
	p.checkContext("WaitUntil")
	if p.interrupted {
		return false
	}
	if ready() {
		return true
	}
	// No Sleep runs meanwhile, so the deadline rides wakeEv.
	p.wakeEv.h = (*procDeadline)(p)
	p.eng.arm(&p.wakeEv, t)
	defer p.disarm()
	for {
		p.park()
		if p.interrupted {
			return false
		}
		if ready() || p.wakeEv.index < 0 {
			return true
		}
	}
}

// disarm cancels a WaitUntil deadline that has not fired and gives
// wakeEv back to Sleep.
func (p *Proc) disarm() {
	p.eng.Cancel(&p.wakeEv)
	p.wakeEv.h = (*procResume)(p)
}

// Unpark schedules the process to resume at the current virtual time.
// It may be called from event context or from another process. Calling
// Unpark on a process that is not parked is a no-op (the signal is not
// remembered); use higher-level queues for lossless signalling.
func (p *Proc) Unpark() {
	if p.dead || !p.parked {
		return
	}
	p.eng.wake.Post((*procWake)(p), nil)
}

// procResume is Proc as the receiver of wakeEv: its start and the end
// of each Sleep.
type procResume Proc

func (pr *procResume) HandleEvent(any) { (*Proc)(pr).activate() }

// procDeadline is Proc as the receiver of wakeEv during a WaitUntil.
type procDeadline Proc

func (pd *procDeadline) HandleEvent(any) { (*Proc)(pd).Unpark() }

// procWake is Proc as the receiver of the wake-up Unpark and Interrupt
// post.
type procWake Proc

func (pw *procWake) HandleEvent(any) {
	p := (*Proc)(pw)
	if !p.dead && p.parked {
		p.activate()
	}
}

// Interrupt asks the process to wind down: the sticky interrupted flag
// is set immediately, every subsequent Park, Sleep and WaitUntil returns
// false without blocking, and a currently parked process is woken at the
// current virtual time. Nothing clears the flag — a deadline wakes a
// process without touching it — so an interrupt delivered while the
// process is parked deep inside a helper still reaches the outermost
// loop.
func (p *Proc) Interrupt() {
	if p.dead {
		return
	}
	p.interrupted = true
	if !p.parked {
		return // the flag is observed at the next wait
	}
	p.eng.wake.Post((*procWake)(p), nil)
}

// Interrupted reports whether an interrupt is pending on the process.
// Long-running loop bodies use it as a cheap cancellation check between
// blocking calls.
func (p *Proc) Interrupted() bool { return p.interrupted }

// Dead reports whether the process has finished.
func (p *Proc) Dead() bool { return p.dead }

func (p *Proc) checkContext(op string) {
	if p.eng.current != p {
		panic(fmt.Sprintf("sim: %s called on proc %q from outside its own context", op, p.name))
	}
}

// WaitQueue is a FIFO of parked processes, the building block for
// condition-style blocking (socket buffers, channels, semaphores).
// The zero value is ready to use; it must not be copied once waited on.
// The oldest waiter leaves by advancing head, and the slice starts over
// from its front whenever the queue runs empty, so a queue that is
// waited on and signalled for ever keeps the one small backing array —
// which for a queue that never has two waiters at once (a connection's,
// read by one proc) is the slot inside the queue itself.
type WaitQueue struct {
	waiters []*Proc
	head    int      // waiters[:head] have left
	inline  [1]*Proc // the first backing array
}

// Wait parks the calling process until Signal/Broadcast wakes it.
// Returns false if the wait was interrupted.
func (q *WaitQueue) Wait(p *Proc) bool {
	if q.waiters == nil {
		q.waiters = q.inline[:0]
	}
	if q.head > 0 && len(q.waiters) == cap(q.waiters) {
		// Never empty at a Signal since it filled: close the gap
		// instead of growing past it.
		n := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[n:])
		q.waiters, q.head = q.waiters[:n], 0
	}
	q.waiters = append(q.waiters, p)
	ok := p.Park()
	if !ok {
		// Remove ourselves if still queued (interrupt before signal).
		for i := q.head; i < len(q.waiters); i++ {
			if q.waiters[i] == p {
				n := i + copy(q.waiters[i:], q.waiters[i+1:])
				q.waiters[n] = nil // no stale pointer behind the last waiter
				q.waiters = q.waiters[:n]
				break
			}
		}
	}
	return ok
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	for q.head < len(q.waiters) {
		w := q.waiters[q.head]
		q.waiters[q.head] = nil
		if q.head++; q.head == len(q.waiters) {
			q.waiters, q.head = q.waiters[:0], 0
		}
		if !w.dead {
			w.Unpark()
			return
		}
	}
}

// Broadcast wakes all current waiters.
func (q *WaitQueue) Broadcast() {
	// Unpark only posts the wake-up, so nothing re-enters the queue
	// while it is walked.
	for i := q.head; i < len(q.waiters); i++ {
		w := q.waiters[i]
		q.waiters[i] = nil
		if !w.dead {
			w.Unpark()
		}
	}
	q.waiters, q.head = q.waiters[:0], 0
}
