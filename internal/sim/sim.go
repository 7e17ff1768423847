// Package sim implements the discrete-event simulation (DES) engine that
// every WAVNet substrate runs on.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, sequence). Events are plain callbacks; a coroutine layer (Proc)
// lets higher-level code — TCP sockets, MPI ranks, benchmark drivers —
// be written in a blocking style while the whole simulation remains
// single-threaded and bit-for-bit deterministic for a given seed.
//
// Only one goroutine ever executes simulation logic at a time: the engine
// hands control to a process and waits for it to park or finish before
// dispatching the next event. Determinism therefore depends only on the
// event ordering, which is total.
package sim

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for convenience so callers need not
// import both packages.
type Duration = time.Duration

// Common duration constants re-exported for callers.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Event is a scheduled callback. The zero value is invalid; events are
// created by Engine.Schedule and friends. An Event returned by At or
// Schedule is a handle: it is freshly allocated and never recycled, so
// it stays valid to Cancel for as long as the caller keeps it.
type Event struct {
	at    Time
	fn    func()
	index int // position in the queue, -1 when not queued
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// entry is one queued event. The ordering key rides inline, so sifting
// compares entries without touching the events they point at.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// queue is a 4-ary min-heap of entries on (at, seq): half the depth of a
// binary heap and four children in adjacent cache lines. Sequence
// numbers are unique, so the order is total and the pop order does not
// depend on the heap's shape. Every placement goes through set, which
// keeps Event.index current.
type queue []entry

func (q queue) set(i int, x entry) {
	q[i] = x
	x.ev.index = i
}

// up places x at hole i or above it.
func (q queue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q.set(i, q[p])
		i = p
	}
	q.set(i, x)
}

// down places x at hole i or below it.
func (q queue) down(i int, x entry) {
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		kids := q[c:min(c+4, len(q))]
		m, least := 0, kids[0]
		for j := 1; j < len(kids); j++ {
			if kids[j].before(least) {
				m, least = j, kids[j]
			}
		}
		if !least.before(x) {
			break
		}
		q.set(i, least)
		i = c + m
	}
	q.set(i, x)
}

// fix puts x, whose key may lie either way of its neighbours', in the
// place of the entry at i.
func (q queue) fix(i int, x entry) {
	if i > 0 && x.before(q[(i-1)/4]) {
		q.up(i, x)
		return
	}
	q.down(i, x)
}

func (q *queue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// remove takes the entry at i out; remove(0) is pop.
func (q *queue) remove(i int) {
	old := *q
	old[i].ev.index = -1
	n := len(old) - 1
	last := old[n]
	old[n] = entry{}
	*q = old[:n]
	if i < n {
		old[:n].fix(i, last)
	}
}

// Engine is a discrete-event simulator. Create one with NewEngine; it is
// not safe for concurrent use from multiple OS threads (the coroutine
// layer serializes everything internally).
type Engine struct {
	now     Time
	queue   queue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	running bool

	// current proc executing, if any (used by the coroutine layer).
	current *Proc
	// live procs, for shutdown.
	procs map[*Proc]struct{}

	// flushers run once after the last event of the current virtual
	// timestamp, before the clock advances (see AtTimeEnd).
	flushers []func()

	// freePosts is the LIFO free list of handle-less events (see Post).
	freePosts []*post

	dispatched uint64
	fresh      uint64
}

// Handler receives a handle-less event (see Engine.Post). Long-lived
// objects on the frame path — bridge ports, in-flight packets, procs —
// implement it so that scheduling work for them captures no closure.
type Handler interface {
	HandleEvent(arg any)
}

// post is a handle-less event: the receiver and its argument ride in
// the event itself, nobody outside the engine ever sees it, and so it
// goes back to the engine's free list the moment it is dispatched. The
// embedded Event's fn is bound to run once, when the post is first
// allocated, and survives every reuse.
type post struct {
	Event
	eng *Engine
	h   Handler
	arg any
}

// maxFreePosts bounds the free list: a drained engine keeps at most
// this many idle events (8 KB).
const maxFreePosts = 128

func (p *post) run() {
	h, arg := p.h, p.arg
	p.h, p.arg = nil, nil
	if e := p.eng; len(e.freePosts) < maxFreePosts {
		e.freePosts = append(e.freePosts, p)
	}
	h.HandleEvent(arg)
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (events or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Dispatched reports how many events have been executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay d (clamped to zero) and returns a
// handle that can be cancelled.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At queues fn to run at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) *Event {
	e.fresh++
	ev := &Event{fn: fn, index: -1}
	e.arm(ev, t)
	return ev
}

// Post queues h.HandleEvent(arg) to run after delay d (clamped to zero)
// without returning a handle: the event cannot be cancelled and is
// recycled after dispatch, so steady-state posting allocates nothing.
// A pointer-shaped arg is stored in the interface without boxing. Post
// takes its place in the (time, sequence) order exactly as Schedule
// would.
func (e *Engine) Post(d Duration, h Handler, arg any) { e.PostAt(e.now.Add(d), h, arg) }

// PostAt is Post at absolute time t (clamped to now).
func (e *Engine) PostAt(t Time, h Handler, arg any) {
	var p *post
	if n := len(e.freePosts); n > 0 {
		p = e.freePosts[n-1]
		e.freePosts[n-1] = nil
		e.freePosts = e.freePosts[:n-1]
	} else {
		e.fresh++
		p = &post{eng: e}
		p.fn, p.index = p.run, -1
	}
	p.h, p.arg = h, arg
	e.arm(&p.Event, t)
}

// Retained reports the bytes of idle handle-less events the engine's
// free list holds.
func (e *Engine) Retained() int { return len(e.freePosts) * int(unsafe.Sizeof(post{})) }

// FreshEvents reports how many events the engine has allocated: one per
// At or Schedule, and one per Post that found the free list empty. For
// a given seed the count repeats exactly.
func (e *Engine) FreshEvents() uint64 { return e.fresh }

// arm (re)queues an event for time t (clamped to now), consuming one
// sequence number. An event still queued is moved in place.
func (e *Engine) arm(ev *Event, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.at = t
	x := entry{at: t, seq: e.seq, ev: ev}
	if ev.index >= 0 {
		e.queue.fix(ev.index, x)
		return
	}
	e.queue.push(x)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil && ev.index >= 0 {
		e.queue.remove(ev.index)
	}
}

// Step executes the single next event. It reports false when the queue is
// empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0].ev
	e.queue.remove(0)
	if ev.at > e.now {
		e.now = ev.at
	}
	e.dispatched++
	ev.fn()
	if len(e.flushers) > 0 {
		e.runTimeEndFlushers()
	}
	return true
}

// AtTimeEnd registers fn to run once after the last already-queued event
// of the current virtual timestamp has executed, before the clock
// advances. It is the hook the tunnel egress batcher uses to coalesce
// every frame emitted "during this instant" into one wire packet per
// destination. Flushers run in registration order (deterministic) and
// may schedule new events — including events at the current timestamp,
// which then run after the flush. The registration is one-shot.
func (e *Engine) AtTimeEnd(fn func()) {
	e.flushers = append(e.flushers, fn)
}

// runTimeEndFlushers runs the pending AtTimeEnd hooks if no runnable
// event remains at the current timestamp. A cancelled event has already
// left the queue, so a dead same-instant head cannot defer the flush
// past the timestamp boundary.
func (e *Engine) runTimeEndFlushers() {
	if len(e.queue) > 0 && e.queue[0].at <= e.now {
		return // more events still due at this instant
	}
	for i := 0; i < len(e.flushers); i++ {
		fn := e.flushers[i]
		e.flushers[i] = nil
		fn()
	}
	e.flushers = e.flushers[:0]
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled later remain queued.
func (e *Engine) RunUntil(t Time) {
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for virtual duration d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts the engine: no further events run, and all parked processes
// are unwound (their deferred functions execute). Safe to call from event
// or process context.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	// Unwind parked procs so their goroutines exit.
	for p := range e.procs {
		if p.parked && !p.dead {
			p.unwind()
		}
	}
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
