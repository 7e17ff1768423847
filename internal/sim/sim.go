// Package sim implements the discrete-event simulation (DES) engine that
// every WAVNet substrate runs on.
//
// The engine maintains a virtual clock and dispatches events in (time,
// sequence) order. Events are plain callbacks; a coroutine layer (Proc)
// lets higher-level code — TCP sockets, MPI ranks, benchmark drivers —
// be written in a blocking style while the whole simulation remains
// single-threaded and bit-for-bit deterministic for a given seed.
//
// An event waits in one of three places. A lane (Engine.Lane) is a FIFO
// ring of handle-less events that all carry one delay: the clock never
// runs backwards and the delay is fixed when the lane is made, so each
// post is due no earlier than the one before it and has a larger
// sequence number — the ring is sorted by (time, sequence) by
// construction, posting appends and dispatch takes the head. Lanes go to
// the objects whose delay is a constant of the model: a Bridge (its
// forwarding latency), a Pipe (its latency), a core.Host (the Packet
// Assembler's PacketCost, both ways) and the engine (the 0 s wake-ups
// of Unpark and Interrupt). The heap, a 4-ary min-heap, holds whatever
// has a computed due time (link completions, jittered WAN latency,
// timers, sleeps) or can be cancelled. The time-end flushers (AtTimeEnd)
// run when neither holds anything more for the current instant.
// Dispatch takes the least of the heap's top and the lanes' heads;
// sequence numbers are unique and handed out in arming order wherever
// the event waits, so the order is total and is the one a single heap
// holding every event would give.
//
// Only one piece of simulation code runs at a time: a Proc's body runs
// on a coroutine (iter.Pull) that the engine resumes and that hands
// control back when it parks or returns. A coroutine is dear to make,
// so it is a carrier that outlives its proc: made by the first
// activation that finds the engine's free list empty, it runs the body;
// when the body returns it waits on the bounded list for the next
// Spawn; Engine.Stop ends it. Package iter needs a go1.23 toolchain but
// go.mod says go 1.21: benchmark/go.mod has to name the same version
// and is frozen, so proc.go carries a go1.23 build constraint instead.
//
// Every package built on the engine relies on that: everything in a
// world — the engine and every table, counter, registry and trace hung
// off it — is touched by one goroutine at a time, the caller of Run,
// RunFor, RunUntil or Step, or a proc it resumes. Nothing under
// internal/ starts a goroutine, takes a lock or uses an atomic
// (TestSingleGoroutine at the repository root holds it to that).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// Event is a scheduled call of a Handler. The zero value is invalid;
// events are created by Engine.Schedule and friends, or sit inside a
// Timer. An Event returned by At or Schedule is a handle: it is freshly
// allocated and never recycled, so it stays valid to Cancel for as long
// as the caller keeps it. Its due time lives in the heap entry alone,
// which keeps the handle at three words.
type Event struct {
	h     Handler
	index int // position in the queue, -1 when not queued
}

// funcHandler is a plain callback as a Handler. A func value is one
// pointer, so the conversion allocates nothing.
type funcHandler func()

func (f funcHandler) HandleEvent(any) { f() }

// key is an event's place in the dispatch order. Sequence numbers are
// unique, so the order is total.
type key struct {
	at  Time
	seq uint64
}

func (a key) before(b key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// entry is one event in the heap. The ordering key rides inline, so
// sifting compares entries without touching the events they point at.
type entry struct {
	key
	ev *Event
}

// queue is a 4-ary min-heap of entries on their keys: half the depth of
// a binary heap and four children in adjacent cache lines. The order is
// total, so the pop order does not depend on the heap's shape. Every
// placement goes through set, which keeps Event.index current.
type queue []entry

func (q queue) set(i int, x entry) {
	q[i] = x
	x.ev.index = i
}

// up places x at hole i or above it.
func (q queue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p].key) {
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
			if kids[j].before(least.key) {
				m, least = j, kids[j]
			}
		}
		if !least.before(x.key) {
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
	if i > 0 && x.before(q[(i-1)/4].key) {
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

// Handler receives an event. Long-lived objects — bridge ports,
// in-flight packets, procs, connections — implement it so that
// scheduling work for them captures no closure: through a pointer
// receiver for an in-place Timer (arg is nil), with an argument for a
// handle-less event (see Lane.Post and Engine.PostAt).
type Handler interface {
	HandleEvent(arg any)
}

// Lane is a FIFO of handle-less events that all wait the same delay,
// handed out by Engine.Lane to an object whose delay is a constant: no
// heap, no event object, same dispatch order (see the package comment).
type Lane struct {
	eng  *Engine
	d    Duration
	fifo bool        // false: one lane too many, Post goes to the heap
	ring []laneEvent // power-of-two length, grown on demand
	head int
	n    int
}

type laneEvent struct {
	key
	h   Handler
	arg any
}

const (
	// maxLanes bounds the lane heads a dispatch compares; a world with
	// more distinct constant delays keeps the rest on the heap.
	maxLanes    = 8
	minLaneRing = 16 // a ring's first size (768 B)
)

// Lane returns the engine's lane for delay d (clamped to zero); lanes
// are shared by delay value.
func (e *Engine) Lane(d Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for i := range e.lanes[:e.nlanes] {
		if e.lanes[i].d == d {
			return &e.lanes[i]
		}
	}
	if e.nlanes == maxLanes {
		return &Lane{eng: e, d: d}
	}
	l := &e.lanes[e.nlanes]
	e.nlanes++
	*l = Lane{eng: e, d: d, fifo: true}
	return l
}

// Post queues h.HandleEvent(arg) to run after the lane's delay. The
// event has no handle and cannot be cancelled; posting allocates nothing
// once the ring has reached the lane's high-water mark (a pointer-shaped
// arg is not boxed) and consumes one sequence number, as Schedule would.
func (l *Lane) Post(h Handler, arg any) {
	e := l.eng
	at := e.now.Add(l.d)
	if !l.fifo {
		e.PostAt(at, h, arg)
		return
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	e.seq++
	x := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	x.at, x.seq, x.h, x.arg = at, e.seq, h, arg
	l.n++
	e.laned++
}

func (l *Lane) grow() {
	ring := make([]laneEvent, max(minLaneRing, 2*len(l.ring)))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// Engine is a discrete-event simulator. Create one with NewEngine; it,
// and everything built on it, is touched by one goroutine at a time (see
// the package comment).
type Engine struct {
	now     Time
	queue   queue
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// lanes[:nlanes] are the fixed-delay FIFOs beside the heap; laned
	// counts the events waiting in them, so that dispatch looks at them
	// only when there is one.
	lanes  [maxLanes]Lane
	nlanes int
	laned  int
	wake   *Lane // the 0 s lane Unpark and Interrupt post to

	// current proc executing, if any (used by the coroutine layer).
	current *Proc
	// procs heads the ring of live procs, in spawn order, for shutdown.
	procs    Proc
	carriers *carrierPool // coroutines between procs (see carrier)

	// flushers run once after the last event of the current virtual
	// timestamp, before the clock advances (see AtTimeEnd).
	flushers []func()

	// freePosts is the LIFO free list of handle-less heap events (see
	// PostAt).
	freePosts []*post

	dispatched uint64
	fresh      uint64
}

// post is a handle-less event on the heap: the receiver and its
// argument ride in the event itself, nobody outside the engine ever sees
// it, and so it goes back to the engine's free list the moment it is
// dispatched. The embedded Event's handler is the post itself, bound
// once, when the post is first allocated, and survives every reuse.
type post struct {
	Event
	eng *Engine
	h   Handler
	arg any
}

// maxFreePosts bounds the free list: a drained engine keeps at most
// this many idle events (8 KB).
const maxFreePosts = 128

func (p *post) HandleEvent(any) {
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
	e := &Engine{rng: rand.New(rand.NewSource(seed)), carriers: &carrierPool{}}
	runtime.SetFinalizer(e.carriers, (*carrierPool).drain)
	e.procs.prev, e.procs.next = &e.procs, &e.procs
	e.wake = e.Lane(0)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (events or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Dispatched reports how many events have been executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending reports how many events are queued, in the heap or in a lane.
func (e *Engine) Pending() int { return len(e.queue) + e.laned }

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
	ev := &Event{h: funcHandler(fn), index: -1}
	e.arm(ev, t)
	return ev
}

// PostAt queues h.HandleEvent(arg) to run at absolute time t (clamped
// to now) without returning a handle: the event cannot be cancelled and
// is recycled after dispatch, so steady-state posting allocates nothing.
// It is for due times that are computed; a constant delay posts to its
// Lane. PostAt takes its place in the (time, sequence) order exactly as
// At would.
func (e *Engine) PostAt(t Time, h Handler, arg any) {
	var p *post
	if n := len(e.freePosts); n > 0 {
		p = e.freePosts[n-1]
		e.freePosts[n-1] = nil
		e.freePosts = e.freePosts[:n-1]
	} else {
		e.fresh++
		p = &post{eng: e}
		p.Event = Event{h: p, index: -1}
	}
	p.h, p.arg = h, arg
	e.arm(&p.Event, t)
}

// Retained reports the bytes the engine keeps for handle-less events
// while none is queued: its free list of heap events and the lane rings.
func (e *Engine) Retained() int {
	n := len(e.freePosts) * int(unsafe.Sizeof(post{}))
	for i := range e.lanes[:e.nlanes] {
		n += len(e.lanes[i].ring) * int(unsafe.Sizeof(laneEvent{}))
	}
	return n
}

// FreshEvents reports how many events the engine has allocated: one per
// At or Schedule, and one per PostAt that found the free list empty (a
// Lane.Post allocates none). For a given seed the count repeats exactly.
func (e *Engine) FreshEvents() uint64 { return e.fresh }

// arm (re)queues an event for time t (clamped to now), consuming one
// sequence number. An event still queued is moved in place.
func (e *Engine) arm(ev *Event, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	x := entry{key{t, e.seq}, ev}
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

// firstLane returns the lane whose head is the least, nil when every
// lane is empty — which costs one comparison to find out.
func (e *Engine) firstLane() *Lane {
	if e.laned == 0 {
		return nil
	}
	var first *Lane
	for i := range e.lanes[:e.nlanes] {
		if l := &e.lanes[i]; l.n > 0 && (first == nil || l.ring[l.head].before(first.ring[first.head].key)) {
			first = l
		}
	}
	return first
}

// forever is a dispatch limit no event lies beyond.
const forever = Time(math.MaxInt64)

// dispatch executes the single next event — the least of the heap's top
// and the lanes' heads — if it is due at or before limit. It is the one
// dispatch loop body behind Step, Run and RunUntil.
func (e *Engine) dispatch(limit Time) bool {
	if e.stopped {
		return false
	}
	l := e.firstLane()
	switch {
	case l != nil && (len(e.queue) == 0 || l.ring[l.head].before(e.queue[0].key)):
		x := &l.ring[l.head]
		if x.at > limit {
			return false
		}
		h, arg := x.h, x.arg
		x.h, x.arg = nil, nil
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		e.laned--
		e.now = max(e.now, x.at)
		e.dispatched++
		h.HandleEvent(arg)
	case len(e.queue) > 0 && e.queue[0].at <= limit:
		top := e.queue[0]
		e.queue.remove(0)
		e.now = max(e.now, top.at)
		e.dispatched++
		top.ev.h.HandleEvent(nil)
	default:
		return false
	}
	if len(e.flushers) > 0 {
		e.runTimeEndFlushers()
	}
	return true
}

// Step executes the single next event. It reports false when nothing is
// queued or the engine has been stopped.
func (e *Engine) Step() bool { return e.dispatch(forever) }

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
// event remains at the current timestamp, in the heap or in a lane. A
// cancelled event has already left the queue, so a dead same-instant
// head cannot defer the flush past the timestamp boundary.
func (e *Engine) runTimeEndFlushers() {
	if l := e.firstLane(); len(e.queue) > 0 && e.queue[0].at <= e.now || l != nil && l.ring[l.head].at <= e.now {
		return // more events still due at this instant
	}
	for i := 0; i < len(e.flushers); i++ {
		fn := e.flushers[i]
		e.flushers[i] = nil
		fn()
	}
	e.flushers = e.flushers[:0]
}

// Run executes events until none is queued or Stop is called.
func (e *Engine) Run() {
	for e.dispatch(forever) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled later remain queued.
func (e *Engine) RunUntil(t Time) {
	for e.dispatch(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for virtual duration d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts the engine: no further events run and every process that
// has not finished is ended, in spawn order — a parked one is unwound
// (its deferred functions execute), one that never started never will,
// the one calling Stop unwinds at its next Park or Sleep — and the idle
// coroutines exit, so no goroutine outlives the engine. Safe to call
// from event or process context.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	// Nothing joins the ring from here on (see Spawn), and ending p
	// takes only p off it.
	for p := e.procs.next; p != &e.procs; {
		next := p.next
		if p.c == nil {
			p.finish()
		} else if p.parked {
			p.c.stop()
		}
		p = next
	}
	e.carriers.drain()
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
