package sim

// Timer is a restartable one-shot timer, the building block for protocol
// retransmission and keepalive logic. The zero value is invalid; create
// with NewTimer, or Init one that is a field of its owner. A timer owns
// one embedded Event and re-arms it in place, so Reset and Stop allocate
// nothing.
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer returns a stopped timer that will run fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	t := &Timer{}
	t.Init(e, funcHandler(fn))
	return t
}

// Init makes t, in place, a stopped timer that calls h.HandleEvent(nil)
// when it fires: an owner with several timers gives each a handler type
// of its own over the one pointer, and allocates nothing for them.
func (t *Timer) Init(e *Engine, h Handler) {
	t.eng, t.ev = e, Event{h: h, index: -1}
}

// Reset (re)arms the timer to fire after d. Any previously pending firing
// is cancelled.
func (t *Timer) Reset(d Duration) { t.eng.arm(&t.ev, t.eng.now.Add(d)) }

// Stop cancels a pending firing, if any. It reports whether a firing was
// pending.
func (t *Timer) Stop() bool {
	if t.ev.index < 0 {
		return false
	}
	t.eng.Cancel(&t.ev)
	return true
}

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.ev.index >= 0 }

// Ticker invokes fn every period until stopped. Create with NewTicker.
// Like Timer it re-arms one embedded Event in place.
type Ticker struct {
	eng    *Engine
	period Duration
	fn     func()
	ev     Event
	stop   bool
}

// NewTicker starts a ticker whose first tick is one period from now.
func NewTicker(e *Engine, period Duration, fn func()) *Ticker {
	t := &Ticker{eng: e, period: period, fn: fn}
	t.ev = Event{h: funcHandler(t.tick), index: -1}
	t.schedule()
	return t
}

func (t *Ticker) schedule() { t.eng.arm(&t.ev, t.eng.now.Add(t.period)) }

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.schedule()
	}
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	t.eng.Cancel(&t.ev)
}
