// Package planted holds the hand-built proc deadlines the tree test must
// find: each waits for a reply with a timer that wakes the proc.
package planted

import (
	"wavnet/internal/sim"
)

var reply bool

func viaTimer(p *sim.Proc, e *sim.Engine) {
	timer := sim.NewTimer(e, func() { p.Unpark() })
	timer.Reset(sim.Second)
	p.Park()
	timer.Stop()
	e.Schedule(sim.Second, func() {
		if !reply {
			p.Interrupt()
		}
	})
	e.At(e.Now().Add(sim.Second), p.Unpark)
	sim.NewTicker(e, sim.Second, p.Interrupt)
	// A protocol timer that wakes nobody is not one.
	sim.NewTimer(e, func() { reply = false }).Reset(sim.Second)
}
