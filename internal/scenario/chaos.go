// Chaos harness: deterministic fault injection against the sim clock.
//
// A fault schedule is a list of (offset, operation) pairs scheduled on
// the world's engine when Inject is called; because the engine is a
// deterministic discrete-event simulator, a given seed and schedule
// always produce the same interleaving of faults and protocol traffic.
// The injector records every execution (virtual time, outcome) so tests
// can assert both that the faults fired and that the system converged
// afterwards.

package scenario

import (
	"fmt"

	"wavnet/internal/sim"
)

// Fault is one scripted fault: Op runs against the world After the
// schedule's injection time.
type Fault struct {
	After sim.Duration
	Name  string
	Op    func(w *World) error
}

// KillBrokerAt schedules a broker crash (see World.KillBroker).
func KillBrokerAt(after sim.Duration, broker string) Fault {
	return Fault{After: after, Name: "kill-broker " + broker,
		Op: func(w *World) error { return w.KillBroker(broker) }}
}

// RestartBrokerAt schedules a crashed broker's restart with empty state
// (see World.RestartBroker).
func RestartBrokerAt(after sim.Duration, broker string) Fault {
	return Fault{After: after, Name: "restart-broker " + broker,
		Op: func(w *World) error { _, err := w.RestartBroker(broker); return err }}
}

// PartitionAt schedules a WAN partition between two endpoints (broker
// names or machine keys).
func PartitionAt(after sim.Duration, a, b string) Fault {
	return Fault{After: after, Name: fmt.Sprintf("partition %s|%s", a, b),
		Op: func(w *World) error { return w.Partition(a, b) }}
}

// HealAt schedules the repair of a WAN partition.
func HealAt(after sim.Duration, a, b string) Fault {
	return Fault{After: after, Name: fmt.Sprintf("heal %s|%s", a, b),
		Op: func(w *World) error { return w.Heal(a, b) }}
}

// FaultRecord is one executed fault: when it ran (virtual time) and how
// it went.
type FaultRecord struct {
	At   sim.Time
	Name string
	Err  error
}

func (r FaultRecord) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%v %s: %v", r.At, r.Name, r.Err)
	}
	return fmt.Sprintf("%v %s", r.At, r.Name)
}

// FaultInjector tracks a running schedule.
type FaultInjector struct {
	log     []FaultRecord
	pending int
}

// Inject schedules a fault script on the world's engine. Offsets are
// relative to the injection time; faults with equal offsets run in
// argument order (the engine's tie-break is FIFO). The injector only
// schedules — the caller drives the engine as usual.
func (w *World) Inject(faults ...Fault) *FaultInjector {
	fi := &FaultInjector{}
	for _, f := range faults {
		f := f
		fi.pending++
		w.Eng.Schedule(f.After, func() {
			err := f.Op(w)
			fi.log = append(fi.log, FaultRecord{At: w.Eng.Now(), Name: f.Name, Err: err})
			fi.pending--
		})
	}
	return fi
}

// Failures returns the faults whose operation returned an error — a
// well-formed chaos test asserts this is empty.
func (fi *FaultInjector) Failures() []FaultRecord {
	var out []FaultRecord
	for _, r := range fi.log {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
