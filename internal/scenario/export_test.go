package scenario

import "wavnet/internal/rendezvous"

// Done reports whether every scheduled fault has executed.
func (fi *FaultInjector) Done() bool { return fi.pending == 0 }

// Log returns the executed faults in execution order.
func (fi *FaultInjector) Log() []FaultRecord {
	return append([]FaultRecord(nil), fi.log...)
}

// Broker resolves a broker by name (PrimaryBroker is always present).
func (w *World) Broker(name string) (*rendezvous.Server, bool) {
	s, ok := w.brokerByName[name]
	return s, ok
}

// CurrentHome scans the live brokers for the machine's session and
// returns the broker actually holding it now — after a failover this
// differs from the declared home (SetHome). Scan order follows broker
// creation order for determinism.
func (w *World) CurrentHome(key string) (string, bool) {
	for _, s := range w.Brokers {
		name := w.brokerName(s)
		if name == "" || w.deadBrokers[name] {
			continue
		}
		if s.HasSession(key) {
			return name, true
		}
	}
	return "", false
}
