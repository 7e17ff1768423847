package sim

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Len reports the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }
