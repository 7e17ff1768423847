package mpi

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }
