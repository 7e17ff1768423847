package mpi

import "wavnet/internal/sim"

// Barrier synchronizes all ranks (gather to rank 0, then release).
func (r *Rank) Barrier(p *sim.Proc) error {
	n := r.world.Size()
	if n == 1 {
		return nil
	}
	if r.id == 0 {
		for i := 1; i < n; i++ {
			if _, err := r.Recv(p, i, tagBarrier); err != nil {
				return err
			}
		}
		for i := 1; i < n; i++ {
			if err := r.Send(p, i, tagBarrier, 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := r.Send(p, 0, tagBarrier, 1); err != nil {
		return err
	}
	_, err := r.Recv(p, 0, tagBarrier)
	return err
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }
