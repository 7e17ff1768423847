package mpi

import (
	"wavnet/internal/sim"
)

// HeatParams configures the heat-distribution stencil (Quinn's MPI
// formulation used by the paper: an m×m grid row-partitioned across the
// ranks, one halo exchange per Jacobi iteration).
type HeatParams struct {
	M          int // grid edge: the paper runs 64, 128, 256
	Iterations int // Jacobi iterations
	// ComputePerIter is the per-rank computation time for one iteration
	// (calibrated; see EXPERIMENTS.md).
	ComputePerIter sim.Duration
}

// RunHeat executes the stencil and returns the elapsed virtual time.
func RunHeat(p *sim.Proc, w *World, hp HeatParams) (sim.Duration, error) {
	start := p.Now()
	rowBytes := 8 * hp.M // one row of float64 halo per neighbor
	err := w.Run(p, func(rp *sim.Proc, r *Rank) error {
		n := w.Size()
		for it := 0; it < hp.Iterations; it++ {
			if hp.ComputePerIter > 0 {
				rp.Sleep(hp.ComputePerIter)
			}
			// Halo exchange with row-partition neighbors. Even ranks
			// send first; odd ranks post the matching receives by
			// virtue of TCP buffering (SendRecv is symmetric here).
			if r.id > 0 {
				if err := r.SendRecv(rp, r.id-1, 100+it%2, rowBytes); err != nil {
					return err
				}
			}
			if r.id < n-1 {
				if err := r.SendRecv(rp, r.id+1, 100+it%2, rowBytes); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return p.Now().Sub(start), err
}

// NASClass selects a NAS problem class.
type NASClass string

// Supported classes.
const (
	ClassA NASClass = "A"
	ClassB NASClass = "B"
)

// Per-rank compute rates of the NAS kernels, calibrated: epPairRate is
// EP's pair-generation throughput (pairs/second; serial class A ≈ 10.7 s
// of virtual time), ftOpRate FT's FFT throughput (point-operations/second).
const (
	epPairRate = 25e6
	ftOpRate   = 60e6
)

// epPairs returns the sample count for the class (NPB 3).
func epPairs(c NASClass) float64 {
	switch c {
	case ClassB:
		return 1 << 30
	default:
		return 1 << 28
	}
}

// RunEP executes the embarrassingly-parallel kernel — pure computation
// with a tiny final reduction — and returns elapsed virtual time.
func RunEP(p *sim.Proc, w *World, class NASClass) (sim.Duration, error) {
	start := p.Now()
	err := w.Run(p, func(rp *sim.Proc, r *Rank) error {
		pairs := epPairs(class) / float64(w.Size())
		rp.Sleep(sim.Duration(pairs / epPairRate * 1e9))
		// Ten scalar sums reduced at the end (q[0..9] in NPB).
		return r.Allreduce(rp, 80)
	})
	return p.Now().Sub(start), err
}

// ftShape returns grid points and iteration count (NPB 3).
func ftShape(c NASClass) (points float64, iters int) {
	switch c {
	case ClassB:
		return 512 * 256 * 256, 20
	default:
		return 256 * 256 * 128, 6
	}
}

// RunFT executes the 3-D FFT kernel — compute plus a full alltoall
// transpose per iteration, the communication-bound case of Figure 14 —
// and returns elapsed virtual time.
func RunFT(p *sim.Proc, w *World, class NASClass) (sim.Duration, error) {
	points, iters := ftShape(class)
	n := float64(w.Size())
	// 16 bytes per complex point, partitioned across ranks; the
	// transpose moves each rank's slab to every other rank.
	perPair := int(points * 16 / n / n)
	computePer := sim.Duration(points * 5 / n / ftOpRate * 1e9) // ~5 ops/point/iter
	start := p.Now()
	err := w.Run(p, func(rp *sim.Proc, r *Rank) error {
		for it := 0; it < iters; it++ {
			rp.Sleep(computePer)
			if err := r.Alltoall(rp, perPair); err != nil {
				return err
			}
		}
		return r.Allreduce(rp, 16)
	})
	return p.Now().Sub(start), err
}
