package mpi

import (
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// bridgeWorld puts n stacks on one fast bridge (a LAN-like fabric).
func bridgeWorld(seed int64, n int, lat sim.Duration) (*sim.Engine, []*ipstack.Stack) {
	eng := sim.NewEngine(seed)
	br := ether.NewBridge(eng, "br", lat)
	var stacks []*ipstack.Stack
	for i := 0; i < n; i++ {
		st := ipstack.New(eng, "r", br.AddPort("p"), ether.SeqMAC(uint32(i+1)),
			netsim.MakeIP(10, 0, 0, byte(i+1)), ipstack.Config{})
		stacks = append(stacks, st)
	}
	return eng, stacks
}

func connectWorld(t *testing.T, eng *sim.Engine, stacks []*ipstack.Stack) *World {
	t.Helper()
	w := NewWorld(eng, stacks)
	var err error
	done := false
	eng.Spawn("connect", func(p *sim.Proc) {
		err = w.Connect(p)
		done = true
	})
	eng.RunFor(30 * time.Second)
	if !done || err != nil {
		t.Fatalf("connect: done=%v err=%v", done, err)
	}
	return w
}

func TestSendRecv(t *testing.T) {
	eng, stacks := bridgeWorld(1, 2, 10*time.Microsecond)
	w := connectWorld(t, eng, stacks)
	var got int
	var err error
	eng.Spawn("driver", func(p *sim.Proc) {
		err = w.Run(p, func(rp *sim.Proc, r *Rank) error {
			if r.ID() == 0 {
				return r.Send(rp, 1, 7, 12345)
			}
			var e error
			got, e = r.Recv(rp, 0, 7)
			return e
		})
	})
	eng.RunFor(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Fatalf("received size %d", got)
	}
}

func TestTagDemux(t *testing.T) {
	eng, stacks := bridgeWorld(2, 2, 10*time.Microsecond)
	w := connectWorld(t, eng, stacks)
	var a, b int
	eng.Spawn("driver", func(p *sim.Proc) {
		w.Run(p, func(rp *sim.Proc, r *Rank) error {
			if r.ID() == 0 {
				r.Send(rp, 1, 1, 111)
				r.Send(rp, 1, 2, 222)
				return nil
			}
			// Receive out of order: tag 2 first.
			var e error
			b, e = r.Recv(rp, 0, 2)
			if e != nil {
				return e
			}
			a, e = r.Recv(rp, 0, 1)
			return e
		})
	})
	eng.RunFor(30 * time.Second)
	if a != 111 || b != 222 {
		t.Fatalf("tag demux got %d/%d", a, b)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, stacks := bridgeWorld(3, 4, 10*time.Microsecond)
	w := connectWorld(t, eng, stacks)
	var minAfter, maxBefore sim.Time
	minAfter = 1 << 62
	eng.Spawn("driver", func(p *sim.Proc) {
		w.Run(p, func(rp *sim.Proc, r *Rank) error {
			// Stagger arrival; nobody may pass before the last arrives.
			rp.Sleep(time.Duration(r.ID()) * 100 * time.Millisecond)
			if rp.Now() > maxBefore {
				maxBefore = rp.Now()
			}
			if err := r.Barrier(rp); err != nil {
				return err
			}
			if rp.Now() < minAfter {
				minAfter = rp.Now()
			}
			return nil
		})
	})
	eng.RunFor(60 * time.Second)
	if minAfter < maxBefore {
		t.Fatalf("a rank passed the barrier (%v) before the last arrived (%v)", minAfter, maxBefore)
	}
}

func TestAlltoallVolume(t *testing.T) {
	eng, stacks := bridgeWorld(4, 4, 10*time.Microsecond)
	w := connectWorld(t, eng, stacks)
	eng.Spawn("driver", func(p *sim.Proc) {
		w.Run(p, func(rp *sim.Proc, r *Rank) error {
			return r.Alltoall(rp, 10000)
		})
	})
	eng.RunFor(60 * time.Second)
	for i := 0; i < 4; i++ {
		r := w.Rank(i)
		if r.BytesRecv != 30000 {
			t.Fatalf("rank %d received %d bytes, want 30000", i, r.BytesRecv)
		}
	}
}

func TestHeatScalesWithLatency(t *testing.T) {
	run := func(lat sim.Duration) sim.Duration {
		eng, stacks := bridgeWorld(5, 4, lat)
		w := connectWorld(t, eng, stacks)
		var elapsed sim.Duration
		eng.Spawn("driver", func(p *sim.Proc) {
			elapsed, _ = RunHeat(p, w, HeatParams{M: 64, Iterations: 200, ComputePerIter: time.Millisecond})
		})
		eng.RunFor(30 * time.Minute)
		return elapsed
	}
	fast := run(10 * time.Microsecond)
	slow := run(10 * time.Millisecond) // per-bridge-hop latency ≈ WAN
	if slow < 3*fast {
		t.Fatalf("heat on slow fabric %v not much slower than fast %v", slow, fast)
	}
}

func TestEPComputeBound(t *testing.T) {
	// EP on 4 ranks: communication is one tiny allreduce, so runtime on
	// a slow fabric is barely worse than on a fast one.
	run := func(lat sim.Duration) sim.Duration {
		eng, stacks := bridgeWorld(6, 4, lat)
		w := connectWorld(t, eng, stacks)
		var elapsed sim.Duration
		eng.Spawn("driver", func(p *sim.Proc) {
			elapsed, _ = RunEP(p, w, ClassA)
		})
		eng.RunFor(2 * time.Hour)
		return elapsed
	}
	fast := run(10 * time.Microsecond)
	slow := run(20 * time.Millisecond)
	if float64(slow) > 1.5*float64(fast) {
		t.Fatalf("EP should be compute-bound: fast=%v slow=%v", fast, slow)
	}
}

func TestFTCommunicationBound(t *testing.T) {
	// FT's alltoall makes it latency/bandwidth sensitive: the slow
	// fabric must hurt much more than EP.
	run := func(lat sim.Duration) sim.Duration {
		eng, stacks := bridgeWorld(7, 4, lat)
		w := connectWorld(t, eng, stacks)
		var elapsed sim.Duration
		eng.Spawn("driver", func(p *sim.Proc) {
			elapsed, _ = RunFT(p, w, ClassA)
		})
		eng.RunFor(6 * time.Hour)
		return elapsed
	}
	fast := run(10 * time.Microsecond)
	slow := run(20 * time.Millisecond)
	if float64(slow) < 1.5*float64(fast) {
		t.Fatalf("FT should feel the network: fast=%v slow=%v", fast, slow)
	}
}
