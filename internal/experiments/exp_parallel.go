package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"wavnet/internal/grouping"
	"wavnet/internal/ipstack"
	"wavnet/internal/mpi"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
)

// heatCalibration maps problem size to iteration count, calibrated so
// that without-migration runtimes reproduce the paper's 397/1214/3798 s
// at the measured HKU–SIAT RTT (see EXPERIMENTS.md).
var heatCalibration = map[int]struct {
	iters   int
	compute sim.Duration
}{
	64:  {5300, 4700 * time.Microsecond},
	128: {16200, 4700 * time.Microsecond},
	256: {50600, 4700 * time.Microsecond},
}

// Figure11Row is one problem size's with/without-migration comparison.
type Figure11Row struct {
	Size            int
	Without, With   sim.Duration
	MigrationTime   sim.Duration
	WithOverWithout float64
}

// Figure11Result holds the heat-distribution comparison.
type Figure11Result struct{ Rows []Figure11Row }

// String renders the chart data.
func (r *Figure11Result) String() string {
	t := table{
		title:  "Figure 11 — MPICH heat distribution with/without VM migration (seconds)",
		header: []string{"Problem", "w/o migration", "with migration", "migration time", "ratio"},
	}
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%dx%d", row.Size, row.Size), secs(row.Without), secs(row.With),
			secs(row.MigrationTime), fmt.Sprintf("%.3f", row.WithOverWithout))
	}
	t.notes = append(t.notes,
		"paper: 397→121 s (30.5%), 1214→179 s (14.7%), 3798→365 s; migrating the SIAT VM to HKU removes the WAN halo-exchange bottleneck")
	return t.String()
}

// Figure11 runs four MPI ranks in VMs — three in HKU, one in SIAT — and
// compares runtimes with and without migrating the SIAT VM to HKU after
// the job starts.
func Figure11(o Options) (*Figure11Result, error) {
	o = o.withDefaults()
	sizes := []int{64, 128, 256}
	if o.Quick {
		sizes = []int{64, 128}
	}
	res := &Figure11Result{}
	for _, size := range sizes {
		cal := heatCalibration[size]
		iters := cal.iters
		runOnce := func(migrate bool) (sim.Duration, sim.Duration, error) {
			var migTime sim.Duration
			elapsed, err := withWorld(o, o.Seed, scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (sim.Duration, error) {
				keys := []string{"HKU1", "HKU2", "HKU3", "SIAT"}
				if err := w.WAVNetUp(keys...); err != nil {
					return 0, err
				}
				vmMem := 128
				if o.Quick {
					vmMem = 64
				}
				var stacks []*ipstack.Stack
				var vms []*vm.VM
				for i, k := range keys {
					machine := w.M(k)
					g := vm.New(machine.WAV, fmt.Sprintf("mpi-vm%d", i),
						netsim.MakeIP(10, 77, 1, byte(i+1)), vm.Config{MemoryMB: vmMem, DirtyRate: 300})
					vms = append(vms, g)
					stacks = append(stacks, g.Stack())
				}
				world := mpi.NewWorld(w.Eng, stacks)
				var elapsed sim.Duration
				var runErr error
				// Not World.RunProc: the migrate proc is spawned between the
				// job's spawn and the run, and spawn order is event order.
				done := false
				w.Eng.Spawn("job", func(p *sim.Proc) {
					defer func() { done = true }()
					if runErr = world.Connect(p); runErr != nil {
						return
					}
					elapsed, runErr = mpi.RunHeat(p, world, mpi.HeatParams{
						M: size, Iterations: iters, ComputePerIter: cal.compute,
					})
				})
				if migrate {
					w.Eng.Spawn("migrate", func(p *sim.Proc) {
						p.Sleep(5 * time.Second) // after the program starts
						rep, err := vms[3].Migrate(p, w.M("HKU1").WAV)
						if err == nil && rep != nil {
							migTime = rep.Total()
						}
					})
				}
				w.Eng.RunFor(4 * time.Hour)
				if !done || runErr != nil {
					return 0, fmt.Errorf("figure11 %d migrate=%v: done=%v err=%v", size, migrate, done, runErr)
				}
				return elapsed, nil
			})
			return elapsed, migTime, err
		}
		without, _, err := runOnce(false)
		if err != nil {
			return nil, err
		}
		with, migTime, err := runOnce(true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure11Row{
			Size: size, Without: without, With: with, MigrationTime: migTime,
			WithOverWithout: float64(with) / float64(without),
		})
	}
	return res, nil
}

// Figure14Row is one benchmark/cluster-size cell.
type Figure14Row struct {
	Bench            string
	Hosts            int
	Random, Locality sim.Duration
}

// Figure14Result holds the NAS comparison.
type Figure14Result struct{ Rows []Figure14Row }

// String renders the chart data.
func (r *Figure14Result) String() string {
	t := table{
		title:  "Figure 14 — NAS on random vs locality-sensitive virtual clusters (seconds)",
		header: []string{"Case", "Hosts", "Random", "Locality-sensitive", "speedup"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Bench, fmt.Sprintf("%d", row.Hosts), secs(row.Random), secs(row.Locality),
			fmt.Sprintf("%.2fx", float64(row.Random)/float64(row.Locality)))
	}
	t.notes = append(t.notes,
		"paper shape: EP (compute-bound) barely improves; FT (alltoall-bound) improves severalfold")
	return t.String()
}

// Figure14 builds a pool of candidate machines with PlanetLab-like
// pairwise latencies, selects 4- and 8-host clusters randomly vs with
// the locality-sensitive strategy, and runs NAS EP and FT on WAVNet
// meshes over each cluster.
func Figure14(o Options) (*Figure14Result, error) {
	o = o.withDefaults()
	pool := 20
	res := &Figure14Result{}
	type nasCase struct {
		bench string
		class mpi.NASClass
		hosts int
	}
	cases := []nasCase{
		{"EP(A)", mpi.ClassA, 4},
		{"EP(B)", mpi.ClassB, 4},
		{"FT(A)", mpi.ClassA, 4},
		{"FT(B)", mpi.ClassB, 4},
		{"EP(A)", mpi.ClassA, 8},
		{"EP(B)", mpi.ClassB, 8},
		{"FT(A)", mpi.ClassA, 8},
		{"FT(B)", mpi.ClassB, 8},
	}
	if o.Quick {
		cases = []nasCase{
			{"EP(A)", mpi.ClassA, 4},
			{"FT(A)", mpi.ClassA, 4},
			{"EP(A)", mpi.ClassA, 8},
			{"FT(A)", mpi.ClassA, 8},
		}
	}
	for _, c := range cases {
		random, err := figure14Run(o, pool, c.hosts, c.bench, c.class, false)
		if err != nil {
			return nil, err
		}
		local, err := figure14Run(o, pool, c.hosts, c.bench, c.class, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure14Row{Bench: c.bench, Hosts: c.hosts, Random: random, Locality: local})
	}
	return res, nil
}

// figure14Run builds the candidate world, picks the cluster, meshes it
// with WAVNet and runs the kernel.
func figure14Run(o Options, pool, k int, bench string, class mpi.NASClass, locality bool) (sim.Duration, error) {
	specs, overrides, rtts := planetlabPool(o.Seed, pool)
	return withWorld(o, o.Seed, specs, overrides, func(w *scenario.World) (sim.Duration, error) {
		// Select the cluster.
		var idx []int
		var err error
		if locality {
			idx, err = grouping.LocalitySensitive(rtts, k)
		} else {
			idx, err = grouping.Random(rtts, k, rand.New(rand.NewSource(o.Seed+int64(len(bench)))))
		}
		if err != nil {
			return 0, err
		}
		keys := make([]string, len(idx))
		for i, id := range idx {
			keys[i] = specs[id].Key
		}
		if err := w.WAVNetUp(keys...); err != nil {
			return 0, err
		}
		var stacks []*ipstack.Stack
		for _, key := range keys {
			stacks = append(stacks, w.M(key).Dom0())
		}
		world := mpi.NewWorld(w.Eng, stacks)
		var elapsed sim.Duration
		var runErr error
		done := w.RunProc("nas", 12*time.Hour, 12*time.Hour, func(p *sim.Proc) {
			if runErr = world.Connect(p); runErr != nil {
				return
			}
			switch bench[:2] {
			case "EP":
				elapsed, runErr = mpi.RunEP(p, world, mpi.EPParams{Class: class})
			default:
				elapsed, runErr = mpi.RunFT(p, world, mpi.FTParams{Class: class, ComputeRate: 60e6})
			}
		})
		if !done || runErr != nil {
			return 0, fmt.Errorf("figure14 %s k=%d locality=%v: done=%v err=%v", bench, k, locality, done, runErr)
		}
		return elapsed, nil
	})
}
