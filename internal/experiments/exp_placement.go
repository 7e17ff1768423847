package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/nat"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// PlacementRow is one point of the placement sweep: one tenant network
// spread over a tight and a distant cluster and a broker federation,
// with one scheduler-placed VM that is then pinned away and
// live-migrated. It reports where the scheduler put the VM, how long
// the migration took, and connect success to the VM before vs after.
type PlacementRow struct {
	Brokers int
	MemMB   int
	Spread  string // "tight": all sites near; "wide": half the sites 60 ms out

	// Scheduler decision: the chosen host and whether it landed in the
	// near cluster (for "tight" spreads every host qualifies).
	Chosen  string
	InTight bool

	// Migration of the VM to the far end of the network.
	Migration sim.Duration
	Downtime  sim.Duration
	Rounds    uint64

	// Ping success from every co-member to the VM, before the migration
	// (baseline) and after it (the acceptance comparison).
	BaseOK, BaseN int
	PostOK, PostN int

	// Stray is the tenant's record count on the unnamed witness broker
	// (must stay 0 through placement and migration).
	Stray int
}

// PlacementResult reports the sweep.
type PlacementResult struct {
	Rows []PlacementRow
}

// String renders the table.
func (r *PlacementResult) String() string {
	t := table{
		title: "VM placement — scheduler locality, migration time and connect success vs spread, memory and broker count (beyond the paper)",
		header: []string{"Brokers", "Mem (MB)", "Spread", "Chosen", "In tight cluster",
			"Migration (s)", "Downtime (s)", "Rounds", "Baseline conn", "Post-migration conn", "Stray"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%d", row.Brokers),
			fmt.Sprintf("%d", row.MemMB),
			row.Spread,
			row.Chosen,
			fmt.Sprintf("%v", row.InTight),
			secs(row.Migration),
			fmt.Sprintf("%.2f", row.Downtime.Seconds()),
			fmt.Sprintf("%d", row.Rounds),
			frac(row.BaseOK, row.BaseN),
			frac(row.PostOK, row.PostN),
			fmt.Sprintf("%d", row.Stray),
		)
	}
	t.notes = append(t.notes,
		"chosen: the scheduler's host for an unpinned VMSpec, scored by locality core + load",
		"migration: the VM is then pinned to the network's far end and converged by live migration",
		"conn: members pinging the VM on the tenant segment, before vs after the migration",
		"stray: tenant records on the unnamed witness broker (must be 0)")
	return t.String()
}

// Placement sweeps locality spread and memory size at two broker
// counts; paper mode adds a larger federation and image.
func Placement(o Options) (*PlacementResult, error) {
	o = o.withDefaults()
	type point struct {
		brokers int
		memMB   int
		spread  string
	}
	points := []point{{2, 32, "tight"}, {2, 32, "wide"}, {3, 64, "wide"}}
	if !o.Quick {
		points = append(points, point{4, 128, "wide"})
	}
	rows, err := sweep(points, func(i int, pt point) (*PlacementRow, error) {
		po := o
		po.Seed += int64(i)
		return PlacementOnce(po, pt.brokers, pt.memMB, pt.spread)
	}, func(pt point) string {
		return fmt.Sprintf("placement %d brokers, %d MB, %s", pt.brokers, pt.memMB, pt.spread)
	})
	if err != nil {
		return nil, err
	}
	return &PlacementResult{Rows: rows}, nil
}

// PlacementOnce measures one (broker count, memory, spread) point.
func PlacementOnce(o Options, brokers, memMB int, spread string) (*PlacementRow, error) {
	o = o.withDefaults()
	tight := []string{"n0", "n1", "n2"}
	far := []string{"f0", "f1", "f2"}
	farRTT := time.Millisecond
	if spread == "wide" {
		farRTT = 60 * time.Millisecond
	}
	var specs []scenario.Spec
	for _, k := range tight {
		specs = append(specs, scenario.Spec{Key: k, RTTToHub: time.Millisecond, AccessBps: 100e6, NAT: nat.FullCone})
	}
	for _, k := range far {
		specs = append(specs, scenario.Spec{Key: k, RTTToHub: farRTT, AccessBps: 100e6, NAT: nat.RestrictedCone})
	}
	return withWorld(o, o.Seed, specs, nil, func(w *scenario.World) (*PlacementRow, error) {
		members := append(append([]string(nil), tight...), far...)
		bs, err := addBrokers(w, brokers, rendezvous.Config{}, rendezvous.Config{}, members)
		if err != nil {
			return nil, err
		}
		spec := vpc.TenantSpec{
			Tenant: "pl",
			Networks: []vpc.NetworkSpec{{
				Name: "pnet", CIDR: "10.88.0.0/24", StaticAddressing: true,
				Members: members, Brokers: bs.names,
			}},
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		if err := w.ReportNetRTTs("pnet"); err != nil {
			return nil, err
		}
		row := &PlacementRow{Brokers: brokers, MemMB: memMB, Spread: spread}

		// Scheduler placement: an unpinned VM.
		spec.VMs = []vpc.VMSpec{{Name: "vm", Network: "pnet", IP: "10.88.0.200", MemoryMB: memMB}}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		chosen, ok := w.VMHost("vm")
		if !ok {
			return nil, fmt.Errorf("placement: VM never placed")
		}
		row.Chosen = chosen
		for _, k := range tight {
			if chosen == k {
				row.InTight = true
			}
		}
		v, _ := w.ResolveVM("vm")

		// pingSweep pings the VM from every other member on the tenant
		// segment.
		net, _ := w.VPC().Get("pnet")
		pingSweep := func(name string) (ok, n int, err error) {
			if !w.RunProc(name, 5*time.Second, time.Hour, func(p *sim.Proc) {
				for _, m := range net.Members() {
					if m.Host.Name() == v.Host().Name() {
						continue
					}
					n++
					if _, err := m.Stack.Ping(p, v.IP(), 56, 5*time.Second); err == nil {
						ok++
					}
				}
			}) {
				return 0, 0, fmt.Errorf("placement: %s ping sweep still pending", name)
			}
			return ok, n, nil
		}
		if row.BaseOK, row.BaseN, err = pingSweep("baseline"); err != nil {
			return nil, err
		}

		// Pin the VM to the far end of the network and converge by live
		// migration.
		target := far[len(far)-1]
		if target == chosen {
			target = far[0]
		}
		spec.VMs[0].Host = target
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		if len(v.Migrations) == 0 {
			return nil, fmt.Errorf("placement: no migration was recorded")
		}
		mrep := v.Migrations[len(v.Migrations)-1]
		row.Migration = mrep.Total()
		row.Downtime = mrep.Downtime
		row.Rounds = v.Rounds

		if row.PostOK, row.PostN, err = pingSweep("post"); err != nil {
			return nil, err
		}
		row.Stray = bs.witness.RecordsFor("pnet")
		return row, nil
	})
}
