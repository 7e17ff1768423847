package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
)

// MigrationRow is one point of the migration micro-sweep: one VM
// migrated between two emulated-WAN hosts, characterized by its
// counter export — plus one fault row where the destination is
// partitioned away mid-copy and the migration must abort cleanly.
type MigrationRow struct {
	MemMB     int
	DirtyRate float64
	Fault     string // "" or "partition"

	Outcome   string // "ok" or "aborted"
	Time      sim.Duration
	Downtime  sim.Duration
	Rounds    uint64
	Pages     uint64
	Aborts    uint64
	PingAfter bool // the VM answers a third party after the episode
}

// MigrationResult reports the sweep.
type MigrationResult struct {
	Rows []MigrationRow
}

// String renders the table.
func (r *MigrationResult) String() string {
	t := table{
		title: "VM live migration micro-sweep — time, downtime and pre-copy behaviour vs memory and dirty rate, with a clean abort under partition (beyond the paper)",
		header: []string{"Mem (MB)", "Dirty (pages/s)", "Fault", "Outcome",
			"Time (s)", "Downtime (s)", "Rounds", "Pages", "Aborts", "VM answers after"},
	}
	for _, row := range r.Rows {
		fault := row.Fault
		if fault == "" {
			fault = "-"
		}
		t.addRow(
			fmt.Sprintf("%d", row.MemMB),
			fmt.Sprintf("%.0f", row.DirtyRate),
			fault,
			row.Outcome,
			secs(row.Time),
			fmt.Sprintf("%.2f", row.Downtime.Seconds()),
			fmt.Sprintf("%d", row.Rounds),
			fmt.Sprintf("%d", row.Pages),
			fmt.Sprintf("%d", row.Aborts),
			fmt.Sprintf("%v", row.PingAfter),
		)
	}
	t.notes = append(t.notes,
		"counters come from vm.VM's uniform export (migrations/rounds/pages_copied/downtime_us/aborts)",
		"partition row: the destination becomes unreachable mid-copy; the stall watchdog aborts and the VM keeps serving at the source")
	return t.String()
}

// MigrationSweep runs the micro-sweep.
func MigrationSweep(o Options) (*MigrationResult, error) {
	o = o.withDefaults()
	type point struct {
		memMB int
		dirty float64
		fault string
	}
	points := []point{
		{32, 500, ""},
		{64, 2000, ""},
		{64, 8000, ""},
		{64, 2000, "partition"},
	}
	if !o.Quick {
		points = append(points, point{256, 2000, ""}, point{256, 2000, "partition"})
	}
	rows, err := sweep(points, func(i int, pt point) (*MigrationRow, error) {
		po := o
		po.Seed += int64(i)
		return MigrationOnce(po, pt.memMB, pt.dirty, pt.fault)
	}, func(pt point) string {
		return fmt.Sprintf("migration %d MB dirty %.0f fault %q", pt.memMB, pt.dirty, pt.fault)
	})
	if err != nil {
		return nil, err
	}
	return &MigrationResult{Rows: rows}, nil
}

// MigrationOnce measures one (memory, dirty rate, fault) point on a
// three-machine emulated WAN: the VM migrates pc00 -> pc01 while pc02
// observes.
func MigrationOnce(o Options, memMB int, dirtyRate float64, fault string) (*MigrationRow, error) {
	o = o.withDefaults()
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(3, 100e6), nil, func(w *scenario.World) (*MigrationRow, error) {
		if err := w.WAVNetUp(); err != nil {
			return nil, err
		}
		stall := 5 * time.Second
		v, err := w.AddVM("pc00", "vm-mig", netsim.MustParseIP("10.77.0.50"), vm.Config{
			MemoryMB:     memMB,
			DirtyRate:    dirtyRate,
			StallTimeout: stall,
		})
		if err != nil {
			return nil, err
		}
		row := &MigrationRow{MemMB: memMB, DirtyRate: dirtyRate, Fault: fault}

		healAt := sim.Duration(0)
		var fi *scenario.FaultInjector
		if fault == "partition" {
			// Cut the source-destination WAN path mid-copy and heal it well
			// after the watchdog has fired.
			healAt = 2*time.Second + 5*stall
			fi = w.Inject(
				scenario.PartitionAt(2*time.Second, "pc00", "pc01"),
				scenario.HealAt(healAt, "pc00", "pc01"),
			)
		}

		var migErr error
		var mrep *vm.MigrationReport
		start := w.Eng.Now()
		var doneAt sim.Time
		if !w.RunProc("migrate", 5*time.Second, 20*time.Minute+healAt, func(p *sim.Proc) {
			mrep, migErr = v.Migrate(p, w.M("pc01").WAV)
			doneAt = p.Now()
		}) {
			return nil, fmt.Errorf("migration never returned")
		}
		w.Eng.RunFor(healAt + 2*time.Second) // past any pending heal
		if fi != nil {
			if fails := fi.Failures(); len(fails) != 0 {
				return nil, fmt.Errorf("fault schedule: %v", fails)
			}
		}

		row.Rounds = v.Rounds
		row.Pages = v.PagesCopied
		row.Aborts = v.Aborts
		switch {
		case migErr == nil:
			row.Outcome = "ok"
			row.Time = mrep.Total()
			row.Downtime = mrep.Downtime
		case fault != "":
			row.Outcome = "aborted"
			row.Time = doneAt.Sub(start)
		default:
			return nil, fmt.Errorf("migration failed without a fault: %w", migErr)
		}

		// Whatever happened, the VM must answer a third party afterwards —
		// at the destination on success, at the source after an abort.
		var pingErr error
		pinged := w.RunProc("ping", 20*time.Second, 20*time.Second, func(p *sim.Proc) {
			_, pingErr = w.M("pc02").Dom0().Ping(p, v.IP(), 56, 5*time.Second)
		})
		row.PingAfter = pinged && pingErr == nil
		return row, nil
	})
}
