package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/core"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// FailoverRow is one point of the broker-failover sweep: one tenant
// network spread over a broker count, with the first broker killed at a
// configurable offset. It reports how fast the affected hosts re-homed
// onto survivors and how connect success after the failover compares to
// the same-broker baseline measured before the kill.
type FailoverRow struct {
	Brokers int
	KillAt  sim.Duration // kill offset after the baseline sweep

	// Re-homing: hosts homed on the killed broker, how many re-homed,
	// and the time from the kill to their session appearing on a
	// survivor (the control plane's failover latency).
	Affected, Rehomed  int
	RehomeMean, Rehome sim.Duration // mean and max
	TTL                sim.Duration // the liveness TTL the max must stay under

	// Connect success: same-broker pairs before the kill (baseline) vs
	// every pair after the failover (the acceptance comparison).
	BaseOK, BaseN int
	PostOK, PostN int

	// Cleanup proof, from the surviving brokers' counters:
	// replicas superseded by re-homing sessions plus replicas withdrawn
	// for the dead broker (TTL expiry or liveness sweep).
	Cleanup uint64
	// Stray is the tenant's record count on the unnamed witness broker
	// (must stay 0 through the whole episode).
	Stray int
}

// FailoverResult reports the sweep.
type FailoverResult struct {
	Rows []FailoverRow
}

// String renders the table.
func (r *FailoverResult) String() string {
	t := table{
		title: "Broker failover — time-to-re-home and post-failover connect success vs broker count and kill timing (beyond the paper)",
		header: []string{"Brokers", "Kill at (s)", "Affected", "Re-homed",
			"Re-home mean (s)", "Re-home max (s)", "TTL (s)",
			"Baseline conn", "Post-failover conn", "Cleanup", "Stray"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%d", row.Brokers),
			fmt.Sprintf("%.0f", row.KillAt.Seconds()),
			fmt.Sprintf("%d", row.Affected),
			fmt.Sprintf("%d", row.Rehomed),
			secs(row.RehomeMean),
			secs(row.Rehome),
			secs(row.TTL),
			frac(row.BaseOK, row.BaseN),
			frac(row.PostOK, row.PostN),
			fmt.Sprintf("%d", row.Cleanup),
			fmt.Sprintf("%d", row.Stray),
		)
	}
	t.notes = append(t.notes,
		"re-home: home broker killed -> host session visible on a surviving declared broker",
		"baseline: same-broker connect success before the kill; post-failover covers every pair",
		"cleanup: stale replicas superseded or withdrawn on the survivors (counter-backed)",
		"stray: tenant records on the unnamed witness broker (must be 0)")
	return t.String()
}

// Failover sweeps broker count at a fixed kill offset, then kill timing
// at a fixed broker count.
func Failover(o Options) (*FailoverResult, error) {
	o = o.withDefaults()
	type point struct {
		brokers int
		killAt  sim.Duration
	}
	points := []point{{2, 5 * sim.Second}, {3, 5 * sim.Second}, {4, 5 * sim.Second}}
	if !o.Quick {
		points = append(points, point{2, 20 * sim.Second}, point{2, 45 * sim.Second})
	}
	rows, err := sweep(points, func(_ int, pt point) (*FailoverRow, error) {
		return FailoverOnce(o, pt.brokers, pt.killAt)
	}, func(pt point) string { return fmt.Sprintf("failover %d brokers, kill at %v", pt.brokers, pt.killAt) })
	if err != nil {
		return nil, err
	}
	return &FailoverResult{Rows: rows}, nil
}

// FailoverOnce measures one (broker count, kill offset) point.
func FailoverOnce(o Options, brokers int, killAt sim.Duration) (*FailoverRow, error) {
	o = o.withDefaults()
	if brokers < 2 {
		return nil, fmt.Errorf("failover needs at least 2 brokers to fail over between")
	}
	hostsPer := 2
	total := brokers * hostsPer
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(total, 100e6), nil, func(w *scenario.World) (*FailoverRow, error) {
		// Short keepalives keep the measured episode tractable; the ratios
		// (detection at 3 pulses, TTL at 60 s) match the defaults.
		w.HostCfg = core.Config{
			RendezvousPulsePeriod: 5 * sim.Second,
			BrokerTimeout:         15 * sim.Second,
		}
		bcfg := rendezvous.Config{SessionTTL: 60 * sim.Second}
		members := pcs(total)
		bs, err := addBrokers(w, brokers, bcfg, bcfg, members)
		if err != nil {
			return nil, err
		}
		home := func(i int) int { return i % brokers }
		spec := vpc.TenantSpec{
			Tenant: "fo",
			Networks: []vpc.NetworkSpec{{
				Name: "fonet", CIDR: "10.90.0.0/24", StaticAddressing: true,
				Members: members, Brokers: bs.names,
			}},
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		row := &FailoverRow{Brokers: brokers, KillAt: killAt, TTL: bcfg.SessionTTL}

		// connectSweep tears down and re-brokers every pair pick() admits.
		connectSweep := func(name string, pick func(i, j int) bool) (ok, n int, err error) {
			if !w.RunProc(name, 5*sim.Second, time.Hour, func(p *sim.Proc) {
				for i := 0; i < total; i++ {
					for j := i + 1; j < total; j++ {
						if !pick(i, j) {
							continue
						}
						a, b := w.M(pc(i)).WAV, w.M(pc(j)).WAV
						a.Disconnect(pc(j))
						b.Disconnect(pc(i))
						n++
						if _, err := a.ConnectTo(p, pc(j)); err == nil {
							ok++
						}
					}
				}
			}) {
				return 0, 0, fmt.Errorf("%s connect sweep still pending", name)
			}
			return ok, n, nil
		}

		// Baseline: same-broker pairs, before any fault.
		if row.BaseOK, row.BaseN, err = connectSweep("baseline", func(i, j int) bool {
			return home(i) == home(j)
		}); err != nil {
			return nil, err
		}

		// The fault: kill broker 0 at the configured offset; watch every
		// affected host for its session appearing on a survivor.
		w.Scrape() // alert rate baseline before the fault
		fi := w.Inject(scenario.KillBrokerAt(killAt, bs.names[0]))
		killTime := w.Eng.Now().Add(killAt)
		affected := make([]string, 0, hostsPer)
		for i := 0; i < total; i++ {
			if home(i) == 0 {
				affected = append(affected, pc(i))
			}
		}
		row.Affected = len(affected)
		rehomedAt := make(map[string]sim.Time, len(affected))
		probe := sim.NewTicker(w.Eng, 50*time.Millisecond, func() {
			for _, k := range affected {
				if _, seen := rehomedAt[k]; seen {
					continue
				}
				for _, s := range bs.servers[1:] {
					if s.HasSession(k) {
						rehomedAt[k] = w.Eng.Now()
						break
					}
				}
			}
		})
		budget := killAt + row.TTL + 30*sim.Second
		for spent := sim.Duration(0); len(rehomedAt) < len(affected) && spent < budget; spent += sim.Second {
			w.Eng.RunFor(sim.Second)
			// The scrape cadence drives the alert engine: the window holding
			// the re-home wave rates rehomes > 0 and fires broker-rehome.
			w.Scrape()
		}
		probe.Stop()
		if w.Alerts.Fired("broker-rehome") == 0 {
			return nil, fmt.Errorf("broker-rehome alert never fired across the re-home wave")
		}
		if fails := fi.Failures(); len(fails) != 0 {
			return nil, fmt.Errorf("fault schedule: %v", fails)
		}
		var sum sim.Duration
		for _, k := range affected {
			at, ok := rehomedAt[k]
			if !ok {
				continue
			}
			row.Rehomed++
			d := at.Sub(killTime)
			sum += d
			if d > row.Rehome {
				row.Rehome = d
			}
		}
		if row.Rehomed > 0 {
			row.RehomeMean = sum / sim.Duration(row.Rehomed)
		}

		// Post-failover: every pair re-brokers through the survivors.
		if row.PostOK, row.PostN, err = connectSweep("post", func(i, j int) bool { return true }); err != nil {
			return nil, err
		}

		for _, s := range bs.servers[1:] {
			row.Cleanup += s.ReplicaAdoptions + s.DeadBrokerReplicaDrops + s.ReplicaExpiries
		}
		row.Stray = bs.witness.RecordsFor("fonet")
		// One quiet window after the wave: the rehome rate falls back to
		// zero and the alert must resolve, closing its span.
		w.Eng.RunFor(sim.Second)
		w.Scrape()
		if w.Alerts.IsFiring("broker-rehome") {
			return nil, fmt.Errorf("broker-rehome alert still firing after the wave settled")
		}
		if w.Alerts.Resolved("broker-rehome") == 0 {
			return nil, fmt.Errorf("broker-rehome alert never resolved")
		}
		return row, nil
	})
}
