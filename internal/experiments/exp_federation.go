package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// FederationRow is one point of the federated-rendezvous sweep: one
// tenant network spread over a broker count, with the brokers'
// replication batched at a configurable interval (the lag knob).
type FederationRow struct {
	Brokers int
	ReplLag sim.Duration // broker replication interval (0 = immediate)
	Setup   sim.Duration // apply: joins, scoped mesh, federation config

	// Name lookups from one host to every co-tenant; cross-broker names
	// answer from the local replica store (no extra hop).
	LookupOK, LookupN int
	LookupRTT         sim.Duration // mean

	// Fresh connects between co-tenants, split by whether both ends
	// home on the same broker or the punch was forwarded between
	// brokers.
	SameOK, SameN   int
	SameLat         sim.Duration // mean, successful connects
	CrossOK, CrossN int
	CrossLat        sim.Duration

	// Visibility is the replication lag made visible: the time between
	// a fresh join landing on its home broker and the replica appearing
	// on another broker of the set (0 when only one broker).
	Visibility sim.Duration

	// Broker-side counters, read from rendezvous.Server's fields.
	Replications uint64 // replications_out, summed over the set
	Forwards     uint64 // fwd_connects_out during the connect phase
	Stray        int    // tenant records held by the unnamed witness broker
}

// FederationResult reports the sweep.
type FederationResult struct {
	Rows []FederationRow
}

// String renders the table.
func (r *FederationResult) String() string {
	t := table{
		title: "Federated rendezvous — cross-broker lookup and connect vs broker count and replication lag (beyond the paper)",
		header: []string{"Brokers", "Repl lag (s)", "Setup (s)", "Lookups", "Lookup (ms)",
			"Same-broker conn", "Same (ms)", "Cross-broker conn", "Cross (ms)",
			"Visibility (ms)", "Replications", "Forwards", "Stray"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%d", row.Brokers),
			fmt.Sprintf("%.1f", row.ReplLag.Seconds()),
			secs(row.Setup),
			frac(row.LookupOK, row.LookupN),
			ms(row.LookupRTT),
			frac(row.SameOK, row.SameN),
			ms(row.SameLat),
			frac(row.CrossOK, row.CrossN),
			ms(row.CrossLat),
			ms(row.Visibility),
			fmt.Sprintf("%d", row.Replications),
			fmt.Sprintf("%d", row.Forwards),
			fmt.Sprintf("%d", row.Stray),
		)
	}
	t.notes = append(t.notes,
		"stray counts the tenant's records on a federated broker its spec does not name (must be 0)",
		"cross-broker connects forward the punch orchestration to the target's home broker",
		"visibility: fresh join on one broker -> replica present on another (tracks the replication lag)")
	return t.String()
}

// Federation sweeps broker count (replication immediate) and then
// replication lag at a fixed broker count.
func Federation(o Options) (*FederationResult, error) {
	o = o.withDefaults()
	type point struct {
		brokers int
		lag     sim.Duration
	}
	points := []point{{1, 0}, {2, 0}, {2, 2 * sim.Second}}
	if !o.Quick {
		points = []point{{1, 0}, {2, 0}, {3, 0}, {2, 1 * sim.Second}, {2, 5 * sim.Second}}
	}
	rows, err := sweep(points, func(_ int, pt point) (*FederationRow, error) {
		return FederationOnce(o, pt.brokers, pt.lag)
	}, func(pt point) string { return fmt.Sprintf("federation %d brokers, lag %v", pt.brokers, pt.lag) })
	if err != nil {
		return nil, err
	}
	return &FederationResult{Rows: rows}, nil
}

// FederationOnce measures one (broker count, replication lag) point.
func FederationOnce(o Options, brokers int, lag sim.Duration) (*FederationRow, error) {
	o = o.withDefaults()
	hostsPer := 2
	total := brokers * hostsPer
	// One spare machine for the visibility probe.
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(total+1, 100e6), nil, func(w *scenario.World) (*FederationRow, error) {
		members := pcs(total)
		// The witness keeps the default config: no replication lag.
		bs, err := addBrokers(w, brokers, rendezvous.Config{ReplicateInterval: lag}, rendezvous.Config{}, members)
		if err != nil {
			return nil, err
		}
		home := func(i int) int { return i % brokers }
		spare := pc(total)
		if err := w.SetHome(spare, bs.names[brokers-1]); err != nil {
			return nil, err
		}

		spec := vpc.TenantSpec{
			Tenant: "fed",
			Networks: []vpc.NetworkSpec{{
				Name: "fednet", CIDR: "10.60.0.0/24", StaticAddressing: true,
				Members: members, Brokers: bs.names,
			}},
		}
		start := w.Eng.Now()
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		row := &FederationRow{Brokers: brokers, ReplLag: lag, Setup: w.Eng.Now().Sub(start)}

		// Lookup sweep: every host resolves every co-tenant by name.
		var lookupSum sim.Duration
		var sweepErr error
		done := w.RunProc("lookup-sweep", time.Second, time.Hour, func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				h := w.M(pc(i)).WAV
				for j := 0; j < total; j++ {
					if i == j {
						continue
					}
					t0 := w.Eng.Now()
					recs, err := h.Lookup(p, pc(j))
					if err != nil {
						sweepErr = err
						return
					}
					row.LookupN++
					if len(recs) > 0 {
						row.LookupOK++
						lookupSum += w.Eng.Now().Sub(t0)
					}
				}
			}
		})
		if sweepErr != nil {
			return nil, fmt.Errorf("lookup sweep: %w", sweepErr)
		}
		if !done {
			return nil, fmt.Errorf("lookup sweep still pending")
		}
		if row.LookupOK > 0 {
			row.LookupRTT = lookupSum / sim.Duration(row.LookupOK)
		}

		// Connect sweep: tear each pair's tunnel down and re-broker it,
		// classifying by same- vs cross-broker homing. The forward count is
		// the brokers' total, read around the phase.
		fwdOut := func() (n uint64) {
			for _, s := range bs.servers {
				n += s.FwdConnectsOut
			}
			return n
		}
		before := fwdOut()
		var sameSum, crossSum sim.Duration
		if !w.RunProc("connect-sweep", 5*time.Second, time.Hour, func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				for j := i + 1; j < total; j++ {
					a, b := w.M(pc(i)).WAV, w.M(pc(j)).WAV
					a.Disconnect(pc(j))
					b.Disconnect(pc(i))
					cross := home(i) != home(j)
					t0 := w.Eng.Now()
					_, err := a.ConnectTo(p, pc(j))
					d := w.Eng.Now().Sub(t0)
					if cross {
						row.CrossN++
						if err == nil {
							row.CrossOK++
							crossSum += d
						}
					} else {
						row.SameN++
						if err == nil {
							row.SameOK++
							sameSum += d
						}
					}
				}
			}
		}) {
			return nil, fmt.Errorf("connect sweep still pending")
		}
		if row.SameOK > 0 {
			row.SameLat = sameSum / sim.Duration(row.SameOK)
		}
		if row.CrossOK > 0 {
			row.CrossLat = crossSum / sim.Duration(row.CrossOK)
		}
		row.Forwards = fwdOut() - before

		// Visibility probe: admit the spare member on the last broker and
		// watch for its session at home and its replica on broker 0.
		if brokers > 1 {
			var homed, replicated sim.Time
			baseline := bs.servers[brokers-1].RecordsFor("fednet")
			probe := sim.NewTicker(w.Eng, 20*time.Millisecond, func() {
				now := w.Eng.Now()
				if homed == 0 && bs.servers[brokers-1].RecordsFor("fednet") > baseline {
					homed = now
				}
				if replicated == 0 && bs.servers[0].HasReplica(spare) {
					replicated = now
				}
			})
			grow := spec
			grow.Networks = append([]vpc.NetworkSpec(nil), spec.Networks...)
			grow.Networks[0].Members = append(append([]string(nil), members...), spare)
			if _, err := w.ApplySync(grow); err != nil {
				return nil, fmt.Errorf("visibility probe apply: %w", err)
			}
			w.Eng.RunFor(lag + 5*time.Second)
			probe.Stop()
			if homed == 0 || replicated == 0 {
				return nil, fmt.Errorf("visibility probe never converged (homed=%v replicated=%v)", homed, replicated)
			}
			row.Visibility = replicated.Sub(homed)
		}

		for _, s := range bs.servers {
			row.Replications += s.ReplicationsOut
		}
		row.Stray = bs.witness.RecordsFor("fednet")
		return row, nil
	})
}
