// The pinned macro-benchmark trajectory: five end-to-end benchmarks —
// tagged forwarding, flood suppression, quota token buckets, rendezvous
// lookup latency/throughput, and live migration — whose results are
// emitted as BENCH_<pr>.json rows. The simulation is bit-for-bit
// deterministic per seed, so a committed trajectory point doubles as
// the CI regression baseline: CompareBench fails the build when a
// directed metric moves more than 10% the wrong way against the
// previous point.

package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
	"wavnet/internal/vpc"
)

// BenchRow is one (benchmark, metric) measurement of a trajectory point.
type BenchRow struct {
	PR     int     `json:"pr"`
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// BenchDirections declares, per "bench/metric", which way is better:
// +1 means higher is better (throughput), -1 means lower is better
// (latency, downtime, error). Metrics absent here are informational and
// never fail the trajectory comparison.
var BenchDirections = map[string]int{
	"forward_tagged/throughput_mbps": +1,
	"flood_suppress/suppressed":      +1,
	"quota/quota_error_pct":          -1,
	"quota/open_mbps":                +1,
	"rendezvous_ops/lookup_p50_ms":   -1,
	"rendezvous_ops/lookup_p95_ms":   -1,
	"rendezvous_ops/lookups_per_sec": +1,
	"migration/migration_s":          -1,
	"migration/downtime_ms":          -1,
	"migration/migrate_mbps":         +1,
	"service_failover/failover_ms":   -1,
	"service_failover/success_ratio": +1,
}

// CompareBench diffs a trajectory point against a baseline and returns
// one message per regression: a directed metric that moved more than
// 10% the wrong way. Metrics without a declared direction, and metrics
// present in only one of the two points, are skipped.
func CompareBench(cur, base []BenchRow) []string {
	curBy := make(map[string]BenchRow, len(cur))
	for _, r := range cur {
		curBy[r.Bench+"/"+r.Metric] = r
	}
	var regressions []string
	for _, b := range base {
		key := b.Bench + "/" + b.Metric
		dir, directed := BenchDirections[key]
		if !directed || b.Value == 0 {
			continue
		}
		c, ok := curBy[key]
		if !ok {
			continue
		}
		change := (c.Value - b.Value) / b.Value
		if float64(dir)*change < -0.10 {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.4g -> %.4g %s (%+.1f%%)", key, b.Value, c.Value, b.Unit, 100*change))
		}
	}
	return regressions
}

// MarshalBench renders trajectory rows as the committed BENCH_<pr>.json
// (one indented JSON array, trailing newline).
func MarshalBench(rows []BenchRow) ([]byte, error) {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// BenchResult holds one trajectory point.
type BenchResult struct{ Rows []BenchRow }

// String renders the trajectory point as a table.
func (r *BenchResult) String() string {
	t := table{
		title:  "Trajectory point — pinned macro-benchmarks (BENCH_<pr>.json)",
		header: []string{"Bench", "Metric", "Value", "Unit"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Bench, row.Metric, fmt.Sprintf("%.4g", row.Value), row.Unit)
	}
	t.notes = append(t.notes,
		"deterministic per seed: the committed point is also the CI regression baseline",
		"CompareBench fails CI when a directed metric moves >10% the wrong way")
	return t.String()
}

// Trajectory runs the pinned macro-benchmark suite and returns one row
// per metric. Each bench returns its metric, value and unit; the row is
// stamped here with the bench name and the trajectory point's PR number.
func Trajectory(o Options, pr int) (*BenchResult, error) {
	o = o.withDefaults()
	res := &BenchResult{}
	steps := []struct {
		name string
		run  func(Options) ([]BenchRow, error)
	}{
		{"forward_tagged", benchForwardTagged},
		{"flood_suppress", benchFloodSuppress},
		{"quota", benchQuota},
		{"rendezvous_ops", benchRendezvousOps},
		{"migration", benchMigration},
		{"service_failover", benchServiceFailover},
	}
	for _, s := range steps {
		rows, err := s.run(o)
		if err != nil {
			return nil, fmt.Errorf("trajectory %s: %w", s.name, err)
		}
		for _, r := range rows {
			r.PR, r.Bench = pr, s.name
			res.Rows = append(res.Rows, r)
		}
	}
	return res, nil
}

// benchForwardTagged measures bulk TCP throughput across one tenant's
// VNI-tagged tunnel — the core data path every other benchmark rides —
// plus the declarative setup time to admit both members.
func benchForwardTagged(o Options) ([]BenchRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(2, 100e6), nil, func(w *scenario.World) ([]BenchRow, error) {
		setupStart := w.Eng.Now()
		spec := vpc.TenantSpec{
			Tenant: "bench",
			Networks: []vpc.NetworkSpec{{
				Name: "fwd", CIDR: "10.60.0.0/24", StaticAddressing: true,
				Members: []string{"pc00", "pc01"},
			}},
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		setup := w.Eng.Now().Sub(setupStart)
		n, _ := w.VPC().Get("fwd")
		src, dst := n.Members()[0], n.Members()[1]
		if err := apps.StartSink(dst.Stack, 5001); err != nil {
			return nil, err
		}
		bytes := scaled(o, int64(2<<20), 32<<20)
		var rate float64
		var terr error
		w.RunProc("ttcp", 4*time.Minute, 4*time.Minute, func(p *sim.Proc) {
			r, err := apps.TTCP(p, src.Stack, netsim.Addr{IP: dst.IP, Port: 5001}, bytes, 16384)
			if err != nil {
				terr = err
				return
			}
			rate = r.Mbps()
		})
		if terr != nil {
			return nil, terr
		}
		if rate == 0 {
			return nil, fmt.Errorf("transfer never finished")
		}
		return []BenchRow{
			{Metric: "throughput_mbps", Value: rate, Unit: "Mbps"},
			{Metric: "setup_s", Value: setup.Seconds(), Unit: "s"},
		}, nil
	})
}

// benchFloodSuppress counts VNI-aware flood suppression across a forced
// cross-tenant tunnel: tagged broadcasts for an unowned address must
// die at the sender instead of burning WAN bandwidth.
func benchFloodSuppress(o Options) ([]BenchRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(4, 100e6), nil, func(w *scenario.World) ([]BenchRow, error) {
		// Force a shared-fabric tunnel between the two tenants' anchors
		// before the split, so there is a cross-tenant path to suppress on.
		if err := w.WAVNetUp("pc00", "pc02"); err != nil {
			return nil, err
		}
		tenants := []struct {
			name string
			keys []string
		}{
			{"t0", []string{"pc00", "pc01"}},
			{"t1", []string{"pc02", "pc03"}},
		}
		for _, tnt := range tenants {
			spec := vpc.TenantSpec{
				Tenant: tnt.name,
				Networks: []vpc.NetworkSpec{{
					Name: "net-" + tnt.name, CIDR: "10.0.0.0/24", StaticAddressing: true,
					Members: tnt.keys,
				}},
			}
			if _, err := w.ApplySync(spec); err != nil {
				return nil, err
			}
		}
		n, _ := w.VPC().Get("net-t0")
		attacker := n.Members()[0]
		suppressedBefore, floodedBefore := attacker.Host.SuppressedFloods, attacker.Host.FloodedFrames
		w.RunProc("flood", 30*time.Second, 30*time.Second, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				// Inside the CIDR but owned by no one: every attempt floods
				// ARP through all tunnels, including the forced one.
				attacker.Stack.Ping(p, n.CIDR.Base+200, 56, time.Second)
			}
		})
		suppressed := attacker.Host.SuppressedFloods - suppressedBefore
		flooded := attacker.Host.FloodedFrames - floodedBefore
		if suppressed == 0 {
			return nil, fmt.Errorf("no floods were suppressed toward the forced tunnel")
		}
		return []BenchRow{
			{Metric: "suppressed", Value: float64(suppressed), Unit: "frames"},
			{Metric: "suppression_ratio", Value: float64(suppressed) / float64(suppressed+flooded), Unit: "ratio"},
		}, nil
	})
}

// benchQuota measures the token-bucket policer's accuracy on the quota
// sweep's world: a metered tenant's transfer must land on its quota
// while an unmetered tenant runs open on the same fabric.
func benchQuota(o Options) ([]BenchRow, error) {
	const quotaBps = 4e6
	row, err := quotaOnce(o, quotaBps)
	if err != nil {
		return nil, err
	}
	if row.LimitedMbps == 0 || row.OpenMbps == 0 {
		return nil, fmt.Errorf("a transfer never finished (limited %.2f, open %.2f Mbps)", row.LimitedMbps, row.OpenMbps)
	}
	errPct := math.Abs(100 * (row.LimitedMbps - row.QuotaMbps) / row.QuotaMbps)
	return []BenchRow{
		{Metric: "limited_mbps", Value: row.LimitedMbps, Unit: "Mbps"},
		{Metric: "open_mbps", Value: row.OpenMbps, Unit: "Mbps"},
		{Metric: "quota_error_pct", Value: errPct, Unit: "%"},
	}, nil
}

// benchRendezvousOps drives a federated two-broker control plane with a
// lookup storm and reports the latency quantiles — straight out of the
// obs histogram — plus sustained lookup throughput.
func benchRendezvousOps(o Options) ([]BenchRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(6, 100e6), nil, func(w *scenario.World) ([]BenchRow, error) {
		if _, err := w.AddBroker("b1", rendezvous.Config{}); err != nil {
			return nil, err
		}
		keys := pcs(6)
		for _, key := range keys[3:] {
			if err := w.SetHome(key, "b1"); err != nil {
				return nil, err
			}
		}
		spec := vpc.TenantSpec{
			Tenant: "bench",
			Networks: []vpc.NetworkSpec{{
				Name: "rdz", CIDR: "10.66.0.0/24", StaticAddressing: true,
				Members: keys,
				Brokers: []string{scenario.PrimaryBroker, "b1"},
			}},
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		// Let replication flush so cross-broker lookups resolve locally.
		w.Eng.RunFor(15 * time.Second)

		hist := obs.NewHistogram()
		rounds := 5
		if !o.Quick {
			rounds = 20
		}
		lookups := 0
		done := 0
		var lookErr error
		stormStart := w.Eng.Now()
		for i, key := range keys {
			i, key := i, key
			// Always resolve a host homed on the other broker.
			target := keys[(i+3)%len(keys)]
			h := w.M(key).WAV
			w.Eng.Spawn("lookup-"+key, func(p *sim.Proc) {
				defer func() { done++ }()
				for r := 0; r < rounds; r++ {
					t0 := p.Now()
					recs, err := h.Lookup(p, target)
					if err != nil {
						lookErr = err
						return
					}
					if len(recs) == 0 {
						lookErr = fmt.Errorf("%s resolved %s to nothing", key, target)
						return
					}
					hist.Observe(p.Now().Sub(t0).Seconds() * 1e3)
					lookups++
				}
			})
		}
		for spent := 0; done < len(keys) && spent < 120; spent++ {
			w.Eng.RunFor(time.Second)
		}
		if lookErr != nil {
			return nil, lookErr
		}
		if done < len(keys) {
			return nil, fmt.Errorf("lookup storm never finished (%d/%d workers)", done, len(keys))
		}
		elapsed := w.Eng.Now().Sub(stormStart).Seconds()
		if elapsed <= 0 || hist.Count() == 0 {
			return nil, fmt.Errorf("lookup storm measured nothing")
		}
		return []BenchRow{
			{Metric: "lookup_p50_ms", Value: hist.P50(), Unit: "ms"},
			{Metric: "lookup_p95_ms", Value: hist.P95(), Unit: "ms"},
			{Metric: "lookups_per_sec", Value: float64(lookups) / elapsed, Unit: "ops/s"},
		}, nil
	})
}

// benchMigration live-migrates a VM between two machines and reports
// total time, downtime, and effective image transfer rate.
func benchMigration(o Options) ([]BenchRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(3, 100e6), nil, func(w *scenario.World) ([]BenchRow, error) {
		if err := w.WAVNetUp(); err != nil {
			return nil, err
		}
		memMB := 32
		if !o.Quick {
			memMB = 256
		}
		v, err := w.AddVM("pc00", "vm-bench", netsim.MustParseIP("10.77.0.50"), vm.Config{
			MemoryMB:  memMB,
			DirtyRate: 2000,
		})
		if err != nil {
			return nil, err
		}
		var mrep *vm.MigrationReport
		var migErr error
		if !w.RunProc("migrate", 5*time.Second, 20*time.Minute, func(p *sim.Proc) {
			mrep, migErr = v.Migrate(p, w.M("pc01").WAV)
		}) {
			return nil, fmt.Errorf("migration never returned")
		}
		if migErr != nil {
			return nil, migErr
		}
		return []BenchRow{
			{Metric: "migration_s", Value: mrep.Total().Seconds(), Unit: "s"},
			{Metric: "downtime_ms", Value: mrep.Downtime.Seconds() * 1e3, Unit: "ms"},
			{Metric: "migrate_mbps", Value: float64(mrep.BytesSent) * 8 / mrep.Total().Seconds() / 1e6, Unit: "Mbps"},
		}, nil
	})
}

// benchServiceFailover isolates the active backend of a three-backend
// failover-ordered VIP and reports the client-observed failover time
// and the episode's request success ratio.
func benchServiceFailover(o Options) ([]BenchRow, error) {
	row, err := ServiceOnce(o, 3, 3, 2)
	if err != nil {
		return nil, err
	}
	if row.Stray != 0 {
		return nil, fmt.Errorf("witness broker holds %d stray VIP records", row.Stray)
	}
	return []BenchRow{
		{Metric: "failover_ms", Value: row.Failover.Seconds() * 1e3, Unit: "ms"},
		{Metric: "success_ratio", Value: row.SuccessRatio(), Unit: "ratio"},
		{Metric: "budget_ms", Value: row.Budget.Seconds() * 1e3, Unit: "ms"},
	}, nil
}
