package experiments

import (
	"fmt"
	"slices"
	"time"

	"wavnet/internal/grouping"
	"wavnet/internal/nat"
	"wavnet/internal/planetlab"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// Figure12Result summarizes the synthetic PlanetLab latency universe.
type Figure12Result struct {
	Hosts      int
	Pairs      int
	Under1s    int
	Over1s     int
	MaxRTT     sim.Duration
	Percentile map[int]sim.Duration // 10,50,90,99 → RTT
}

// String renders the distribution the way Figure 12 plots it.
func (r *Figure12Result) String() string {
	t := table{
		title:  "Figure 12 — pairwise network latency across the PlanetLab-like universe",
		header: []string{"Metric", "Value"},
	}
	t.addRow("hosts", fmt.Sprintf("%d", r.Hosts))
	t.addRow("pairs", fmt.Sprintf("%d", r.Pairs))
	t.addRow("pairs < 1 s", fmt.Sprintf("%d (%.1f%%)", r.Under1s, 100*float64(r.Under1s)/float64(r.Pairs)))
	t.addRow("pairs ≥ 1 s", fmt.Sprintf("%d", r.Over1s))
	for _, p := range []int{10, 50, 90, 99} {
		t.addRow(fmt.Sprintf("p%d", p), ms(r.Percentile[p])+" ms")
	}
	t.addRow("max", ms(r.MaxRTT)+" ms")
	t.notes = append(t.notes,
		"paper shape: ~80000 observed pairs, bulk below 1 s with a long overloaded-node tail up to ~10 s")
	return t.String()
}

// Figure12 generates the 400-host dataset and reports its distribution.
func Figure12(o Options) (*Figure12Result, error) {
	o = o.withDefaults()
	d := planetlab.Generate(o.Seed, planetlab.Config{Hosts: 400})
	res := &Figure12Result{Hosts: d.N(), Percentile: make(map[int]sim.Duration)}
	var all []sim.Duration
	d.Pairs(func(i, j int, rtt sim.Duration) {
		all = append(all, rtt)
		res.Pairs++
		if rtt < time.Second {
			res.Under1s++
		} else {
			res.Over1s++
		}
		if rtt > res.MaxRTT {
			res.MaxRTT = rtt
		}
	})
	// Percentiles over the sorted pair latencies.
	slices.Sort(all)
	for _, p := range []int{10, 50, 90, 99} {
		res.Percentile[p] = all[len(all)*p/100]
	}
	return res, nil
}

// Figure13Row is one cluster-size point of the grouping-quality curve.
type Figure13Row struct {
	K        int
	Avg, Max sim.Duration
}

// Figure13Result holds the grouping-quality curve.
type Figure13Result struct{ Rows []Figure13Row }

// String renders the curve.
func (r *Figure13Result) String() string {
	t := table{
		title:  "Figure 13 — average and maximum latency within locality-selected virtual clusters",
		header: []string{"Hosts", "Avg (ms)", "Max (ms)"},
	}
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%d", row.K), ms(row.Avg), ms(row.Max))
	}
	t.notes = append(t.notes,
		"paper: k=8→1.3/1.9 ms, 16→15.4/25.4, 32→26.1/44.8, 64→54.1/67.3")
	return t.String()
}

// Figure13 runs the locality-sensitive grouping for k = 2..75 on the
// 400-host dataset.
func Figure13(o Options) (*Figure13Result, error) {
	o = o.withDefaults()
	d := planetlab.Generate(o.Seed, planetlab.Config{Hosts: 400})
	ks := []int{2, 4, 8, 12, 16, 24, 32, 48, 64, 75}
	if o.Quick {
		ks = []int{2, 8, 16, 32, 64}
	}
	res := &Figure13Result{}
	for _, k := range ks {
		g, err := grouping.LocalitySensitive(d.RTT, k)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure13Row{
			K:   k,
			Avg: grouping.MeanLatency(d.RTT, g),
			Max: grouping.MaxLatency(d.RTT, g),
		})
	}
	return res, nil
}

// ---- shared helpers for Figure 14 ----

// planetlabPool derives a pool of scenario specs whose pairwise RTTs are
// sampled from the PlanetLab dataset: the pool is pre-filtered with the
// locality strategy (as the paper pre-selects 64 reasonable hosts from
// the 400) so that even "random" clusters are connectable.
func planetlabPool(seed int64, pool int) ([]scenario.Spec, map[[2]string]sim.Duration, [][]sim.Duration) {
	d := planetlab.Generate(seed, planetlab.Config{Hosts: 400})
	// Pre-select connectable candidates the way the paper pre-filters 64
	// of 400: drop overloaded nodes but keep the geographic spread, so
	// random clusters still straddle continents while the
	// locality-sensitive strategy can find a regional subcluster.
	var healthy []int
	for i, h := range d.Hosts {
		if !h.Overloaded {
			healthy = append(healthy, i)
		}
	}
	pre := make([]int, 0, pool)
	step := len(healthy) / pool
	if step < 1 {
		step = 1
	}
	for i := 0; len(pre) < pool && i < len(healthy); i += step {
		pre = append(pre, healthy[i])
	}
	specs := make([]scenario.Spec, pool)
	overrides := make(map[[2]string]sim.Duration)
	rtts := make([][]sim.Duration, pool)
	for i := range specs {
		specs[i] = scenario.Spec{
			Key:       fmt.Sprintf("pl%03d", pre[i]),
			RTTToHub:  d.RTT[pre[i]][pre[0]]/2 + time.Millisecond,
			AccessBps: 100e6,
			NAT:       nat.FullCone,
		}
		rtts[i] = make([]sim.Duration, pool)
	}
	for i := 0; i < pool; i++ {
		for j := 0; j < pool; j++ {
			if i == j {
				continue
			}
			rtts[i][j] = d.RTT[pre[i]][pre[j]]
			if i < j {
				overrides[[2]string{specs[i].Key, specs[j].Key}] = d.RTT[pre[i]][pre[j]]
			}
		}
	}
	return specs, overrides, rtts
}
