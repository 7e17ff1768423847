package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// TableIResult reports the scenario definition derived from Table I.
type TableIResult struct{ tbl table }

func (r *TableIResult) String() string { return r.tbl.String() }

// TableI renders the topology the real-WAN experiments run on and
// verifies it builds.
func TableI(o Options) (*TableIResult, error) {
	o = o.withDefaults()
	return withWorld(o, o.Seed, scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(*scenario.World) (*TableIResult, error) {
		res := &TableIResult{tbl: table{
			title:  "Table I — host configuration in the (simulated) real WAN environment",
			header: []string{"Site", "RTT to HKU (ms)", "Access (Mbps)", "NAT"},
		}}
		for _, sp := range scenario.RealWANSpecs() {
			res.tbl.addRow(sp.Key, ms(sp.RTTToHub), mbps(sp.AccessBps/1e6), sp.NAT.String())
		}
		return res, nil
	})
}

// TableIIRow is one site pair's latency measurement.
type TableIIRow struct {
	Pair                   string
	Physical, WAVNet, IPOP sim.Duration
	LossPct                float64
}

// TableIIResult holds the ICMP comparison of Table II.
type TableIIResult struct {
	Rows []TableIIRow
}

// String renders the paper-style table.
func (r *TableIIResult) String() string {
	t := table{
		title:  "Table II — network latency test by ICMP request/response (mean RTT, ms)",
		header: []string{"Sites", "Physical", "WAVNet", "IPOP"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Pair, ms(row.Physical), ms(row.WAVNet), ms(row.IPOP))
	}
	t.notes = append(t.notes, "paper: HKU-SIAT 74.244/74.207/74.596; HKU-PU 30.233/30.753/31.187; SIAT-PU 219.427/219.783/220.533")
	return t.String()
}

// TableII runs ping over the physical path, the WAVNet tunnel and the
// IPOP overlay for the paper's three site pairs.
func TableII(o Options) (*TableIIResult, error) {
	o = o.withDefaults()
	return withWorld(o, o.Seed, scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (*TableIIResult, error) {
		keys := []string{"HKU1", "SIAT", "PU"}
		if err := w.WAVNetUp(keys...); err != nil {
			return nil, err
		}
		if err := w.IPOPUp(keys...); err != nil {
			return nil, err
		}
		pairs := [][2]string{{"HKU1", "SIAT"}, {"HKU1", "PU"}, {"SIAT", "PU"}}
		duration := scaled(o, 30*time.Second, 10*time.Minute)
		interval := time.Second

		res := &TableIIResult{}
		for _, pair := range pairs {
			a, b := w.M(pair[0]), w.M(pair[1])
			pa, pb, err := w.PhysicalPair(a, b)
			if err != nil {
				return nil, err
			}
			// Warm every path's ARP before measuring.
			warm := func(run func(p *sim.Proc)) { w.RunProc("warm", 5*time.Second, 5*time.Second, run) }
			warm(func(p *sim.Proc) { pa.Ping(p, pb.IP(), 56, 2*time.Second) })
			warm(func(p *sim.Proc) { a.Dom0().Ping(p, b.VIP, 56, 2*time.Second) })
			warm(func(p *sim.Proc) { a.IPOP.Dom0().Ping(p, b.IPOPVIP, 56, 2*time.Second) })

			phys, _ := apps.StartPinger(pa, pb.IP(), interval, duration)
			wav, _ := apps.StartPinger(a.Dom0(), b.VIP, interval, duration)
			ipp, _ := apps.StartPinger(a.IPOP.Dom0(), b.IPOPVIP, interval, duration)
			w.Eng.RunFor(duration + 5*time.Second)
			row := TableIIRow{
				Pair:     fmt.Sprintf("%s-%s", pair[0], pair[1]),
				Physical: sim.Duration(phys.RTTms.Summary().Mean * 1e6),
				WAVNet:   sim.Duration(wav.RTTms.Summary().Mean * 1e6),
				IPOP:     sim.Duration(ipp.RTTms.Summary().Mean * 1e6),
				LossPct:  100 * (phys.LossRate() + wav.LossRate() + ipp.LossRate()),
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	})
}
