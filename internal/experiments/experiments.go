// Package experiments reproduces every table and figure of the paper's
// evaluation (Section III) plus the sweeps beyond it. Each driver
// measures end-to-end on the simulated substrate and returns a typed
// result whose String() renders a paper-style table; cmd/wavnet-bench
// and the repository-root benchmarks are thin wrappers around these
// functions.
//
// Every world has one lifecycle, withWorld: it is built from a seed and
// machine specs, measured, then finished — the Options.Observer, then
// World.ScrapeCheck — exactly once, after its last measurement. Drivers
// run a process to completion with World.RunProc, set up a broker
// federation with addBrokers and walk sweep points with sweep.
package experiments

import (
	"fmt"
	"strings"

	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// Options tunes experiment cost. Quick mode shrinks durations and
// transfer sizes (the defaults used by `go test -bench`); Paper mode
// uses the paper's parameters where tractable.
type Options struct {
	Seed int64
	// Quick selects reduced durations/sizes (default true).
	Quick bool
	// Observer, when set, is handed every world an experiment or the
	// trajectory builds, once, after its last measurement and before the
	// final scrape check. cmd/wavnet-bench uses it to dump metrics, flow
	// telemetry and alert state from the same worlds the experiments
	// measured.
	Observer func(*scenario.World)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// withWorld is the one way an experiment world lives: built from seed,
// specs and overrides, handed to measure, and — when measure succeeds —
// finished before its result is returned.
func withWorld[R any](o Options, seed int64, specs []scenario.Spec, overrides map[[2]string]sim.Duration,
	measure func(w *scenario.World) (R, error)) (R, error) {
	var zero R
	w, err := scenario.Build(seed, specs, overrides)
	if err != nil {
		return zero, err
	}
	r, err := measure(w)
	if err == nil {
		err = o.finish(w)
	}
	if err != nil {
		return zero, err
	}
	return r, nil
}

// finish runs the caller's observer (if any) over the measured world,
// then asserts the world-wide scrape is intact. Only withWorld calls it.
func (o Options) finish(w *scenario.World) error {
	if o.Observer != nil {
		o.Observer(w)
	}
	return w.ScrapeCheck()
}

// scaled returns q in quick mode, p otherwise (durations and byte
// counts alike).
func scaled[T any](o Options, q, p T) T {
	if o.Quick {
		return q
	}
	return p
}

// sweep measures every point in order and collects the rows; a failing
// point's error is wrapped with its label.
func sweep[P, R any](points []P, once func(i int, pt P) (*R, error), label func(pt P) string) ([]R, error) {
	var rows []R
	for i, pt := range points {
		row, err := once(i, pt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(pt), err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// pc names the emulated-WAN machine with index i.
func pc(i int) string { return fmt.Sprintf("pc%02d", i) }

// pcs names the first n emulated-WAN machines.
func pcs(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = pc(i)
	}
	return keys
}

// brokerSet is the broker federation of the sweeps beyond the paper:
// brokers b0..bN-1 and a witness broker no spec names.
type brokerSet struct {
	names   []string
	servers []*rendezvous.Server
	witness *rendezvous.Server
}

// addBrokers adds n brokers with cfg, then the witness with witnessCfg,
// then homes members[i] on broker i mod n — in that order, since
// creation order decides sequence numbers.
func addBrokers(w *scenario.World, n int, cfg, witnessCfg rendezvous.Config, members []string) (*brokerSet, error) {
	bs := &brokerSet{names: make([]string, n), servers: make([]*rendezvous.Server, n)}
	for i := range bs.names {
		bs.names[i] = fmt.Sprintf("b%d", i)
		s, err := w.AddBroker(bs.names[i], cfg)
		if err != nil {
			return nil, err
		}
		bs.servers[i] = s
	}
	var err error
	if bs.witness, err = w.AddBroker("witness", witnessCfg); err != nil {
		return nil, err
	}
	for i, key := range members {
		if err := w.SetHome(key, bs.names[i%n]); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

// Runner is a registered experiment.
type Runner struct {
	ID    string // "table2", "figure6", ...
	Title string
	Run   func(Options) (fmt.Stringer, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Table I: host configuration (topology definition)", func(o Options) (fmt.Stringer, error) { return TableI(o) }},
		{"table2", "Table II: network latency by ICMP request/response", func(o Options) (fmt.Stringer, error) { return TableII(o) }},
		{"figure6", "Figure 6: TTCP bandwidth benchmark over WAN (HKU-SIAT)", func(o Options) (fmt.Stringer, error) { return Figure6(o) }},
		{"figure7", "Figure 7: bandwidth utilization under different network conditions", func(o Options) (fmt.Stringer, error) { return Figure7(o) }},
		{"figure8", "Figure 8: Netperf performance while scaling virtual cluster size", func(o Options) (fmt.Stringer, error) { return Figure8(o) }},
		{"figure9", "Figure 9: VM network bandwidth during live migration", func(o Options) (fmt.Stringer, error) { return Figure9(o) }},
		{"table3", "Table III: HTTP connection time before/after VM migration", func(o Options) (fmt.Stringer, error) { return TableIII(o) }},
		{"table4", "Table IV: HTTP throughput before/after VM migration", func(o Options) (fmt.Stringer, error) { return TableIV(o) }},
		{"figure10", "Figure 10: ICMP RTT and HTTP throughput during live migration", func(o Options) (fmt.Stringer, error) { return Figure10(o) }},
		{"table5", "Table V: time of VM live migration among different sites", func(o Options) (fmt.Stringer, error) { return TableV(o) }},
		{"figure11", "Figure 11: MPICH heat distribution with/without VM migration", func(o Options) (fmt.Stringer, error) { return Figure11(o) }},
		{"figure12", "Figure 12: network latency reported on PlanetLab (400 hosts)", func(o Options) (fmt.Stringer, error) { return Figure12(o) }},
		{"figure13", "Figure 13: average and maximum latency within virtual cluster", func(o Options) (fmt.Stringer, error) { return Figure13(o) }},
		{"figure14", "Figure 14: locality-sensitive vs random selection (NAS EP/FT)", func(o Options) (fmt.Stringer, error) { return Figure14(o) }},
		{"vpc", "VPC isolation & scale: overlapping tenants over one shared fabric (beyond the paper)", func(o Options) (fmt.Stringer, error) { return VPCScale(o) }},
		{"peering", "VPC peering & quotas: policy-allowed routes and tenant rate limits (beyond the paper)", func(o Options) (fmt.Stringer, error) { return PeeringQuota(o) }},
		{"federation", "Federated rendezvous: cross-broker lookup/connect vs broker count and replication lag (beyond the paper)", func(o Options) (fmt.Stringer, error) { return Federation(o) }},
		{"failover", "Broker failover: time-to-re-home and connect success after a home-broker crash (beyond the paper)", func(o Options) (fmt.Stringer, error) { return Failover(o) }},
		{"placement", "VM placement: scheduler locality, migration time and connect success per tenant (beyond the paper)", func(o Options) (fmt.Stringer, error) { return Placement(o) }},
		{"migration", "VM migration micro-sweep: time/downtime/rounds and clean abort under partition (beyond the paper)", func(o Options) (fmt.Stringer, error) { return MigrationSweep(o) }},
		{"service", "Tenant services: VIP failover time and request success vs probe budget, backends and brokers (beyond the paper)", func(o Options) (fmt.Stringer, error) { return ServiceFailover(o) }},
	}
}

// ByID resolves a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- rendering helpers ----

type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(d sim.Duration) string   { return fmt.Sprintf("%.3f", float64(d)/1e6) }
func msf(v float64) string       { return fmt.Sprintf("%.1f", v) }
func mbps(v float64) string      { return fmt.Sprintf("%.2f", v) }
func secs(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// frac renders ok out of n, or "-" when nothing was attempted.
func frac(ok, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", ok, n)
}
