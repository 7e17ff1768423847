// Command benchmark measures what the Go simulator costs — wall time,
// allocation, live heap — on the path real core.Hosts, ipstack, netsim
// and sim.Engine run, next to what the modelled WAVNet delivers in
// virtual time. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Each timed rep is a fixed amount of work; a run repeats it until the
// measured phases add up to -seconds, and at least minTimedReps times.
const minTimedReps = 3

// A traced run folds its CPU profile once it holds minCPUSamples (at the
// committed size), or after maxTracedReps traced reps.
const (
	minCPUSamples = 2000
	maxTracedReps = 5
)

// setupProbes bounds the set-up-only builds a run adds so that setup_s,
// a matter of milliseconds on the small worlds, is a median of many.
const (
	setupProbeMax    = 200
	setupProbeBudget = 500 * time.Millisecond
)

// env is where a report was measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit,omitempty"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env       env               `json:"env"`
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Reps holds the per-rep values a median was taken over.
	Reps []float64 `json:"reps,omitempty"`
}

type workloadReport struct {
	Name           string                 `json:"name"`
	Why            string                 `json:"why"`
	TimedReps      int                    `json:"timed_reps"`
	Attempted      uint64                 `json:"attempted"`
	Failed         uint64                 `json:"failed"`
	FirstFailure   string                 `json:"first_failure,omitempty"`
	TailPercentile float64                `json:"sim_lat_tail_percentile"`
	LatSamples     int                    `json:"sim_lat_samples"`
	SimEvents      uint64                 `json:"sim_events"`
	SimEndNs       int64                  `json:"sim_end_ns"`
	EndToEnd       map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
}

func currentEnv() env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input and of the world")
		seconds = flag.Float64("seconds", 20, "measure until the timed reps add up to this many seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer counts, shims, profiles and the rigs instead of the end-to-end medians")
		scale   = flag.Float64("scale", 1, "size of every workload relative to the committed size")
		out     = flag.String("out", "", "write the full report as JSON to this file")
		dump    = flag.String("dump", "", "directory for the traced rep's spans and CPU profile")
		rigOnly = flag.Bool("rigs", false, "run only the per-layer rigs")
		compare = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	// One P: the simulation is one logical thread, and on several Ps every
	// Proc hand-off becomes a cross-thread wake that doubles wall_s and
	// makes it swing by a tenth from rep to rep. The traced run reports
	// what all CPUs cost as harness.wall_nprocs_ratio.
	runtime.GOMAXPROCS(1)

	full := &report{Env: currentEnv(), Seed: *seed, Scale: *scale, Seconds: *seconds}
	if *rigOnly {
		vals, err := runRigs(time.Duration(len(rigs)) * time.Second)
		if err != nil {
			fatal(1, "%v", err)
		}
		printMetrics(os.Stdout, "rigs", rigMetrics, vals)
		return
	}
	selected := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		selected = []workload{wl}
	}
	ok := true
	for _, wl := range selected {
		var wr *workloadReport
		var err error
		if *trace != 0 {
			wr, err = runTraced(wl, *seed, *scale, *seconds, *dump)
		} else {
			wr, err = runTimed(wl, *seed, *scale, *seconds, minTimedReps)
		}
		if err != nil {
			fatal(1, "%v", err)
		}
		full.Workloads = append(full.Workloads, wr)
		printWorkload(os.Stdout, wr)
		ok = ok && wr.Failed == 0
	}
	if *out != "" {
		if err := writeReport(*out, full); err != nil {
			fatal(1, "%v", err)
		}
	}
	if *name != "" {
		fmt.Println(resultLine(full.Workloads[0]))
	}
	if !ok {
		fatal(1, "output verification failed")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runTimed is the untraced run: a warm-up at an eighth of the size, then
// timed reps with every instrument off. Every metric is the median over
// the timed reps; the sim-clock ones must agree exactly between them,
// because one seed is one simulation.
func runTimed(wl workload, seed int64, scale, seconds float64, minReps int) (*workloadReport, error) {
	var setups []float64
	warm, err := runRep(wl, &rep{seed: seed, scale: scale / 8})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setups = append(setups, warm.SetupS)
	var reps []*rep
	for measured := 0.0; len(reps) < minReps || measured < seconds; {
		r, err := runRep(wl, &rep{seed: seed, scale: scale})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		setups = append(setups, r.SetupS)
		measured += r.WallS
	}
	for t0 := time.Now(); len(setups) < setupProbeMax && time.Since(t0) < setupProbeBudget; {
		r, err := runRep(wl, &rep{seed: seed, scale: scale, setupOnly: true})
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, r.SetupS)
	}
	first := reps[0]
	for i, r := range reps[1:] {
		if err := sameSimulation(wl, first, r); err != nil {
			return nil, fmt.Errorf("%s: rep %d differs from rep 1 on one seed: %w", wl.name, i+2, err)
		}
	}
	wr := newWorkloadReport(wl, first)
	wr.TimedReps = len(reps)
	wr.EndToEnd = map[string]metricValue{}
	for _, def := range endToEnd {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.endToEndValue(def.Name)
		}
		if def.Name == "setup_s" {
			vals = setups
		}
		wr.EndToEnd[def.Name] = metricValue{Value: median(vals), Unit: def.Unit, Reps: vals}
	}
	return wr, nil
}

// sameSimulation checks what a host-time-only change must keep between
// two reps of one seed: event count, final virtual time, ops and every
// sim_* value. On a looseSim workload a difference is printed, not
// returned.
func sameSimulation(wl workload, a, b *rep) error {
	err := simDifference(a, b)
	if err != nil && wl.looseSim {
		fmt.Fprintf(os.Stderr, "benchmark: %s: two reps of one seed differ: %v\n", wl.name, err)
		return nil
	}
	return err
}

func simDifference(a, b *rep) error {
	if a.Counts["sim.events"] != b.Counts["sim.events"] {
		return fmt.Errorf("sim.events %v against %v", a.Counts["sim.events"], b.Counts["sim.events"])
	}
	if a.SimEnd != b.SimEnd {
		return fmt.Errorf("final virtual time %v against %v", a.SimEnd, b.SimEnd)
	}
	if a.Ops != b.Ops || a.Failed != b.Failed {
		return fmt.Errorf("ops %d (%d failed) against %d (%d failed)", a.Ops, a.Failed, b.Ops, b.Failed)
	}
	for _, def := range endToEnd {
		if strings.HasPrefix(def.Name, "sim_") && a.endToEndValue(def.Name) != b.endToEndValue(def.Name) {
			return fmt.Errorf("%s %v against %v", def.Name, a.endToEndValue(def.Name), b.endToEndValue(def.Name))
		}
	}
	return nil
}

func newWorkloadReport(wl workload, r *rep) *workloadReport {
	return &workloadReport{
		Name: wl.name, Why: wl.why,
		Attempted: r.Attempted, Failed: r.Failed, FirstFailure: r.VerifyErr,
		TailPercentile: r.TailPct, LatSamples: r.LatSamples,
		SimEvents: uint64(r.Counts["sim.events"]), SimEndNs: int64(r.SimEnd),
	}
}

// runTraced is the traced run: a warm-up, one untraced rep as the
// reference, the same rep again under the tracer, once more on every
// CPU, then the rigs with what is left of the time.
func runTraced(wl workload, seed int64, scale, seconds float64, dumpDir string) (*workloadReport, error) {
	t0 := time.Now()
	if _, err := runRep(wl, &rep{seed: seed, scale: scale / 8}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := runRep(wl, &rep{seed: seed, scale: scale})
	if err != nil {
		return nil, err
	}
	// The kernel's tick caps the profile near 250 samples a second, so
	// the traced rep repeats until the profile is worth folding.
	tr := &tracer{workload: wl.name, dumpDir: dumpDir}
	var traced *rep
	var tracedWall []float64
	for len(tracedWall) < maxTracedReps && tr.cpuSamples < minCPUSamples*scale {
		if traced, err = runRep(wl, &rep{seed: seed, scale: scale, trace: tr}); err != nil {
			return nil, err
		}
		if tr.err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, tr.err)
		}
		if err := sameSimulation(wl, plain, traced); err != nil {
			return nil, fmt.Errorf("%s: tracing changed the simulation: %w", wl.name, err)
		}
		tracedWall = append(tracedWall, traced.WallS)
	}
	if err := tr.dump(); err != nil {
		return nil, err
	}
	vals := traced.Counts
	for _, s := range []string{"setup_build", "setup_apply", "measure", "scrape", "verify"} {
		vals["span."+s+"_s"] = tr.spans.total(s) // of the last traced rep
	}
	if tr.rxFrames > 0 {
		vals["ipstack.rx_ns_per_frame"] = float64(tr.rxNs.Nanoseconds()) / float64(tr.rxFrames)
	}
	if tr.txFrames > 0 {
		vals["ether.tx_ns_per_frame"] = float64(tr.txNs.Nanoseconds()) / float64(tr.txFrames)
	}
	for l, v := range tr.cpuShare() {
		vals[l+".cpu_share"] = v
	}
	for l, v := range tr.allocShare() {
		vals[l+".alloc_share"] = v
	}
	vals["trace.cpu_samples"] = tr.cpuSamples
	vals["trace.overhead_share"] = (median(tracedWall) - plain.WallS) / plain.WallS

	vals["harness.wall_nprocs_ratio"] = 1
	if n := runtime.NumCPU(); n > 1 {
		prev := runtime.GOMAXPROCS(n)
		wide, err := runRep(wl, &rep{seed: seed, scale: scale})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		if err := sameSimulation(wl, plain, wide); err != nil {
			return nil, fmt.Errorf("%s: GOMAXPROCS changed the simulation: %w", wl.name, err)
		}
		vals["harness.wall_nprocs_ratio"] = wide.WallS / plain.WallS
	}

	// The rigs get the rest of -seconds, and never less than a quarter
	// of a second each.
	budget := time.Duration(seconds*float64(time.Second)) - time.Since(t0)
	if floor := time.Duration(float64(len(rigs)) * scale * float64(250*time.Millisecond)); budget < floor {
		budget = floor
	}
	rigVals, err := runRigs(budget)
	if err != nil {
		return nil, err
	}
	for k, v := range rigVals {
		vals[k] = v
	}
	vals["attribution.rig_coverage"] = rigCoverage(vals, plain.WallS)

	wr := newWorkloadReport(wl, traced)
	wr.PerLayer = map[string]metricValue{}
	for _, def := range perLayer() {
		wr.PerLayer[def.Name] = metricValue{Value: vals[def.Name], Unit: def.Unit}
	}
	return wr, nil
}

// rigCoverage is the share of wall_s the rigs can explain: every event
// at the engine rig's price, plus each layer's self time per call — its
// rig's time less its rig's events — times the calls the phase counted.
// The layers' rigs overlap (a host frame crosses netsim and two
// bridges), so the core term takes those out again. It is a rough check
// that no large cost hides outside the rigs, not a budget.
func rigCoverage(v map[string]float64, wallS float64) float64 {
	perEvent := v["sim.ns_per_event"]
	self := func(rig, events string) float64 {
		if s := v[rig] - v[events]*perEvent; s > 0 {
			return s
		}
		return 0
	}
	netsimSelf := self("netsim.ns_per_packet_nat", "netsim.events_per_packet_nat")
	bridgeSelf := self("ether.ns_per_bridge_frame", "ether.events_per_bridge_frame")
	coreSelf := self("core.ns_per_frame_host", "core.events_per_frame_host") - netsimSelf - 2*bridgeSelf
	if coreSelf < 0 {
		coreSelf = 0
	}
	ns := v["sim.events"]*perEvent +
		v["netsim.packets"]*netsimSelf/2 + // the NAT rig's packet is delivered twice: gateway, then host
		(v["ether.bridge_forwarded"]+v["ether.bridge_flooded"])*bridgeSelf +
		v["core.frames_sent"]*coreSelf +
		v["ipstack.segs_out"]*self("ipstack.ns_per_segment", "ipstack.events_per_segment") +
		v["rendezvous.lookups"]*self("rendezvous.ns_per_lookup", "rendezvous.events_per_lookup") +
		v["obs.scrape_series"]*v["obs.ns_per_series"]
	if wallS <= 0 {
		return 0
	}
	return ns / 1e9 / wallS
}

// ---- output ----

func printWorkload(w io.Writer, wr *workloadReport) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", wr.Name, wr.Why)
	fmt.Fprintf(w, "ops attempted %d, failed %d; sim.events %d; virtual end %.6f s; latency tail = p%g of %d samples\n",
		wr.Attempted, wr.Failed, wr.SimEvents, float64(wr.SimEndNs)/1e9, wr.TailPercentile, wr.LatSamples)
	if wr.FirstFailure != "" {
		fmt.Fprintf(w, "first failure: %s\n", wr.FirstFailure)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "%d timed reps; host-clock metrics are medians [min .. max], sim_* are exact per seed\n", wr.TimedReps)
		for _, def := range endToEnd {
			mv := wr.EndToEnd[def.Name]
			lo, hi := minMax(mv.Reps)
			fmt.Fprintf(w, "  %-18s %14.6g %-6s [%.6g .. %.6g]  %s is better, bound %g%%\n", def.Name, mv.Value, mv.Unit, lo, hi, def.Better, def.Bound*100)
		}
	}
	if wr.PerLayer != nil {
		vals := map[string]float64{}
		for k, mv := range wr.PerLayer {
			vals[k] = mv.Value
		}
		printMetrics(w, "per layer (traced rep, rigs)", perLayer(), vals)
	}
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, def := range defs {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", def.Name, vals[def.Name], def.Unit)
	}
}

// resultLine is the last line of a single-workload run.
func resultLine(wr *workloadReport) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.EndToEnd
	if wr.PerLayer != nil {
		src = wr.PerLayer
	}
	metrics := make(map[string]mv, len(src))
	for k, v := range src {
		metrics[k] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fatal(1, "%v", err)
	}
	return string(b)
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
