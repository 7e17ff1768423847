package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload to a fiftieth: all four, traced, and
// every rig in a few seconds, so `go test` keeps the harness honest.
const testScale = 0.02

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check("workload", wl.name)
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters", wl.name, len(wl.why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer() {
		check("per-layer", d.Name)
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the tables the
// harness prints from. It is skipped where the file is not next to the
// benchmark's directory.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: declared %q, code has %q", i, doc.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, declared, code []metricDef) {
		if len(declared) != len(code) {
			t.Fatalf("%d %s metrics declared, %d in code", len(declared), kind, len(code))
		}
		for i := range code {
			if declared[i] != code[i] {
				t.Errorf("%s metric %d: declared %+v, code has %+v", kind, i, declared[i], code[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer())
}

func TestWorkloadsTimedAndTraced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := &report{Env: currentEnv(), Seed: 7, Scale: testScale}
	for _, wl := range workloads {
		timed, err := runTimed(wl, 7, testScale, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if timed.Failed != 0 || timed.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", wl.name, timed.Failed, timed.Attempted, timed.FirstFailure)
		}
		for _, d := range endToEnd {
			mv, ok := timed.EndToEnd[d.Name]
			if !ok || mv.Value <= 0 || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v", wl.name, d.Name, mv.Value)
			}
		}
		rep.Workloads = append(rep.Workloads, timed)

		traced, err := runTraced(wl, 7, testScale, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if traced.SimEvents != timed.SimEvents || traced.SimEndNs != timed.SimEndNs {
			t.Errorf("%s: traced run simulated %d events to %d ns, timed run %d to %d",
				wl.name, traced.SimEvents, traced.SimEndNs, timed.SimEvents, timed.SimEndNs)
		}
		for _, layers := range []struct {
			suffix string
			names  []string
		}{{".cpu_share", cpuLayers}, {".alloc_share", allocLayers}} {
			sum := 0.0
			for _, l := range layers.names {
				sum += traced.PerLayer[l+layers.suffix].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: %s sums to %v", wl.name, layers.suffix, sum)
			}
		}
		for _, d := range perLayer() {
			if _, ok := traced.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, d.Name)
			}
		}
		checkBypass(t, wl.name, traced.PerLayer)
	}

	// The report survives a round trip, and compared with itself nothing
	// is worse. Host-clock rows may come out unresolved at this size:
	// two reps of a few milliseconds spread wider than their bounds.
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Error("report changed in a JSON round trip")
	}
	var out bytes.Buffer
	if code := compareFiles(path, path, &out); code != 0 {
		t.Errorf("comparing a report with itself exits %d:\n%s", code, out.String())
	}
	for _, wr := range rep.Workloads {
		for _, d := range endToEnd {
			verdict, _ := judge(d, wr.EndToEnd[d.Name], wr.EndToEnd[d.Name])
			if sim := strings.HasPrefix(d.Name, "sim_"); verdict != "ok" && (sim || verdict != "unresolved") {
				t.Errorf("%s %s against itself: %s", wr.Name, d.Name, verdict)
			}
		}
	}
}

// checkBypass holds each workload to what it claims to leave idle.
func checkBypass(t *testing.T, name string, pl map[string]metricValue) {
	v := func(k string) float64 { return pl[k].Value }
	switch name {
	case "bulk_tagged":
		if v("core.frames_per_batch") >= 2 || v("core.relayed_tunnels") != 0 || v("ipstack.segs_out") == 0 {
			t.Errorf("bulk_tagged: frames/batch %v, relayed tunnels %v, segments %v", v("core.frames_per_batch"), v("core.relayed_tunnels"), v("ipstack.segs_out"))
		}
	case "udp_small_burst":
		if v("ipstack.segs_out") != 0 || v("core.frames_per_batch") < 6 {
			t.Errorf("udp_small_burst: segments %v, frames/batch %v", v("ipstack.segs_out"), v("core.frames_per_batch"))
		}
	case "rr_relay_mesh":
		if v("core.relayed_tunnels") < 6 || v("rendezvous.relay_frames") == 0 {
			t.Errorf("rr_relay_mesh: relayed tunnels %v, relay frames %v", v("core.relayed_tunnels"), v("rendezvous.relay_frames"))
		}
	case "control_scrape":
		if v("obs.scrape_calls") == 0 || v("harness.sim_goodput_mbps") != 0 || v("rendezvous.lookups") == 0 {
			t.Errorf("control_scrape: scrape calls %v, goodput %v, lookups %v", v("obs.scrape_calls"), v("harness.sim_goodput_mbps"), v("rendezvous.lookups"))
		}
	}
}

func TestRigsReportEveryMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	vals, err := runRigs(time.Duration(len(rigs)) * 20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rigMetrics {
		if v, ok := vals[d.Name]; !ok || v <= 0 && d.Unit == "ns" {
			t.Errorf("rig metric %s = %v", d.Name, v)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_ops_per_s", Better: "higher", Bound: 0.02}
	mv := func(v float64, reps ...float64) metricValue { return metricValue{Value: v, Reps: reps} }
	for _, c := range []struct {
		def  metricDef
		a, b metricValue
		want string
	}{
		{lower, mv(10), mv(10.5), "ok"},
		{lower, mv(10), mv(11.5), "worse"},
		{lower, mv(10), mv(8), "better"},
		{lower, mv(10, 9, 10, 12), mv(11.5), "unresolved"},
		{higher, mv(100), mv(97), "worse"},
		{higher, mv(100), mv(103), "better"},
		{higher, mv(100), mv(99), "ok"},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v judged %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestStackFolding(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"wavnet/internal/sim.(*Engine).Step", "main.main"}, "sim"},
		{[]string{"container/heap.down", "container/heap.Pop", "wavnet/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.memmove", "wavnet/internal/ipstack.(*Conn).Write"}, "runtime.mem"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend", "wavnet/internal/sim.(*Proc).activate"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "wavnet/internal/core.(*Host).enqueueFrame"}, "runtime.gc"},
		{[]string{"runtime.mapaccess2_fast64", "wavnet/internal/netsim.(*Network).wanTransit"}, "netsim"},
		{[]string{"wavnet/internal/ether.(*MACTable[go.shape.*uint8]).Lookup", "wavnet/internal/core.(*Host).switchFrame"}, "ether"},
		{[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.Update", "main.runBulkTagged.func2"}, "harness"},
		{[]string{"wavnet/internal/metrics.(*CounterSet).Set", "wavnet/internal/core.(*Host).VPCCounters"}, "obs"},
		{[]string{"fmt.Sprintf", "os.(*File).Write"}, "other"},
	} {
		if got := cpuLayer(c.stack); got != c.want {
			t.Errorf("cpuLayer(%v) = %s, want %s", c.stack[0], got, c.want)
		}
	}
	if got := allocLayer([]string{"runtime.mallocgc", "runtime.growslice", "wavnet/internal/nat.(*Gateway).outbound"}); got != "other" {
		t.Errorf("an allocation in nat folds into %s, want other", got)
	}
}
