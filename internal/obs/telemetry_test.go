package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wavnet/internal/sim"
)

// TestHistogramQuantileEdges pins the geometric-interpolation corner
// cases: an empty histogram, a single-bucket point mass, and values
// past the last doubling bucket (which clamp into it).
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", q, v)
		}
	}
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatalf("empty mean/max = %g/%g, want 0/0", empty.Mean(), empty.Max())
	}

	// Single bucket: everything lands in (128, 256]; interpolation must
	// stay clamped to the observed [min, max], and q<=0 / q>=1 return the
	// extrema exactly.
	single := NewHistogram()
	for i := 0; i < 100; i++ {
		single.Observe(200)
	}
	single.Observe(130)
	single.Observe(250)
	if got := single.Quantile(-1); got != 130 {
		t.Fatalf("Quantile(-1) = %g, want min 130", got)
	}
	if got := single.Quantile(2); got != 250 {
		t.Fatalf("Quantile(2) = %g, want max 250", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		v := single.Quantile(q)
		if v < 130 || v > 250 {
			t.Fatalf("Quantile(%g) = %g outside observed [130, 250]", q, v)
		}
	}

	// Max-bucket overflow: values beyond 2^63 clamp into the last bucket
	// and quantiles still clamp to the observed max, not the bucket's
	// upper bound.
	huge := NewHistogram()
	big := math.Exp2(70)
	huge.Observe(big)
	huge.Observe(big * 2)
	if got := huge.Quantile(0.99); got > big*2 {
		t.Fatalf("overflow Quantile(0.99) = %g exceeds observed max %g", got, big*2)
	}
	if got := huge.Max(); got != big*2 {
		t.Fatalf("overflow Max = %g, want %g", got, big*2)
	}
	// The sub-1 bucket: zeros and negatives all land in bucket 0 and
	// interpolate inside [0, 1] clamped to the observations.
	low := NewHistogram()
	low.Observe(-5) // clamps to 0
	low.Observe(0.5)
	low.Observe(1)
	if v := low.Quantile(0.5); v < 0 || v > 1 {
		t.Fatalf("bucket-0 Quantile(0.5) = %g outside [0, 1]", v)
	}
}

// TestAddHistogramFolds covers the external-histogram fold used by
// World.Scrape for per-host batch-size distributions.
func TestAddHistogramFolds(t *testing.T) {
	r := NewRegistry()
	ext := NewHistogram()
	ext.Observe(8)
	ext.Observe(16)
	r.AddHistogram("batch_frames", Labels{Host: "pc00"}, ext)
	r.AddHistogram("batch_frames", Labels{Host: "pc00"}, nil) // nil-safe no-op
	h := r.Histogram("batch_frames", Labels{Host: "pc00"})
	if h.Count() != 2 || h.Max() != 16 {
		t.Fatalf("folded histogram count=%d max=%g, want 2/16", h.Count(), h.Max())
	}
	// The source histogram stays untouched and can keep observing.
	ext.Observe(32)
	if h.Count() != 2 {
		t.Fatalf("registry histogram tracked the source after the fold")
	}
}

// TestDeltaRates covers per-second rates read off a Delta over an
// interval: a counter's rate, a series absent from prev counting in
// full, an absent series, and the restart clamp.
func TestDeltaRates(t *testing.T) {
	l := Labels{Broker: "b0"}
	prev, cur := NewRegistry(), NewRegistry()
	prev.Counter("pulses", l).Add(100)
	cur.Counter("pulses", l).Add(150)
	cur.Counter("joins", l).Add(10) // absent in prev: whole value is new

	const seconds = 10
	d := cur.Delta(prev)
	if v, _ := d.CounterValue("pulses", l); float64(v)/seconds != 5 {
		t.Fatalf("pulses rate = %g, want 5/s", float64(v)/seconds)
	}
	if got := float64(d.Total("joins")) / seconds; got != 1 {
		t.Fatalf("joins rate = %g, want 1/s", got)
	}
	if _, ok := d.CounterValue("missing", l); ok {
		t.Fatal("Delta invented a series absent from both registries")
	}

	// Restart: current below previous clamps the delta (and rate) to 0.
	reset := NewRegistry()
	reset.Counter("pulses", l).Add(3)
	if v, _ := reset.Delta(prev).CounterValue("pulses", l); v != 0 {
		t.Fatalf("post-restart delta = %d, want 0 (clamped)", v)
	}
}

// TestAlertEngineLifecycle drives a For-gated threshold rule through
// pending, firing, and resolved, checking the span and counters.
func TestAlertEngineLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	trace := NewTrace(eng, 0)
	e := NewAlertEngine(trace, AlertRule{
		Name: "hot", Metric: "temp", Threshold: 50, For: 2 * sim.Second,
	})
	at := func(s int) sim.Time { return sim.Time(0).Add(sim.Duration(s) * sim.Second) }
	snap := func(v float64) *Registry {
		r := NewRegistry()
		r.Gauge("temp", Labels{}).Set(v)
		return r
	}

	e.Eval(at(0), snap(10)) // calm
	if e.IsFiring("hot") || len(e.Firing()) != 0 {
		t.Fatalf("alert firing while calm")
	}
	e.Eval(at(1), snap(90)) // breach starts: pending, not yet firing
	if e.IsFiring("hot") {
		t.Fatalf("alert fired before For held")
	}
	e.Eval(at(2), snap(90)) // held 1s of 2s
	if e.IsFiring("hot") {
		t.Fatalf("alert fired at 1s of a 2s For")
	}
	e.Eval(at(3), snap(90)) // held 2s: fires
	if !e.IsFiring("hot") || e.Fired("hot") != 1 {
		t.Fatalf("alert not firing after For held (fired=%d)", e.Fired("hot"))
	}
	if e.Value("hot") != 90 {
		t.Fatalf("Value = %g, want 90", e.Value("hot"))
	}
	e.Eval(at(4), snap(90)) // still firing, no re-fire
	if e.Fired("hot") != 1 {
		t.Fatalf("steady breach re-fired (fired=%d)", e.Fired("hot"))
	}
	e.Eval(at(5), snap(10)) // recovers
	if e.IsFiring("hot") || e.Resolved("hot") != 1 {
		t.Fatalf("alert not resolved (resolved=%d)", e.Resolved("hot"))
	}

	spans := trace.Find("alert.hot")
	if len(spans) != 1 || !spans[0].Ended() {
		t.Fatalf("want 1 ended alert span, got %d", len(spans))
	}
	if !spans[0].HasEvent("firing") || !spans[0].HasEvent("resolved") {
		t.Fatalf("alert span missing lifecycle events: %v", spans[0].Events())
	}

	// A breach that recovers before For expires never fires.
	e.Eval(at(6), snap(90))
	e.Eval(at(7), snap(10))
	if e.Fired("hot") != 1 {
		t.Fatalf("sub-For blip fired the alert")
	}

	// ScrapeInto exports the lifecycle counters.
	r := NewRegistry()
	e.ScrapeInto(r)
	if v, _ := r.CounterValue("alert.hot.fired", Labels{}); v != 1 {
		t.Fatalf("exported fired = %d, want 1", v)
	}
	if v, _ := r.GaugeValue("alerts_firing", Labels{}); v != 0 {
		t.Fatalf("exported alerts_firing = %g, want 0", v)
	}
}

// TestAlertEngineRateRule checks that rate rules score per-second
// deltas and never fire on the first Eval.
func TestAlertEngineRateRule(t *testing.T) {
	e := NewAlertEngine(nil, AlertRule{
		Name: "drops", Metric: "flow_drops.partition", Rate: true, Threshold: 1,
	})
	at := func(s int) sim.Time { return sim.Time(0).Add(sim.Duration(s) * sim.Second) }
	snap := func(total uint64) *Registry {
		r := NewRegistry()
		r.Counter("flow_drops.partition", Labels{Host: "pc00"}).Add(total)
		return r
	}
	e.Eval(at(0), snap(1000)) // huge total, but rate rules need a baseline
	if e.IsFiring("drops") {
		t.Fatalf("rate rule fired on the first Eval")
	}
	e.Eval(at(10), snap(1000)) // 0/s
	if e.IsFiring("drops") {
		t.Fatalf("rate rule fired at 0/s")
	}
	e.Eval(at(20), snap(1100)) // 10/s > 1
	if !e.IsFiring("drops") || e.Value("drops") != 10 {
		t.Fatalf("rate rule not firing at 10/s (value=%g)", e.Value("drops"))
	}
	e.Eval(at(30), snap(1100)) // back to 0/s: resolves (nil trace is fine)
	if e.IsFiring("drops") || e.Resolved("drops") != 1 {
		t.Fatalf("rate rule did not resolve")
	}
	// A series absent at the previous Eval counts in full, as Delta does.
	e.Eval(at(40), NewRegistry())
	e.Eval(at(50), snap(1100))
	if e.Value("drops") != 110 {
		t.Fatalf("returning series scored %g/s, want 1100 over 10 s = 110", e.Value("drops"))
	}
}

// TestAlertEngineRateOverHistogramsAndGauges scores rate rules over
// histograms (bucket-wise delta, quantile and max) and gauges (summed
// as they are, per second) against the values Delta yields, checks that
// an Eval at the previous instant leaves rate rules alone, and that
// scoring one standing registry at advancing instants allocates nothing.
func TestAlertEngineRateOverHistogramsAndGauges(t *testing.T) {
	e := NewAlertEngine(nil,
		AlertRule{Name: "p50", Metric: "lat", Rate: true, Quantile: 0.5, Threshold: 1e9},
		AlertRule{Name: "max", Metric: "lat", Rate: true, Threshold: 1e9},
		AlertRule{Name: "load", Metric: "load", Rate: true, Threshold: 1},
	)
	at := func(s int) sim.Time { return sim.Time(0).Add(sim.Duration(s) * sim.Second) }
	a, b := Labels{Host: "pc00"}, Labels{Host: "pc01"}
	r := NewRegistry()
	fill := func(lat []float64, load float64) *Registry {
		r.Reset()
		for _, v := range lat {
			r.Histogram("lat", a).Observe(v)
		}
		r.Gauge("load", a).Set(load)
		r.Gauge("load", b).Set(load)
		return r.Snapshot()
	}
	prev := fill([]float64{1, 2, 3}, 4)
	e.Eval(at(0), r)
	if e.Value("p50") != 0 || e.Value("load") != 0 {
		t.Fatalf("rate rules scored on the first Eval: p50 %g load %g", e.Value("p50"), e.Value("load"))
	}

	// The histogram restarts each pass here, so the delta against the
	// previous pass clamps bucket-wise: only buckets that grew count.
	cur := fill([]float64{1, 2, 3, 100, 200, 300}, 4)
	e.Eval(at(2), r)
	d := cur.Delta(prev)
	if want := d.Histogram("lat", a).Quantile(0.5); e.Value("p50") != want || want == 0 {
		t.Fatalf("p50 rate value = %g, want %g from Delta", e.Value("p50"), want)
	}
	if want := d.Histogram("lat", a).Max(); e.Value("max") != want {
		t.Fatalf("max rate value = %g, want %g from Delta", e.Value("max"), want)
	}
	if e.Value("load") != 4 || !e.IsFiring("load") {
		t.Fatalf("gauge rate value = %g firing %v, want (4+4)/2s = 4 and firing", e.Value("load"), e.IsFiring("load"))
	}

	// Same instant again, even over different values: rate rules keep
	// their state, value and baseline.
	fill(nil, 0)
	e.Eval(at(2), r)
	if e.Value("load") != 4 || !e.IsFiring("load") || e.Value("p50") == 0 {
		t.Fatalf("same-instant Eval moved rate rules: load %g firing %v p50 %g", e.Value("load"), e.IsFiring("load"), e.Value("p50"))
	}
	// An unchanged histogram has an empty delta: extrema do not carry.
	fill([]float64{1, 2, 3, 100, 200, 300}, 0)
	e.Eval(at(3), r)
	if e.Value("p50") != 0 || e.Value("max") != 0 || e.IsFiring("load") {
		t.Fatalf("unchanged series: p50 %g max %g load firing %v, want 0, 0, resolved", e.Value("p50"), e.Value("max"), e.IsFiring("load"))
	}

	s := 3
	if n := testing.AllocsPerRun(20, func() { s++; e.Eval(at(s), r) }); n != 0 {
		t.Fatalf("Eval allocates %.1f times per call on a standing registry, want 0", n)
	}
}

// TestMatchMetricWildcard pins the one-star selector grammar.
func TestMatchMetricWildcard(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"pulses", "pulses", true},
		{"pulses", "pulses_out", false},
		{"service.*", "service.vip.withdrawals", true},
		{"service.*.withdrawals", "service.vip.withdrawals", true},
		{"service.*.withdrawals", "service.vip.failovers", false},
		{"service.*.withdrawals", "service.withdrawals", false}, // overlap guard
		{"*", "anything", true},
		{"*.drops", "flow.drops", true},
	}
	for _, c := range cases {
		if got := matchMetric(c.pattern, c.name); got != c.want {
			t.Fatalf("matchMetric(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

// TestFlowLogRing checks the bounded ring: the newest records survive,
// Total keeps counting, and a nil log is a no-op.
func TestFlowLogRing(t *testing.T) {
	l := NewFlowLog(4)
	for i := 0; i < 10; i++ {
		l.Append(FlowRecord{VNI: uint32(i), Bytes: uint64(i)})
	}
	if l.Len() != 4 || l.Total() != 10 {
		t.Fatalf("ring len=%d total=%d, want 4/10", l.Len(), l.Total())
	}
	recs := l.Records()
	for i, r := range recs {
		if want := uint32(6 + i); r.VNI != want {
			t.Fatalf("ring kept record vni=%d at %d, want %d (oldest evicted, order kept)", r.VNI, i, want)
		}
	}
	var nilLog *FlowLog
	nilLog.Append(FlowRecord{}) // must not panic
	if nilLog.Len() != 0 || nilLog.Records() != nil || nilLog.Total() != 0 {
		t.Fatalf("nil FlowLog not inert")
	}
}

// TestTopKHeavyHitters checks the sketch ranks a dominant flow first
// and bounds the overestimate enough to keep ordering among well-spread
// keys.
func TestTopKHeavyHitters(t *testing.T) {
	tk := NewTopK(3)
	for i := 0; i < 200; i++ {
		tk.Offer(fmt.Sprintf("noise-%d", i), 10)
	}
	tk.Offer("elephant", 1_000_000)
	tk.Offer("moose", 500_000)
	tk.Offer("mouse", 50_000)
	top := tk.Top()
	if len(top) != 3 {
		t.Fatalf("Top returned %d talkers, want 3", len(top))
	}
	if top[0].Key != "elephant" || top[1].Key != "moose" || top[2].Key != "mouse" {
		t.Fatalf("wrong ranking: %v", top)
	}
	if est := tk.Estimate("elephant"); est < 1_000_000 {
		t.Fatalf("count-min underestimated: %d < 1000000", est)
	}
	if strings.Contains(fmt.Sprint(top), "noise") {
		t.Fatalf("noise key displaced a heavy hitter: %v", top)
	}
}

// TestFlowDropReasonNames pins the reason strings the scrape uses as
// counter suffixes.
func TestFlowDropReasonNames(t *testing.T) {
	want := map[FlowDropReason]string{
		FlowDropQuota:     "quota",
		FlowDropCrossVNI:  "cross_vni",
		FlowDropNoRoute:   "no_route",
		FlowDropQueue:     "queue_overflow",
		FlowDropWANLoss:   "wan_loss",
		FlowDropPartition: "partition",
	}
	for r, name := range want {
		if r.String() != name {
			t.Fatalf("reason %d = %q, want %q", r, r.String(), name)
		}
	}
	if int(FlowDropReasons) != len(want) {
		t.Fatalf("FlowDropReasons = %d, want %d", FlowDropReasons, len(want))
	}
}
