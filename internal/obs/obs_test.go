package obs

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wavnet/internal/sim"
)

func TestHistogramQuantilesKnownDistribution(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..1000: the true p50 is ~500, p95 ~950, p99 ~990.
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %g, want 1000", h.Max())
	}
	if got, want := h.Sum(), float64(1000*1001/2); got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Log-scale buckets bound the quantile error at a factor of two;
	// geometric interpolation should land much closer.
	checks := []struct {
		q, want float64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("q%g = %g, want within 2x of %g", c.q, got, c.want)
		}
	}
	if h.Quantile(0) != 1 {
		t.Errorf("q0 = %g, want observed min 1", h.Quantile(0))
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("q1 = %g, want observed max 1000", h.Quantile(1))
	}
}

func TestHistogramPointMass(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(42)
	}
	// Every quantile of a point mass is the point: min/max clamping
	// must defeat bucket-width error entirely.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("q%g = %g, want 42", q, got)
		}
	}
	if h.P50() != 42 || h.P95() != 42 || h.P99() != 42 || h.Max() != 42 {
		t.Errorf("accessors = %g/%g/%g/%g, want all 42", h.P50(), h.P95(), h.P99(), h.Max())
	}
}

func TestHistogramDelta(t *testing.T) {
	prev := NewHistogram()
	cur := NewHistogram()
	for v := 1; v <= 10; v++ {
		prev.Observe(float64(v))
		cur.Observe(float64(v))
	}
	for v := 100; v <= 120; v++ {
		cur.Observe(float64(v))
	}
	if d := cur.minus(prev); d.count != 21 {
		t.Fatalf("delta count = %d, want 21", d.count)
	}
	// A source that reset (prev > cur) clamps instead of wrapping.
	if d := prev.minus(cur); d.count != 0 {
		t.Fatalf("reset delta count = %d, want 0", d.count)
	}
}

func TestRegistryLabeledSeries(t *testing.T) {
	r := NewRegistry()
	acme := Labels{Tenant: "acme", Net: "red", Host: "pc00"}
	beta := Labels{Tenant: "beta", Net: "blue", Host: "pc01"}
	r.Counter("flooded_frames", acme).Add(7)
	r.Counter("flooded_frames", beta).Add(3)
	r.Gauge("tunnels", acme).Set(4)
	r.Histogram("lookup_ms", Labels{Broker: "rdv"}).Observe(2.5)

	if v, ok := r.CounterValue("flooded_frames", acme); !ok || v != 7 {
		t.Fatalf("acme flooded_frames = %d,%v", v, ok)
	}
	if r.Total("flooded_frames") != 10 {
		t.Fatalf("total = %d, want 10", r.Total("flooded_frames"))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}

	r.Counter("quota_drops", acme).Add(5)
	r.Counter("quota_drops", acme).Add(5) // two sources on the same labels: sums
	if v, _ := r.CounterValue("quota_drops", acme); v != 10 {
		t.Fatalf("quota_drops = %d, want 10", v)
	}
	r.Gauge("tunnels", acme).Add(0.5)
	r.Gauge("tunnels", acme).Add(0.5) // adds sum onto the set value
	if v, _ := r.GaugeValue("tunnels", acme); v != 5 {
		t.Fatalf("tunnels = %g, want 5", v)
	}

	out := r.String()
	if want := "flooded_frames{tenant=acme,net=red,host=pc00} 7"; !contains(out, want) {
		t.Errorf("text render missing %q:\n%s", want, out)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if len(rows) != r.Len() {
		t.Fatalf("json rows = %d, want %d", len(rows), r.Len())
	}

	// Render order is (name, rendered label string), whatever the
	// registration order: with empty dimensions '}' sorts after ',', so
	// {tenant=a} follows {tenant=a,net=b}, and a bare name leads.
	o := NewRegistry()
	for _, l := range []Labels{
		{Tenant: "a"}, {Host: "z"}, {Tenant: "a", Net: "b"}, {}, {Net: "b", Host: "a"}, {Tenant: "a", Host: "c"}, {Broker: "rdv"},
	} {
		o.Counter("n", l).Inc()
	}
	o.Counter("m", Labels{Host: "z"}).Inc()
	want := []string{"m{host=z}", "n", "n{broker=rdv}", "n{host=z}", "n{net=b,host=a}",
		"n{tenant=a,host=c}", "n{tenant=a,net=b}", "n{tenant=a}"}
	if !sort.StringsAreSorted(want[1:]) {
		t.Fatalf("fixture: %q is not in string order", want[1:])
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(o.String()), "\n") {
		got = append(got, strings.TrimSuffix(line, " 1"))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("text order %q, want %q", got, want)
	}
	b, _ = json.Marshal(o)
	rows = nil
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	for i, row := range rows {
		var l Labels
		if m, ok := row["labels"].(map[string]any); ok {
			get := func(k string) string { s, _ := m[k].(string); return s }
			l = Labels{get("tenant"), get("net"), get("broker"), get("host")}
		}
		if name := row["name"].(string) + l.String(); name != want[i] {
			t.Fatalf("json row %d is %s, want %s", i, name, want[i])
		}
	}
}

func TestRegistryDeltaClampsResets(t *testing.T) {
	prev := NewRegistry()
	cur := NewRegistry()
	l := Labels{Broker: "b2"}
	prev.Counter("joins", l).Set(40) // before the broker restarted
	cur.Counter("joins", l).Set(6)   // restarted: totals reset
	d := cur.Delta(prev)
	if v, _ := d.CounterValue("joins", l); v != 0 {
		t.Fatalf("reset delta = %d, want 0 (clamped)", v)
	}
	cur.Counter("joins", l).Add(100)
	d = cur.Delta(prev)
	if v, _ := d.CounterValue("joins", l); v != 66 {
		t.Fatalf("delta = %d, want 66", v)
	}
}

// TestRegistryPassesAndSnapshots pins the standing-registry contract:
// Reset hides every series until its first lookup of the pass zeroes
// it, lookups within a pass sum, a snapshot never changes afterwards,
// and writing to a snapshot panics.
func TestRegistryPassesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	a, b := Labels{Host: "pc00"}, Labels{Host: "pc01"}
	r.Counter("frames", a).Add(5)
	r.Counter("frames", b).Add(7)
	r.Gauge("load", a).Set(1.5)
	r.Histogram("lat", a).Observe(40)
	first := r.Snapshot()
	firstText := first.String()

	r.Reset()
	if r.Len() != 0 || r.Total("frames") != 0 {
		t.Fatalf("after Reset: len %d, frames %d; want an empty pass", r.Len(), r.Total("frames"))
	}
	if _, ok := r.CounterValue("frames", a); ok {
		t.Fatal("an untouched series is visible after Reset")
	}
	r.Counter("frames", a).Add(2)
	r.Counter("frames", a).Add(3) // two sources on one name+labels sum
	r.Histogram("lat", a).Observe(8)
	r.Counter("drops", a).Inc() // new since the snapshot: the shared index is copied
	if v, _ := r.CounterValue("frames", a); v != 5 {
		t.Fatalf("frames after Reset = %d, want 5 (zeroed, then 2+3)", v)
	}
	if h := r.Histogram("lat", a); h.Count() != 1 || h.Max() != 8 {
		t.Fatalf("histogram after Reset: count %d max %g, want 1/8", h.Count(), h.Max())
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3 (frames, lat, drops)", r.Len())
	}

	if first.String() != firstText || first.Len() != 4 {
		t.Fatalf("snapshot changed after Reset and writes:\n%s\nwas\n%s", first, firstText)
	}
	if _, ok := first.CounterValue("drops", a); ok {
		t.Fatal("snapshot sees a series created after it")
	}
	if v, _ := first.CounterValue("frames", b); v != 7 {
		t.Fatalf("snapshot frames{pc01} = %d, want 7", v)
	}
	second := r.Snapshot()
	if _, ok := second.CounterValue("frames", b); ok || second.Len() != 3 {
		t.Fatalf("second snapshot: len %d, frames{pc01} present %v; want 3 and absent", second.Len(), ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("writing to a snapshot did not panic")
		}
	}()
	first.Counter("frames", a).Inc()
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start(nil, "noop", Labels{})
	if sp != nil {
		t.Fatalf("nil trace returned non-nil span")
	}
	// Every method must tolerate the nil span.
	sp.Event("ignored %d", 1)
	sp.End()
	if sp.Ended() || sp.Name() != "" || sp.Duration() != 0 || sp.TraceID() != 0 {
		t.Fatalf("nil span accessors not zero")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil || tr.Dump() != "" {
		t.Fatalf("nil trace accessors not zero")
	}
	tr.Reset()
}

func TestSpanTreeAndExport(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTrace(eng, 0)
	var root, child *Span
	eng.Schedule(10*sim.Millisecond, func() {
		root = tr.Start(nil, "migrate", Labels{Host: "pc00"})
		root.Event("pc00 -> pc01")
	})
	eng.Schedule(20*sim.Millisecond, func() {
		child = tr.Start(root, "migrate.round", Labels{Host: "pc00"})
	})
	eng.Schedule(30*sim.Millisecond, func() { child.End() })
	eng.Schedule(40*sim.Millisecond, func() { root.End() })
	eng.Run()

	if root.TraceID() != child.TraceID() {
		t.Fatalf("causality ID not threaded: %d vs %d", root.TraceID(), child.TraceID())
	}
	if child.ParentID() != root.ID() {
		t.Fatalf("parent not linked")
	}
	if got := child.Duration(); got != 10*sim.Millisecond {
		t.Fatalf("child duration = %v, want 10ms", got)
	}
	if !root.HasEvent("pc01") {
		t.Fatalf("event lost")
	}
	kids := tr.Children(root)
	if len(kids) != 1 || kids[0] != child {
		t.Fatalf("Children = %v", kids)
	}
	if got := tr.Find("migrate.round"); len(got) != 1 {
		t.Fatalf("Find = %d spans", len(got))
	}
	// End is idempotent.
	root.End()
	if root.Duration() != 30*sim.Millisecond {
		t.Fatalf("re-End moved the end time")
	}

	dump := tr.Dump()
	if !contains(dump, "migrate{host=pc00}") || !contains(dump, "trace 1") {
		t.Fatalf("dump missing span line:\n%s", dump)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var rows []spanJSON
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if len(rows) != 2 || rows[0].Name != "migrate" || rows[1].Parent != rows[0].Span {
		t.Fatalf("json export wrong: %+v", rows)
	}
}

func TestTraceBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := NewTrace(eng, 4)
	var last *Span
	for i := 0; i < 6; i++ {
		last = tr.Start(nil, "s", Labels{})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// A dropped span still functions (events, End, parenting).
	last.Event("still works")
	last.End()
	if !last.Ended() {
		t.Fatalf("dropped span cannot end")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
