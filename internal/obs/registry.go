package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the series types a Registry holds.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for renders.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is one monotonic series of a Registry.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter (scrapers copy cumulative totals in).
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is one instantaneous-value series of a Registry.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// seriesKey identifies one series: Labels is comparable, so the pair
// works directly as a map key.
type seriesKey struct {
	name   string
	labels Labels
}

// series is one named, labeled instrument.
type series struct {
	key     seriesKey
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a collection of labeled series. Lookups create series on
// first use; asking for an existing (name, labels) pair under a
// different kind panics — that is a wiring error, not load-time state.
// Safe for concurrent use (experiment drivers scrape from helper
// goroutines while the simulation records).
type Registry struct {
	mu    sync.Mutex
	byKey map[seriesKey]*series
	order []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return NewRegistrySized(0) }

// NewRegistrySized returns an empty registry with room for n series, for
// scrapers that know how many the last scrape produced.
func NewRegistrySized(n int) *Registry {
	return &Registry{byKey: make(map[seriesKey]*series, n), order: make([]*series, 0, n)}
}

// lookup finds or creates a series of the given kind.
func (r *Registry) lookup(name string, labels Labels, kind Kind) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey{name, labels}
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %s%s registered as %s, requested as %s",
				name, labels, s.kind, kind))
		}
		return s
	}
	s := &series{key: key, kind: kind}
	switch kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	default:
		s.hist = NewHistogram()
	}
	r.byKey[key] = s
	r.order = append(r.order, s)
	return s
}

// Counter returns the named labeled counter, creating it at zero.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, labels, KindCounter).counter
}

// Gauge returns the named labeled gauge, creating it at zero.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.lookup(name, labels, KindGauge).gauge
}

// Histogram returns the named labeled histogram, creating it empty.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return r.lookup(name, labels, KindHistogram).hist
}

// AddHistogram folds an externally-maintained histogram into the named
// labeled series bucket-wise, so scrapers can export distributions
// subsystems keep privately (e.g. a host's frames-per-batch histogram).
func (r *Registry) AddHistogram(name string, labels Labels, h *Histogram) {
	if h == nil {
		return
	}
	r.Histogram(name, labels).merge(h)
}

// Len reports the number of series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// CounterValue reads one labeled counter (0, false when absent).
func (r *Registry) CounterValue(name string, labels Labels) (uint64, bool) {
	r.mu.Lock()
	s, ok := r.byKey[seriesKey{name, labels}]
	r.mu.Unlock()
	if !ok || s.kind != KindCounter {
		return 0, false
	}
	return s.counter.Value(), true
}

// GaugeValue reads one labeled gauge (0, false when absent).
func (r *Registry) GaugeValue(name string, labels Labels) (float64, bool) {
	r.mu.Lock()
	s, ok := r.byKey[seriesKey{name, labels}]
	r.mu.Unlock()
	if !ok || s.kind != KindGauge {
		return 0, false
	}
	return s.gauge.Value(), true
}

// Total sums a counter name across every label set (per-host or
// per-broker series folded into one fabric-wide figure).
func (r *Registry) Total(name string) uint64 {
	var sum uint64
	for _, s := range r.all() {
		if s.key.name == name && s.kind == KindCounter {
			sum += s.counter.Value()
		}
	}
	return sum
}

// all returns the series in registration order for read paths that only
// sum or look up. order is append-only, so the prefix handed out here
// stays valid after the lock is released.
func (r *Registry) all() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order
}

// rendered pairs a series with its label string for the renders.
type rendered struct {
	*series
	labels string
}

// sorted snapshots the series ordered by (name, rendered labels) — the
// stable render order, independent of registration order. Each label
// string is built once per sort, not once per comparison.
func (r *Registry) sorted() []rendered {
	all := r.all()
	out := make([]rendered, len(all))
	for i, s := range all {
		out[i] = rendered{s, s.key.labels.String()}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.name != out[j].key.name {
			return out[i].key.name < out[j].key.name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Snapshot deep-copies the registry: later recording into r leaves the
// snapshot untouched.
func (r *Registry) Snapshot() *Registry {
	out := NewRegistry()
	out.Merge(r)
	return out
}

// Merge folds other into r: counters and gauges sum, histograms merge
// bucket-wise, series absent from r are created.
func (r *Registry) Merge(other *Registry) {
	for _, s := range other.all() {
		switch s.kind {
		case KindCounter:
			r.Counter(s.key.name, s.key.labels).Add(s.counter.Value())
		case KindGauge:
			r.Gauge(s.key.name, s.key.labels).Add(s.gauge.Value())
		default:
			r.Histogram(s.key.name, s.key.labels).merge(s.hist)
		}
	}
}

// Delta returns a new registry holding r minus prev per series:
// counters subtract clamped at zero (a restarted broker or host starts
// its totals over, and a wrapped uint64 would be a garbage delta),
// histograms subtract bucket-wise, gauges keep their current
// (instantaneous) value.
func (r *Registry) Delta(prev *Registry) *Registry {
	out := NewRegistry()
	for _, s := range r.all() {
		switch s.kind {
		case KindCounter:
			cur := s.counter.Value()
			if p, ok := prev.CounterValue(s.key.name, s.key.labels); ok && p < cur {
				out.Counter(s.key.name, s.key.labels).Set(cur - p)
			} else if !ok {
				out.Counter(s.key.name, s.key.labels).Set(cur)
			} else {
				out.Counter(s.key.name, s.key.labels).Set(0)
			}
		case KindGauge:
			out.Gauge(s.key.name, s.key.labels).Set(s.gauge.Value())
		default:
			prev.mu.Lock()
			ps, ok := prev.byKey[seriesKey{s.key.name, s.key.labels}]
			prev.mu.Unlock()
			if ok && ps.kind == KindHistogram {
				out.Histogram(s.key.name, s.key.labels).merge(s.hist.delta(ps.hist))
			} else {
				out.Histogram(s.key.name, s.key.labels).merge(s.hist)
			}
		}
	}
	return out
}

// String renders one line per series, sorted by (name, labels):
//
//	flooded_frames{tenant=acme,host=pc00} 12
//	lookup_ms{broker=rdv} count=40 p50=2.1 p95=3.9 p99=4 max=4.2
func (r *Registry) String() string {
	var b strings.Builder
	for _, s := range r.sorted() {
		fmt.Fprintf(&b, "%s%s ", s.key.name, s.labels)
		switch s.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%d", s.counter.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%g", s.gauge.Value())
		default:
			b.WriteString(s.hist.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seriesJSON is the registry's JSON row shape.
type seriesJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  *float64          `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	Sum    *float64          `json:"sum,omitempty"`
	P50    *float64          `json:"p50,omitempty"`
	P95    *float64          `json:"p95,omitempty"`
	P99    *float64          `json:"p99,omitempty"`
	Max    *float64          `json:"max,omitempty"`
}

func labelMap(l Labels) map[string]string {
	m := make(map[string]string)
	if l.Tenant != "" {
		m["tenant"] = l.Tenant
	}
	if l.Net != "" {
		m["net"] = l.Net
	}
	if l.Broker != "" {
		m["broker"] = l.Broker
	}
	if l.Host != "" {
		m["host"] = l.Host
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// MarshalJSON renders the registry as a sorted array of series rows.
func (r *Registry) MarshalJSON() ([]byte, error) {
	rows := make([]seriesJSON, 0, r.Len())
	f := func(v float64) *float64 { return &v }
	for _, s := range r.sorted() {
		row := seriesJSON{Name: s.key.name, Labels: labelMap(s.key.labels), Kind: s.kind.String()}
		switch s.kind {
		case KindCounter:
			row.Value = f(float64(s.counter.Value()))
		case KindGauge:
			row.Value = f(s.gauge.Value())
		default:
			n := s.hist.Count()
			row.Count = &n
			row.Sum = f(s.hist.Sum())
			row.P50 = f(s.hist.P50())
			row.P95 = f(s.hist.P95())
			row.P99 = f(s.hist.P99())
			row.Max = f(s.hist.Max())
		}
		rows = append(rows, row)
	}
	return json.Marshal(rows)
}
