package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
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
type Counter struct{ v uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Set overwrites the counter (scrapers copy cumulative totals in).
func (c *Counter) Set(n uint64) { c.v = n }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is one instantaneous-value series of a Registry. It shares
// Counter's layout, so a series holds either in one word.
type Gauge struct{ v uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = math.Float64bits(v) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v) }

// seriesKey identifies one series: Labels is comparable, so the pair
// works directly as a map key.
type seriesKey struct {
	name   string
	labels Labels
}

// series is one named, labeled instrument. A registry never frees one:
// pass records the pass that last zeroed it, and a series zeroed in an
// older pass than its registry's current one is invisible to reads.
type series struct {
	key  seriesKey
	kind Kind
	pos  int // index in Registry.order
	pass uint64
	val  Counter // counter value, or gauge float64 bits
	hist *Histogram
}

// sample is one series' value as a read sees it.
type sample struct {
	live bool       // visible in this pass (or this snapshot)
	bits uint64     // counter value, or gauge float64 bits
	hist *Histogram // histogram series: the live one, or a snapshot's copy
}

func (x sample) gauge() float64 { return math.Float64frombits(x.bits) }

// Registry is a collection of labeled series. Lookups create series on
// first use; asking for an existing (name, labels) pair under a
// different kind panics — that is a wiring error, not load-time state.
//
// A registry is reused by pass: Reset hides every series, and the first
// lookup of a series in the new pass zeroes it in place, so a scraper
// overwrites one standing registry instead of building a fresh one and
// series it no longer touches drop out of every read. Snapshot freezes
// the current pass into an immutable registry, which later passes leave
// as it was.
type Registry struct {
	byKey map[seriesKey]*series
	order []*series
	// shared marks byKey as read by a snapshot: the next insert copies
	// it first, so a snapshot never finds a series created after it.
	shared bool
	pass   uint64
	live   int // series visible in this pass
	// frozen is non-nil only for a snapshot: the value of every series
	// in order as of the Snapshot call.
	frozen []sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[seriesKey]*series)} }

// lookup finds or creates a series of the given kind, zeroing it when
// this is its first lookup of the pass.
func (r *Registry) lookup(name string, labels Labels, kind Kind) *series {
	if r.frozen != nil {
		panic("obs: write to a registry snapshot")
	}
	key := seriesKey{name, labels}
	s, ok := r.byKey[key]
	switch {
	case !ok:
		if r.shared {
			r.byKey, r.shared = maps.Clone(r.byKey), false
		}
		s = &series{key: key, kind: kind, pos: len(r.order)}
		if kind == KindHistogram {
			s.hist = NewHistogram()
		}
		r.byKey[key] = s
		r.order = append(r.order, s)
	case s.kind != kind:
		panic(fmt.Sprintf("obs: series %s%s registered as %s, requested as %s",
			name, labels, s.kind, kind))
	case s.pass == r.pass:
		return s
	default:
		s.val.Set(0)
		if s.hist != nil {
			*s.hist = Histogram{}
		}
	}
	s.pass = r.pass
	r.live++
	return s
}

// Reset starts a new pass: every series turns invisible, keeping its
// storage, until its first lookup of the pass zeroes it.
func (r *Registry) Reset() {
	if r.frozen != nil {
		panic("obs: reset of a registry snapshot")
	}
	r.pass++
	r.live = 0
}

// Counter returns the named labeled counter, creating it at zero.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return &r.lookup(name, labels, KindCounter).val
}

// Gauge returns the named labeled gauge, creating it at zero.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return (*Gauge)(&r.lookup(name, labels, KindGauge).val)
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

// at reads series s as r sees it.
func (r *Registry) at(s *series) sample {
	switch {
	case r.frozen != nil:
		return r.frozen[s.pos]
	case s.pass != r.pass:
		return sample{}
	case s.kind == KindHistogram:
		return sample{live: true, hist: s.hist}
	}
	return sample{live: true, bits: s.val.Value()}
}

// each calls f for every visible series in creation order.
func (r *Registry) each(f func(*series, sample)) {
	for _, s := range r.order {
		if x := r.at(s); x.live {
			f(s, x)
		}
	}
}

// find reads one series by key (a zero sample when absent or invisible).
func (r *Registry) find(name string, labels Labels) (*series, sample) {
	s := r.byKey[seriesKey{name, labels}]
	if s == nil {
		return nil, sample{}
	}
	return s, r.at(s)
}

// Len reports the number of visible series.
func (r *Registry) Len() int { return r.live }

// CounterValue reads one labeled counter (0, false when absent).
func (r *Registry) CounterValue(name string, labels Labels) (uint64, bool) {
	s, x := r.find(name, labels)
	if !x.live || s.kind != KindCounter {
		return 0, false
	}
	return x.bits, true
}

// GaugeValue reads one labeled gauge (0, false when absent).
func (r *Registry) GaugeValue(name string, labels Labels) (float64, bool) {
	s, x := r.find(name, labels)
	if !x.live || s.kind != KindGauge {
		return 0, false
	}
	return x.gauge(), true
}

// Total sums a counter name across every label set (per-host or
// per-broker series folded into one fabric-wide figure).
func (r *Registry) Total(name string) uint64 {
	var sum uint64
	r.each(func(s *series, x sample) {
		if s.key.name == name && s.kind == KindCounter {
			sum += x.bits
		}
	})
	return sum
}

// rendered pairs a series and its value with its label string for the
// renders.
type rendered struct {
	s      *series
	x      sample
	labels string
}

// sorted lists the visible series ordered by (name, rendered labels) —
// the stable render order, independent of registration order. Each
// label string is built once per sort, not once per comparison.
func (r *Registry) sorted() []rendered {
	out := make([]rendered, 0, r.Len())
	r.each(func(s *series, x sample) {
		out = append(out, rendered{s, x, s.key.labels.String()})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].s.key.name != out[j].s.key.name {
			return out[i].s.key.name < out[j].s.key.name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Snapshot returns an immutable copy of the visible series: later
// recording into r, or a Reset, leaves it untouched, and writing to it
// panics. It shares r's key index until r next creates a series, so it
// costs one value copy per series and a few objects, not a registry.
func (r *Registry) Snapshot() *Registry {
	if r.frozen != nil {
		return r
	}
	r.shared = true
	n := len(r.order)
	out := &Registry{byKey: r.byKey, order: r.order[:n:n], live: r.live, frozen: make([]sample, n)}
	hists := 0
	for i, s := range r.order {
		if out.frozen[i] = r.at(s); out.frozen[i].hist != nil {
			hists++
		}
	}
	if hists > 0 {
		copies := make([]Histogram, hists)
		for i := range out.frozen {
			if x := &out.frozen[i]; x.hist != nil {
				copies[0] = *x.hist
				x.hist, copies = &copies[0], copies[1:]
			}
		}
	}
	return out
}

// Delta returns a new registry holding r minus prev per series:
// counters subtract clamped at zero (a restarted broker or host starts
// its totals over, and a wrapped uint64 would be a garbage delta),
// histograms subtract bucket-wise, gauges keep their current
// (instantaneous) value.
func (r *Registry) Delta(prev *Registry) *Registry {
	out := NewRegistry()
	r.each(func(s *series, x sample) {
		ps, p := prev.find(s.key.name, s.key.labels)
		had := p.live && ps.kind == s.kind
		switch s.kind {
		case KindCounter:
			d := x.bits
			if had {
				d = clampSub(x.bits, p.bits)
			}
			out.Counter(s.key.name, s.key.labels).Set(d)
		case KindGauge:
			out.Gauge(s.key.name, s.key.labels).Set(x.gauge())
		default:
			var prev Histogram
			if had {
				prev = *p.hist
			}
			d := x.hist.minus(&prev)
			out.Histogram(s.key.name, s.key.labels).merge(&d)
		}
	})
	return out
}

// clampSub is cur - prev, or zero when the source restarted below prev.
func clampSub(cur, prev uint64) uint64 {
	if prev < cur {
		return cur - prev
	}
	return 0
}

// String renders one line per series, sorted by (name, labels):
//
//	flooded_frames{tenant=acme,host=pc00} 12
//	lookup_ms{broker=rdv} count=40 p50=2.1 p95=3.9 p99=4 max=4.2
func (r *Registry) String() string {
	var b strings.Builder
	for _, e := range r.sorted() {
		fmt.Fprintf(&b, "%s%s ", e.s.key.name, e.labels)
		switch e.s.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%d", e.x.bits)
		case KindGauge:
			fmt.Fprintf(&b, "%g", e.x.gauge())
		default:
			b.WriteString(e.x.hist.String())
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
	for _, e := range r.sorted() {
		row := seriesJSON{Name: e.s.key.name, Labels: labelMap(e.s.key.labels), Kind: e.s.kind.String()}
		switch h := e.x.hist; e.s.kind {
		case KindCounter:
			row.Value = f(float64(e.x.bits))
		case KindGauge:
			row.Value = f(e.x.gauge())
		default:
			n := h.Count()
			row.Count = &n
			row.Sum = f(h.Sum())
			row.P50 = f(h.P50())
			row.P95 = f(h.P95())
			row.P99 = f(h.P99())
			row.Max = f(h.Max())
		}
		rows = append(rows, row)
	}
	return json.Marshal(rows)
}
