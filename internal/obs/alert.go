package obs

import (
	"sort"
	"strings"
	"sync"

	"wavnet/internal/sim"
)

// AlertRule is one declarative alerting condition: a metric selector, a
// threshold, and how long the breach must hold before the alert fires —
// `metric > threshold for N sim-seconds`, evaluated against each
// registry snapshot the world scrapes.
type AlertRule struct {
	// Name identifies the alert; its span is named "alert.<Name>".
	Name string
	// Metric selects series by name; one '*' matches any run of
	// characters (e.g. "service.*" covers every service counter,
	// "service.*.withdrawals" just the withdrawal counters).
	Metric string
	// Labels narrows the match: empty fields are wildcards, non-empty
	// fields must equal the series' label.
	Labels Labels
	// Rate evaluates counters as per-second rates over the interval
	// since the previous Eval instead of cumulative totals. Rate rules
	// need two snapshots, so they never fire on the first Eval.
	Rate bool
	// Quantile picks the histogram statistic to compare (0 < q <= 1);
	// zero reads the observed max. Ignored for counters and gauges.
	Quantile float64
	// Threshold is the exclusive bound: the alert condition is
	// value > Threshold.
	Threshold float64
	// For is how long the condition must hold continuously before the
	// alert transitions from pending to firing (0 fires immediately).
	For sim.Duration
}

// alertState carries one rule's lifecycle between Evals.
type alertState struct {
	rule         AlertRule
	pending      bool
	pendingSince sim.Time
	firing       bool
	span         *Span
	value        float64
	fired        uint64
	resolved     uint64
}

// AlertEngine evaluates a fixed rule set against successive registry
// snapshots, driving each rule through Inactive → Pending → Firing →
// Resolved and recording the firing window as a span ("alert.<name>")
// on the world trace. Safe for concurrent use; snapshots are expected
// in sim-time order.
type AlertEngine struct {
	mu     sync.Mutex
	trace  *Trace
	states []*alertState
	prev   *Registry
	prevAt sim.Time
	evals  uint64
}

// NewAlertEngine builds an engine over a trace (nil disables spans but
// keeps the lifecycle and counters) and a rule catalogue.
func NewAlertEngine(trace *Trace, rules ...AlertRule) *AlertEngine {
	e := &AlertEngine{trace: trace}
	for _, r := range rules {
		e.states = append(e.states, &alertState{rule: r})
	}
	return e
}

// AddRule appends a rule to a running engine (starts Inactive).
func (e *AlertEngine) AddRule(r AlertRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.states = append(e.states, &alertState{rule: r})
}

// Rules returns the catalogue in registration order.
func (e *AlertEngine) Rules() []AlertRule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertRule, len(e.states))
	for i, st := range e.states {
		out[i] = st.rule
	}
	return out
}

// matchMetric applies the rule's name selector: an exact name, or a
// pattern whose single '*' matches any run of characters.
func matchMetric(pattern, name string) bool {
	i := strings.IndexByte(pattern, '*')
	if i < 0 {
		return pattern == name
	}
	prefix, suffix := pattern[:i], pattern[i+1:]
	return len(name) >= len(prefix)+len(suffix) &&
		strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}

// matchLabels treats empty rule fields as wildcards.
func matchLabels(rule, have Labels) bool {
	return (rule.Tenant == "" || rule.Tenant == have.Tenant) &&
		(rule.Net == "" || rule.Net == have.Net) &&
		(rule.Broker == "" || rule.Broker == have.Broker) &&
		(rule.Host == "" || rule.Host == have.Host)
}

// Eval scores every rule against the snapshot taken at now and advances
// lifecycles. The engine retains the snapshot as the baseline for the
// next Eval's rate rules, so callers must hand over a registry they
// will not keep mutating (World.Scrape builds a fresh one per call).
func (e *AlertEngine) Eval(now sim.Time, snap *Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var view *RateView
	if e.evals > 0 {
		view = snap.Since(e.prev, now.Sub(e.prevAt))
	}
	for _, st := range e.states {
		value, ok := e.score(st.rule, snap, view)
		st.value = value
		e.advance(st, now, value, ok && value > st.rule.Threshold)
	}
	e.prev, e.prevAt = snap, now
	e.evals++
}

// score computes one rule's value over the snapshot: counters sum
// across matched series (as rates over the interval when Rate is set),
// gauges sum, histograms take the worst (largest) quantile. ok is false
// when the rule cannot be evaluated yet (rate rule on the first Eval).
func (e *AlertEngine) score(rule AlertRule, snap *Registry, view *RateView) (float64, bool) {
	if rule.Rate && view == nil {
		return 0, false
	}
	src := snap
	if rule.Rate {
		src = view.Delta
	}
	var sum float64
	var worst float64
	for _, s := range src.all() {
		if !matchMetric(rule.Metric, s.key.name) || !matchLabels(rule.Labels, s.key.labels) {
			continue
		}
		switch s.kind {
		case KindCounter:
			sum += float64(s.counter.Value())
		case KindGauge:
			sum += s.gauge.Value()
		default:
			var v float64
			if rule.Quantile > 0 {
				v = s.hist.Quantile(rule.Quantile)
			} else {
				v = s.hist.Max()
			}
			if v > worst {
				worst = v
			}
		}
	}
	if worst > 0 {
		return worst, true
	}
	if rule.Rate {
		sum /= view.seconds()
	}
	return sum, true
}

// advance drives one rule's state machine for this Eval.
func (e *AlertEngine) advance(st *alertState, now sim.Time, value float64, breach bool) {
	if !breach {
		st.pending = false
		if st.firing {
			st.firing = false
			st.resolved++
			st.span.Event("resolved value=%.4g threshold=%.4g", value, st.rule.Threshold)
			st.span.End()
			st.span = nil
		}
		return
	}
	if st.firing {
		return
	}
	if !st.pending {
		st.pending = true
		st.pendingSince = now
	}
	if now.Sub(st.pendingSince) < st.rule.For {
		return
	}
	st.pending = false
	st.firing = true
	st.fired++
	st.span = e.trace.Start(nil, "alert."+st.rule.Name, st.rule.Labels)
	st.span.Event("firing value=%.4g threshold=%.4g for=%v held=%v",
		value, st.rule.Threshold, st.rule.For, now.Sub(st.pendingSince))
}

// Firing returns the names of currently firing alerts, sorted.
func (e *AlertEngine) Firing() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, st := range e.states {
		if st.firing {
			out = append(out, st.rule.Name)
		}
	}
	sort.Strings(out)
	return out
}

// IsFiring reports whether the named alert is currently firing.
func (e *AlertEngine) IsFiring(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		if st.rule.Name == name && st.firing {
			return true
		}
	}
	return false
}

// Fired reports how many times the named alert transitioned to firing.
func (e *AlertEngine) Fired(name string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		if st.rule.Name == name {
			return st.fired
		}
	}
	return 0
}

// Resolved reports how many times the named alert resolved.
func (e *AlertEngine) Resolved(name string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		if st.rule.Name == name {
			return st.resolved
		}
	}
	return 0
}

// Value reports the named rule's value at the last Eval.
func (e *AlertEngine) Value(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		if st.rule.Name == name {
			return st.value
		}
	}
	return 0
}

// ScrapeInto exports the engine's own state: an alerts_firing gauge and
// per-rule fired/resolved counters plus a 0/1 firing gauge, named
// "alert.<rule>.{fired,resolved,firing}".
func (e *AlertEngine) ScrapeInto(r *Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var firing int
	for _, st := range e.states {
		if st.firing {
			firing++
		}
		r.Counter("alert."+st.rule.Name+".fired", Labels{}).Add(st.fired)
		r.Counter("alert."+st.rule.Name+".resolved", Labels{}).Add(st.resolved)
		g := 0.0
		if st.firing {
			g = 1
		}
		r.Gauge("alert."+st.rule.Name+".firing", Labels{}).Set(g)
	}
	r.Gauge("alerts_firing", Labels{}).Set(float64(firing))
}
