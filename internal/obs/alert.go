package obs

import (
	"sort"
	"strings"

	"wavnet/internal/sim"
)

// AlertRule is one declarative alerting condition: a metric selector, a
// threshold, and how long the breach must hold before the alert fires —
// `metric > threshold for N sim-seconds`, evaluated against each
// registry pass the world scrapes.
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
	// need two Evals at distinct instants, so they never fire on the
	// first.
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
	// base is a rate rule's baseline: the value of every series it
	// matched, stamped with the Eval that read it.
	base map[seriesKey]baseline
	// Series names of the engine's own export, built once.
	firedName, resolvedName, firingName string
}

// baseline is one matched series' value at the Eval stamped beside it.
type baseline struct {
	eval uint64
	kind Kind
	bits uint64     // counter value
	hist *Histogram // histogram series
}

func newAlertState(r AlertRule) *alertState {
	p := "alert." + r.Name
	return &alertState{rule: r, firedName: p + ".fired", resolvedName: p + ".resolved", firingName: p + ".firing"}
}

// AlertEngine evaluates a fixed rule set against successive registry
// states, driving each rule through Inactive → Pending → Firing →
// Resolved and recording the firing window as a span ("alert.<name>")
// on the world trace. Evals are expected in sim-time order.
type AlertEngine struct {
	trace  *Trace
	states []*alertState
	prevAt sim.Time
	evals  uint64 // Evals that moved the rate baselines
}

// NewAlertEngine builds an engine over a trace (nil disables spans but
// keeps the lifecycle and counters) and a rule catalogue.
func NewAlertEngine(trace *Trace, rules ...AlertRule) *AlertEngine {
	e := &AlertEngine{trace: trace}
	for _, r := range rules {
		e.states = append(e.states, newAlertState(r))
	}
	return e
}

// AddRule appends a rule to a running engine (starts Inactive).
func (e *AlertEngine) AddRule(r AlertRule) {
	e.states = append(e.states, newAlertState(r))
}

// Rules returns the catalogue in registration order.
func (e *AlertEngine) Rules() []AlertRule {
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

// Eval scores every rule against the registry's visible series at now
// and advances lifecycles. Rate rules keep their own per-series
// baselines, so the engine retains nothing of r. An Eval at the instant
// of the previous one (or earlier) leaves rate rules untouched — state,
// value and baseline: a zero-length interval carries no rate.
func (e *AlertEngine) Eval(now sim.Time, r *Registry) {
	interval := now.Sub(e.prevAt)
	again := e.evals > 0 && interval <= 0
	if !again {
		e.evals++
		e.prevAt = now
	}
	for _, st := range e.states {
		if st.rule.Rate && again {
			continue
		}
		value, ok := e.score(st, r, interval)
		st.value = value
		e.advance(st, now, value, ok && value > st.rule.Threshold)
	}
}

// score computes one rule's value over r: counters sum across matched
// series, gauges sum, histograms take the worst (largest) quantile. A
// rate rule scores each series against its baseline — counters clamp
// at zero across source restarts, histograms subtract bucket-wise,
// gauges count as they are, a series absent at the previous Eval counts
// in full — divides the counter and gauge sum by the interval, and
// moves the baselines to now. Baselines are never pruned: like the
// registry's series, they grow only with the series ever matched. ok
// is false when the rule cannot be evaluated yet (rate rule on the
// first Eval).
func (e *AlertEngine) score(st *alertState, r *Registry, interval sim.Duration) (float64, bool) {
	rule := st.rule
	if rule.Rate && st.base == nil {
		st.base = make(map[seriesKey]baseline)
	}
	var sum, worst float64
	r.each(func(s *series, x sample) {
		if !matchMetric(rule.Metric, s.key.name) || !matchLabels(rule.Labels, s.key.labels) {
			return
		}
		b, had := st.base[s.key]
		had = had && b.eval == e.evals-1 && b.kind == s.kind
		switch s.kind {
		case KindCounter:
			d := x.bits
			if had {
				d = clampSub(x.bits, b.bits)
			}
			sum += float64(d)
			b.bits = x.bits
		case KindGauge:
			sum += x.gauge()
		default:
			d := *x.hist
			// A delta with no observations is empty, extrema and all.
			if had {
				if d = x.hist.minus(b.hist); d.count == 0 {
					d = Histogram{}
				}
			}
			if rule.Rate {
				if b.hist == nil {
					b.hist = new(Histogram)
				}
				*b.hist = *x.hist
			}
			v := d.max
			if rule.Quantile > 0 {
				v = d.Quantile(rule.Quantile)
			}
			if v > worst {
				worst = v
			}
		}
		if rule.Rate {
			b.eval, b.kind = e.evals, s.kind
			st.base[s.key] = b
		}
	})
	if rule.Rate && e.evals == 1 {
		return 0, false
	}
	if worst > 0 {
		return worst, true
	}
	if rule.Rate {
		sum /= interval.Seconds()
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
	for _, st := range e.states {
		if st.rule.Name == name && st.firing {
			return true
		}
	}
	return false
}

// Fired reports how many times the named alert transitioned to firing.
func (e *AlertEngine) Fired(name string) uint64 {
	for _, st := range e.states {
		if st.rule.Name == name {
			return st.fired
		}
	}
	return 0
}

// Resolved reports how many times the named alert resolved.
func (e *AlertEngine) Resolved(name string) uint64 {
	for _, st := range e.states {
		if st.rule.Name == name {
			return st.resolved
		}
	}
	return 0
}

// Value reports the named rule's value at the last Eval.
func (e *AlertEngine) Value(name string) float64 {
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
	var firing int
	for _, st := range e.states {
		if st.firing {
			firing++
		}
		r.Counter(st.firedName, Labels{}).Add(st.fired)
		r.Counter(st.resolvedName, Labels{}).Add(st.resolved)
		g := 0.0
		if st.firing {
			g = 1
		}
		r.Gauge(st.firingName, Labels{}).Set(g)
	}
	r.Gauge("alerts_firing", Labels{}).Set(float64(firing))
}
