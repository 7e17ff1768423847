package obs

import "wavnet/internal/sim"

// RateView is a registry delta bound to the interval it covers, so
// per-second rates fall out without every caller hand-rolling delta
// loops. Built by Registry.Since.
type RateView struct {
	// Delta holds current-minus-previous per series: counters clamp at
	// zero across source restarts (see Registry.Delta), gauges carry
	// their instantaneous value, histograms subtract bucket-wise.
	Delta *Registry
	// Interval is the sim time the delta covers.
	Interval sim.Duration
}

// Since returns the per-interval view of r against a previous snapshot.
// A nil prev treats everything in r as new (the first scrape of a run).
func (r *Registry) Since(prev *Registry, interval sim.Duration) *RateView {
	if prev == nil {
		prev = NewRegistry()
	}
	return &RateView{Delta: r.Delta(prev), Interval: interval}
}

// seconds is the view's interval in seconds, floored at a nanosecond so
// a zero-width interval reports deltas rather than dividing by zero.
func (v *RateView) seconds() float64 {
	if v.Interval <= 0 {
		return 1e-9
	}
	return v.Interval.Seconds()
}

// Rate reports one labeled counter's per-second rate over the interval
// (0 when the series is absent).
func (v *RateView) Rate(name string, labels Labels) float64 {
	d, ok := v.Delta.CounterValue(name, labels)
	if !ok {
		return 0
	}
	return float64(d) / v.seconds()
}

// RateTotal reports a counter name's per-second rate summed across
// every label set.
func (v *RateView) RateTotal(name string) float64 {
	return float64(v.Delta.Total(name)) / v.seconds()
}
