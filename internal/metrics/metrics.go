// Package metrics provides the small measurement toolkit used by the
// WAVNet experiment harness: time series of samples, summary statistics
// and unit conversions. Everything operates on float64 values and
// sim.Time timestamps so that any experiment (RTT probes, interval
// bandwidth reports, request rates) records through one API.
package metrics

import (
	"math"
	"sort"

	"wavnet/internal/sim"
)

// Sample is one timestamped observation.
type Sample struct {
	At    sim.Time
	Value float64
}

// Series is an append-only time series.
type Series struct {
	Name    string
	Samples []Sample
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(at sim.Time, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, Value: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns just the observation values.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vs[i] = smp.Value
	}
	return vs
}

// Summary returns summary statistics over all samples.
func (s *Series) Summary() Summary { return Summarize(s.Values()) }

// Between returns the sub-series with from <= At < to.
func (s *Series) Between(from, to sim.Time) *Series {
	out := NewSeries(s.Name)
	for _, smp := range s.Samples {
		if smp.At >= from && smp.At < to {
			out.Add(smp.At, smp.Value)
		}
	}
	return out
}

// Summary holds order statistics of a sample set.
type Summary struct {
	Count              int
	Min, Max, Mean     float64
	P50, P95, P99      float64
	Stddev             float64
	Sum                float64
	MinIndex, MaxIndex int
}

// Summarize computes summary statistics. An empty input yields a zero
// Summary with Count == 0.
func Summarize(vs []float64) Summary {
	var sm Summary
	sm.Count = len(vs)
	if sm.Count == 0 {
		return sm
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	sm.Min, sm.Max = sorted[0], sorted[len(sorted)-1]
	for i, v := range vs {
		sm.Sum += v
		if v == sm.Min {
			sm.MinIndex = i
		}
		if v == sm.Max {
			sm.MaxIndex = i
		}
	}
	sm.Mean = sm.Sum / float64(sm.Count)
	var ss float64
	for _, v := range vs {
		d := v - sm.Mean
		ss += d * d
	}
	sm.Stddev = math.Sqrt(ss / float64(sm.Count))
	sm.P50 = percentileSorted(sorted, 0.50)
	sm.P95 = percentileSorted(sorted, 0.95)
	sm.P99 = percentileSorted(sorted, 0.99)
	return sm
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Counter is a monotonically increasing event counter with a byte/value
// total, handy for packets and bytes.
type Counter struct {
	N     uint64
	Total float64
}

// Inc adds one event carrying value v (e.g. packet size).
func (c *Counter) Inc(v float64) { c.N++; c.Total += v }

// Rate converts a byte count and a duration to megabits per second.
func Rate(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// MsFloat converts a duration to float milliseconds.
func MsFloat(d sim.Duration) float64 { return float64(d) / 1e6 }
