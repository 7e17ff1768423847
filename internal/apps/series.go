package apps

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

// Series is an append-only time series of a workload's samples (RTTs,
// interval throughput, request rates).
type Series struct {
	Name    string
	Samples []Sample
}

func newSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(at sim.Time, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, Value: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Summary returns summary statistics over all samples.
func (s *Series) Summary() Summary {
	vs := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vs[i] = smp.Value
	}
	return Summarize(vs)
}

// Between returns the sub-series with from <= At < to.
func (s *Series) Between(from, to sim.Time) *Series {
	out := newSeries(s.Name)
	for _, smp := range s.Samples {
		if smp.At >= from && smp.At < to {
			out.Add(smp.At, smp.Value)
		}
	}
	return out
}

// Summary holds order statistics of a sample set.
type Summary struct {
	Count               int
	Min, Max, Mean, P50 float64
}

// Summarize computes summary statistics. An empty input yields a zero
// Summary with Count == 0.
func Summarize(vs []float64) Summary {
	sm := Summary{Count: len(vs)}
	if sm.Count == 0 {
		return sm
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	sm.Min, sm.Max = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range vs {
		sum += v
	}
	sm.Mean = sum / float64(sm.Count)
	// The median, interpolated between the two middle samples.
	pos := 0.5 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		sm.P50 = sorted[lo]
	} else {
		frac := pos - float64(lo)
		sm.P50 = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return sm
}

// rate converts a byte count and a duration to megabits per second.
func rate(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// msFloat converts a duration to float milliseconds.
func msFloat(d sim.Duration) float64 { return float64(d) / 1e6 }
