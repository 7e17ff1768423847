package apps

import (
	"math"
	"testing"
	"testing/quick"

	"wavnet/internal/sim"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary %+v", s)
	}
	if even := Summarize([]float64{4, 1, 3, 2}); even.P50 != 2.5 {
		t.Fatalf("even-count median %v, want 2.5", even.P50)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		// Map arbitrary floats into a finite range: summing values near
		// ±MaxFloat64 legitimately overflows any mean computation.
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vs = append(vs, math.Mod(v, 1e9))
		}
		s := Summarize(vs)
		if s.Count == 0 {
			return len(vs) == 0
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Min <= s.P50 && s.P50 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBetween(t *testing.T) {
	s := newSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Time(sim.Second), float64(i))
	}
	sub := s.Between(sim.Time(3*sim.Second), sim.Time(6*sim.Second))
	if sub.Len() != 3 || sub.Samples[0].Value != 3 {
		t.Fatalf("between: %+v", sub.Samples)
	}
	if s.Summary().Mean != 4.5 {
		t.Fatalf("mean %v", s.Summary().Mean)
	}
}

func TestRateAndMs(t *testing.T) {
	if r := rate(1250000, sim.Second); r != 10 {
		t.Fatalf("rate %v, want 10 Mbps", r)
	}
	if rate(100, 0) != 0 {
		t.Fatal("rate with zero duration")
	}
	if msFloat(1500000) != 1.5 {
		t.Fatal("msFloat")
	}
	if r := (&TTCPResult{Bytes: 1250000, Elapsed: sim.Second}).Mbps(); r != 10 {
		t.Fatalf("TTCPResult.Mbps %v, want 10", r)
	}
}
