package obs

import (
	"fmt"
	"math"
)

// histBuckets is the fixed bucket count of every histogram: bucket 0
// holds values <= 1, bucket i holds (2^(i-1), 2^i], so 63 doubling
// buckets span any simulation quantity (nanoseconds to terabytes) with
// factor-2 resolution. A fixed shape keeps Delta and Merge trivially
// well-defined across registries.
const histBuckets = 64

// Histogram is a fixed log-scale (powers of two) histogram with
// quantile accessors; observations are non-negative float64s in
// whatever unit the caller picks. It is a plain value: snapshots,
// merges and rate baselines copy it.
type Histogram struct {
	counts   [histBuckets]uint64
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by geometric
// interpolation within the covering bucket, clamped to the observed
// [min, max]. Log-scale buckets bound the error at a factor of two;
// in practice interpolation lands much closer.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := float64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo, hi := bucketBounds(i)
		// Position of the rank inside this bucket, geometrically
		// interpolated between the bucket's bounds.
		frac := (rank - prev) / float64(c)
		var v float64
		if lo <= 0 {
			v = hi * frac
		} else {
			v = lo * math.Pow(hi/lo, frac)
		}
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// P50, P95 and P99 are the standard latency quantiles.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// bucketBounds returns the (lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Exp2(float64(i - 1)), math.Exp2(float64(i))
}

// merge folds o's observations into h.
func (h *Histogram) merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// minus returns h minus p, bucket-wise and clamped at zero (a
// restarted source resets to empty; clamping keeps deltas sane). The
// observed extrema cannot be subtracted, so the current min/max carry
// over.
func (h *Histogram) minus(p *Histogram) Histogram {
	out := Histogram{min: h.min, max: h.max}
	for i := range h.counts {
		if h.counts[i] > p.counts[i] {
			out.counts[i] = h.counts[i] - p.counts[i]
			out.count += out.counts[i]
		}
	}
	if s := h.sum - p.sum; s > 0 {
		out.sum = s
	}
	return out
}

// String renders the summary row used by the registry's text form.
func (h *Histogram) String() string {
	return fmt.Sprintf("count=%d p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		h.Count(), h.P50(), h.P95(), h.P99(), h.Max())
}
