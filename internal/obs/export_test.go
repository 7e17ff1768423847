package obs

import "sort"

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
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

// Estimate reports the sketch's byte estimate for one key (an
// overestimate by construction, tight for heavy hitters).
func (t *TopK) Estimate(key string) uint64 {
	est := ^uint64(0)
	h := fnv64(key)
	for row := 0; row < topkRows; row++ {
		col := (h >> (row * 13)) & (topkCols - 1)
		if v := t.cm[row][col]; v < est {
			est = v
		}
	}
	return est
}

// Reset discards the buffer (IDs keep counting so spans stay unique).
func (tr *Trace) Reset() {
	if tr == nil {
		return
	}
	tr.spans = nil
	tr.dropped = 0
}

// Dropped reports spans not recorded because the buffer was full.
func (tr *Trace) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}

// Len reports the number of recorded spans.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.spans)
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) { g.Set(g.Value() + d) }
