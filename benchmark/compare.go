package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles applies each end-to-end metric's own bound, workload by
// workload, to two reports: A is the parent, B the change. It prints one
// row per (workload, metric) and returns the exit code: 1 when any row
// is worse or a workload fails more of its ops than before.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			verdict, change := judge(def, ma, mb)
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+8.2f%% %7.1f%%  %s\n", wa.Name, def.Name, ma.Value, mb.Value, change*100, def.Bound*100, verdict)
		}
		shareA, shareB := failedShare(wa), failedShare(wb)
		verdict := "ok"
		if shareB > shareA {
			verdict, code = "worse", 1
		}
		fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %9s %8s  %s\n", wa.Name, "failed_ops_share", shareA, shareB, "", "0", verdict)
		if wa.SimEvents != wb.SimEvents || wa.SimEndNs != wb.SimEndNs {
			fmt.Fprintf(w, "%-16s note: the simulations differ (sim.events %d against %d, virtual end %d ns against %d ns)\n",
				wa.Name, wa.SimEvents, wb.SimEvents, wa.SimEndNs, wb.SimEndNs)
		}
	}
	return code
}

func failedShare(wr *workloadReport) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// judge gives the verdict on one metric: worse or better when the change
// in the metric's bad or good direction exceeds its bound, unresolved
// when either side's own reps spread wider than the bound (so the
// medians cannot settle it), ok otherwise. change is signed so that
// positive is worse.
func judge(def metricDef, a, b metricValue) (verdict string, change float64) {
	if a.Value == 0 {
		if b.Value == 0 {
			return "ok", 0
		}
		return "unresolved", 0
	}
	change = (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		change = -change
	}
	if spread(a) > def.Bound || spread(b) > def.Bound {
		return "unresolved", change
	}
	switch {
	case change > def.Bound:
		return "worse", change
	case change < -def.Bound:
		return "better", change
	}
	return "ok", change
}

// spread is how far a metric's reps lie apart, as a share of their
// median: the distance between the quartiles when there are enough reps
// to have quartiles, the whole range otherwise.
func spread(m metricValue) float64 {
	if len(m.Reps) < 2 || m.Value == 0 {
		return 0
	}
	lo, hi := minMax(m.Reps)
	if len(m.Reps) >= 4 {
		lo, hi = quartiles(m.Reps)
	}
	return (hi - lo) / m.Value
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
