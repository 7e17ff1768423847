package planetlab

import (
	"testing"
	"time"

	"wavnet/internal/grouping"
	"wavnet/internal/sim"
)

func TestGenerateShape(t *testing.T) {
	d := Generate(1, 400)
	if d.N() != 400 {
		t.Fatalf("hosts = %d", d.N())
	}
	// Symmetry, positivity, zero diagonal.
	for i := 0; i < d.N(); i++ {
		if d.RTT[i][i] != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := i + 1; j < d.N(); j++ {
			if d.RTT[i][j] != d.RTT[j][i] {
				t.Fatal("asymmetric matrix")
			}
			if d.RTT[i][j] <= 0 {
				t.Fatal("non-positive RTT")
			}
		}
	}
}

func TestLatencyDistribution(t *testing.T) {
	// The paper's Figure 12: most pairs below 1 s, a visible tail up to
	// multiple seconds from overloaded nodes.
	d := Generate(2, 400)
	total, under1s, over1s, over10s := 0, 0, 0, 0
	var min, max sim.Duration = 1 << 62, 0
	d.Pairs(func(i, j int, rtt sim.Duration) {
		total++
		if rtt < time.Second {
			under1s++
		} else {
			over1s++
		}
		if rtt >= 10*time.Second {
			over10s++
		}
		if rtt < min {
			min = rtt
		}
		if rtt > max {
			max = rtt
		}
	})
	if total != 400*399/2 {
		t.Fatalf("pairs = %d", total)
	}
	if frac := float64(under1s) / float64(total); frac < 0.85 {
		t.Fatalf("only %.2f of pairs under 1 s", frac)
	}
	if over1s == 0 {
		t.Fatal("no heavy tail: Figure 12(a) needs multi-second outliers")
	}
	if max < 500*time.Millisecond {
		t.Fatalf("max RTT %v too small for a PlanetLab-like tail", max)
	}
	if min > 100*time.Millisecond {
		t.Fatalf("min RTT %v: regional clusters missing", min)
	}
	if over10s > total/100 {
		t.Fatalf("tail too fat: %d pairs above 10s", over10s)
	}
}

func TestRegionalLocality(t *testing.T) {
	d := Generate(3, 300)
	var intra, inter sim.Duration
	var nIntra, nInter int
	d.Pairs(func(i, j int, rtt sim.Duration) {
		if d.Hosts[i].Overloaded || d.Hosts[j].Overloaded {
			return
		}
		if d.Hosts[i].Region == d.Hosts[j].Region {
			intra += rtt
			nIntra++
		} else {
			inter += rtt
			nInter++
		}
	})
	if nIntra == 0 || nInter == 0 {
		t.Fatal("missing intra or inter pairs")
	}
	if intra/sim.Duration(nIntra) >= inter/sim.Duration(nInter) {
		t.Fatal("intra-region latency not below inter-region latency")
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(42, 100)
	b := Generate(42, 100)
	for i := range a.RTT {
		for j := range a.RTT[i] {
			if a.RTT[i][j] != b.RTT[i][j] {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
	c := Generate(43, 100)
	same := true
	for i := range a.RTT {
		for j := range a.RTT[i] {
			if a.RTT[i][j] != c.RTT[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestGroupingOnDataset(t *testing.T) {
	// Figure 13's premise: locality-sensitive groups on this dataset
	// must be far tighter than the global mean.
	d := Generate(4, 400)
	var sum sim.Duration
	n := 0
	d.Pairs(func(i, j int, rtt sim.Duration) { sum += rtt; n++ })
	globalMean := sum / sim.Duration(n)
	for _, k := range []int{8, 16, 32} {
		g, err := grouping.LocalitySensitive(d.RTT, k)
		if err != nil {
			t.Fatal(err)
		}
		mean := grouping.MeanLatency(d.RTT, g)
		if mean > globalMean/3 {
			t.Fatalf("k=%d group mean %v not far below global %v", k, mean, globalMean)
		}
	}
}
