package experiments

import (
	"strings"
	"testing"

	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// quick returns quick-mode options with a fixed seed.
func quick() Options { return Options{Seed: 7, Quick: true} }

// observed returns quick options whose Observer counts the worlds it is
// handed.
func observed() (Options, *int) {
	o, worlds := quick(), new(int)
	o.Observer = func(*scenario.World) { *worlds++ }
	return o, worlds
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %s", r.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "table4", "table5",
		"figure6", "figure7", "figure8", "figure9", "figure10", "figure11", "figure12", "figure13", "figure14"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("table2"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

func TestTableI(t *testing.T) {
	r, err := TableI(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "SIAT") {
		t.Fatal("missing site rows")
	}
}

func TestTableII(t *testing.T) {
	o, worlds := observed()
	r, err := TableII(o)
	if err != nil {
		t.Fatal(err)
	}
	if *worlds != 1 {
		t.Errorf("observer saw %d worlds, want 1", *worlds)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Both overlays must be close to physical (within 3 ms as the
		// paper finds), and IPOP at or above WAVNet.
		dWav := row.WAVNet - row.Physical
		dIpop := row.IPOP - row.Physical
		if dWav < 0 {
			dWav = -dWav
		}
		if float64(dWav) > 3e6 {
			t.Errorf("%s: WAVNet rtt %v far from physical %v", row.Pair, row.WAVNet, row.Physical)
		}
		if dIpop < 0 {
			t.Errorf("%s: IPOP rtt %v below physical %v", row.Pair, row.IPOP, row.Physical)
		}
	}
	// SIAT-PU must reflect the measured override (~219 ms), not hub sums.
	if r.Rows[2].Physical < 210e6 || r.Rows[2].Physical > 230e6 {
		t.Errorf("SIAT-PU physical = %v, want ≈219 ms", r.Rows[2].Physical)
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !(row.Physical > row.WAVNet && row.WAVNet > row.IPOP) {
			t.Errorf("%dMB: want physical > WAVNet > IPOP, got %.0f/%.0f/%.0f",
				row.SizeMB, row.Physical, row.WAVNet, row.IPOP)
		}
		rel := row.WAVNet / row.Physical
		if rel < 0.5 || rel > 1.0 {
			t.Errorf("%dMB: WAVNet/physical = %.2f outside the paper's 0.57-0.85 band", row.SizeMB, rel)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	o, worlds := observed()
	r, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if *worlds != 5 {
		t.Errorf("observer saw %d worlds, want one per WAN rate (5)", *worlds)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if rel := row.WAVNet / row.Physical; rel < 0.75 {
			t.Errorf("%.2f Mbps: WAVNet relative %.2f, want near native", row.WANMbps, rel)
		}
	}
	// IPOP: fine when congested, collapsed at 100 Mbps.
	first := r.Rows[0].IPOP / r.Rows[0].Physical
	last := r.Rows[len(r.Rows)-1].IPOP / r.Rows[len(r.Rows)-1].Physical
	if first < 0.5 {
		t.Errorf("IPOP at 6.25 Mbps relative %.2f, want usable", first)
	}
	if last > 0.35 {
		t.Errorf("IPOP at 100 Mbps relative %.2f, want collapsed (<20%% in the paper)", last)
	}
	if last >= first {
		t.Error("IPOP relative bandwidth must decline with link speed")
	}
}

func TestFigure12And13(t *testing.T) {
	r12, err := Figure12(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r12.Pairs != 400*399/2 || r12.Over1s == 0 {
		t.Fatalf("figure12: pairs=%d over1s=%d", r12.Pairs, r12.Over1s)
	}
	r13, err := Figure13(quick())
	if err != nil {
		t.Fatal(err)
	}
	var prev sim.Duration
	for _, row := range r13.Rows {
		if row.Max < row.Avg {
			t.Fatalf("k=%d: max %v < avg %v", row.K, row.Max, row.Avg)
		}
		if row.Avg < prev {
			// Not strictly monotone in theory, but collapse signals a bug.
			if float64(prev-row.Avg) > 0.5*float64(prev) {
				t.Fatalf("k=%d: avg dropped sharply from %v to %v", row.K, prev, row.Avg)
			}
		}
		prev = row.Avg
	}
	// The small clusters must be tight (paper: k=8 ≈ 1.3 ms avg over
	// PlanetLab; our synthetic universe is similar within an order).
	if r13.Rows[0].Avg > 20e6 {
		t.Fatalf("k=2 avg %v too large", r13.Rows[0].Avg)
	}
}
