package scenario

import (
	"testing"
	"time"

	"wavnet/internal/sim"
)

func TestRealWANBuildAndOverlays(t *testing.T) {
	w, err := Build(1, RealWANSpecs(), RealWANOverrides())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WAVNetUp("HKU1", "SIAT", "PU"); err != nil {
		t.Fatal(err)
	}
	// Tunnel RTT HKU-SIAT must be near the paper's 74.2 ms.
	var rtt sim.Duration
	var rttErr error
	w.Eng.Spawn("probe", func(p *sim.Proc) {
		rtt, rttErr = w.M("HKU1").WAV.TunnelRTT(p, "SIAT")
	})
	w.Eng.RunFor(10 * time.Second)
	if rttErr != nil {
		t.Fatal(rttErr)
	}
	if rtt < 74*time.Millisecond || rtt > 80*time.Millisecond {
		t.Fatalf("HKU-SIAT tunnel rtt = %v", rtt)
	}
	if err := w.IPOPUp("HKU1", "SIAT", "PU"); err != nil {
		t.Fatal(err)
	}
	// Physical baseline pair.
	sa, sb, err := w.PhysicalPair(w.M("HKU1"), w.M("SIAT"))
	if err != nil {
		t.Fatal(err)
	}
	var prtt sim.Duration
	w.Eng.Spawn("phys-ping", func(p *sim.Proc) {
		sa.Ping(p, sb.IP(), 56, 5*time.Second)
		prtt, _ = sa.Ping(p, sb.IP(), 56, 5*time.Second)
	})
	w.Eng.RunFor(10 * time.Second)
	if prtt < 74*time.Millisecond || prtt > 78*time.Millisecond {
		t.Fatalf("physical rtt = %v", prtt)
	}
}

func TestEmulatedWANBuild(t *testing.T) {
	w, err := Build(2, EmulatedWANSpecs(8, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	for _, m := range w.Machines {
		if got := len(m.WAV.Tunnels()); got != 7 {
			t.Fatalf("%s has %d tunnels, want 7", m.Key, got)
		}
	}
}

// TestRunProc drives one proc per case and checks the report and where
// the clock stops: on the first step boundary after the proc returns, or
// at the budget when it does not.
func TestRunProc(t *testing.T) {
	cases := []struct {
		name                string
		sleep, step, budget sim.Duration
		want                bool
		clock               sim.Duration // elapsed when RunProc returns
	}{
		{"finishes before the budget", 2500 * time.Millisecond, time.Second, 10 * time.Second, true, 3 * time.Second},
		{"budget exhausted", 10 * time.Second, time.Second, 3 * time.Second, false, 3 * time.Second},
		{"step equals budget", 2500 * time.Millisecond, 5 * time.Second, 5 * time.Second, true, 5 * time.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := Build(1, EmulatedWANSpecs(1, 100e6), nil)
			if err != nil {
				t.Fatal(err)
			}
			start := w.Eng.Now()
			returned := false
			got := w.RunProc("sleeper", c.step, c.budget, func(p *sim.Proc) {
				p.Sleep(c.sleep)
				returned = true
			})
			if got != c.want || returned != c.want {
				t.Fatalf("RunProc = %v with body returned = %v, want %v", got, returned, c.want)
			}
			if el := w.Eng.Now().Sub(start); el != c.clock {
				t.Fatalf("clock advanced %v, want %v", el, c.clock)
			}
			if !got {
				// Still parked, not abandoned: more engine time finishes it.
				w.Eng.RunFor(c.sleep)
				if !returned {
					t.Fatal("proc never resumed after the budget ran out")
				}
			}
		})
	}
}
