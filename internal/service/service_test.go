package service

import (
	"testing"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

func TestConfigNormalized(t *testing.T) {
	c := Config{}.normalized()
	if c.Policy != PolicyAnycastNearest {
		t.Fatalf("default policy %q", c.Policy)
	}
	if c.Interval != DefaultInterval || c.Timeout != DefaultTimeout ||
		c.Fall != DefaultFall || c.Rise != DefaultRise {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{Interval: 2 * sim.Second, Timeout: sim.Second, Fall: 5, Rise: 1,
		Policy: PolicyFailoverOrdered}.normalized()
	if c.Interval != 2*sim.Second || c.Timeout != sim.Second || c.Fall != 5 || c.Rise != 1 ||
		c.Policy != PolicyFailoverOrdered {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
}

func TestNewSeedsStateAndSortsBackends(t *testing.T) {
	backends := []Backend{
		{Name: "zeta", Host: "h2", IP: netsim.MustParseIP("10.0.0.3"), Order: 1},
		{Name: "alpha", Host: "h1", IP: netsim.MustParseIP("10.0.0.2"), Order: 0},
	}
	s := New(nil, Config{
		Name: "web", Net: "app", VIP: netsim.MustParseIP("10.0.0.200"),
		InitialHealth: map[string]bool{"zeta": false},
	}, nil, nil, nil, backends)

	got := s.Backends()
	if len(got) != 2 || got[0].Name != "alpha" || got[1].Name != "zeta" {
		t.Fatalf("backends not sorted by name: %+v", got)
	}
	// Seeded health: absent backends start healthy, declared ones keep
	// their observed state.
	if !s.Healthy("alpha") || s.Healthy("zeta") {
		t.Fatalf("health seeding wrong: alpha=%v zeta=%v", s.Healthy("alpha"), s.Healthy("zeta"))
	}
	if s.Healthy("ghost") {
		t.Fatal("unknown backend reports healthy")
	}
	snap := s.HealthSnapshot()
	if len(snap) != 2 || !snap["alpha"] || snap["zeta"] {
		t.Fatalf("snapshot %v", snap)
	}
	if s.Running() {
		t.Fatal("running before Start")
	}
	if c := s.Config(); c.Fall != DefaultFall {
		t.Fatalf("config not normalized through New: %+v", c)
	}
}
