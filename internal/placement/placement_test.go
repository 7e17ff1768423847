package placement

import (
	"errors"
	"testing"
	"time"

	"wavnet/internal/sim"
)

// twoClusters is a 6-host universe: a,b,c sit 2 ms apart; d,e,f sit
// 2 ms apart; the clusters are 150 ms from each other.
func twoClusters() ([]string, [][]sim.Duration) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	near := 2 * time.Millisecond
	far := 150 * time.Millisecond
	n := len(names)
	rtts := make([][]sim.Duration, n)
	for i := range rtts {
		rtts[i] = make([]sim.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if (i < 3) == (j < 3) {
				rtts[i][j] = near
			} else {
				rtts[i][j] = far
			}
		}
	}
	return names, rtts
}

func cands(keys ...string) []Candidate {
	out := make([]Candidate, len(keys))
	for i, k := range keys {
		out[i] = Candidate{Key: k}
	}
	return out
}

func TestChoosePrefersLocalityCore(t *testing.T) {
	names, rtts := twoClusters()
	s := New(Config{GroupSize: 3})
	d, err := s.Choose(Request{VM: "vm1"}, cands("a", "b", "c", "d", "e", "f"), names, rtts)
	if err != nil {
		t.Fatal(err)
	}
	if !d.InGroup {
		t.Fatalf("decision %+v not inside the locality core", d)
	}
	if d.Host != "a" && d.Host != "b" && d.Host != "c" {
		t.Fatalf("chose %s, want a near-cluster host (core %v)", d.Host, d.Group)
	}
	if len(d.Group) != 3 {
		t.Fatalf("core %v, want 3 hosts", d.Group)
	}
	if s.GroupHits != 1 || s.Placements != 1 {
		t.Fatalf("group_hits=%d placements=%d, want 1 and 1", s.GroupHits, s.Placements)
	}
}

func TestChooseBalancesLoadWithinCore(t *testing.T) {
	names, rtts := twoClusters()
	s := New(Config{GroupSize: 3})
	cs := []Candidate{
		{Key: "a", VMs: 2, MemMB: 512},
		{Key: "b", VMs: 1, MemMB: 256},
		{Key: "c", VMs: 1, MemMB: 128},
		{Key: "d"}, // empty but outside the core
	}
	d, err := s.Choose(Request{VM: "vm1"}, cs, names, rtts)
	if err != nil {
		t.Fatal(err)
	}
	// Load spreads inside the core: the lighter of the two one-VM hosts
	// wins; the idle host outside the core never does.
	if d.Host != "c" {
		t.Fatalf("chose %s, want c (core %v)", d.Host, d.Group)
	}
}

func TestChooseFiltersByBrokerScope(t *testing.T) {
	names, rtts := twoClusters()
	s := New(Config{})
	cs := []Candidate{
		{Key: "a", Broker: "b0"},
		{Key: "b", Broker: "witness"}, // homed outside the declared set
		{Key: "d", Broker: "b1"},
	}
	d, err := s.Choose(Request{VM: "vm1", Brokers: []string{"b0", "b1"}}, cs, names, rtts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Host == "b" {
		t.Fatal("chose a host homed outside the network's broker set")
	}
	if s.FilteredBroker != 1 {
		t.Fatalf("filtered_broker=%d, want 1", s.FilteredBroker)
	}
	// All candidates out of scope: a hard error, never a fallback.
	if _, err := s.Choose(Request{VM: "vm2", Brokers: []string{"b9"}}, cs, names, rtts); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestChooseWithoutMatrixFallsBackToLoad(t *testing.T) {
	s := New(Config{})
	cs := []Candidate{
		{Key: "x", VMs: 3},
		{Key: "y", VMs: 0},
		{Key: "z", VMs: 1},
	}
	d, err := s.Choose(Request{VM: "vm1"}, cs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Host != "y" || d.InGroup || d.Group != nil {
		t.Fatalf("decision %+v, want least-loaded y with no locality claim", d)
	}
	if s.NoMatrix != 1 {
		t.Fatalf("no_matrix=%d, want 1", s.NoMatrix)
	}
}

func TestChooseMaxEdgeFilter(t *testing.T) {
	names, rtts := twoClusters()
	// A core of 4 must straddle the clusters (each has 3); with a 10 ms
	// edge cutoff every straddling candidate is filtered and the
	// algorithm falls back to the best unfiltered candidate — the
	// decision still lands on a near-cluster host.
	s := New(Config{GroupSize: 4, MaxEdge: 10 * time.Millisecond})
	d, err := s.Choose(Request{VM: "vm1"}, cands(names...), names, rtts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Host == "" {
		t.Fatal("no host chosen")
	}
}

func TestChooseDeterministic(t *testing.T) {
	names, rtts := twoClusters()
	s := New(Config{GroupSize: 3})
	first, err := s.Choose(Request{VM: "vm1"}, cands(names...), names, rtts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := s.Choose(Request{VM: "vm1"}, cands(names...), names, rtts)
		if err != nil {
			t.Fatal(err)
		}
		if again.Host != first.Host {
			t.Fatalf("non-deterministic choice: %s then %s", first.Host, again.Host)
		}
	}
}
