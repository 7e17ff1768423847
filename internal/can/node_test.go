package can

import (
	"errors"
	"math"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// overlay builds n CAN nodes on public hosts at one site with a small RTT
// and joins them sequentially.
type overlay struct {
	eng   *sim.Engine
	nw    *netsim.Network
	nodes []*Node
}

func buildOverlay(t *testing.T, n int, seed int64) *overlay {
	t.Helper()
	o := &overlay{eng: sim.NewEngine(seed)}
	o.nw = netsim.New(o.eng)
	site := o.nw.NewSite("dc")
	site2 := o.nw.NewSite("dc2")
	o.nw.SetRTT(site, site2, 10*time.Millisecond)
	for i := 0; i < n; i++ {
		s := site
		if i%2 == 1 {
			s = site2
		}
		ip := netsim.MakeIP(10+byte(i/200), byte(i%200)+1, 0, 1)
		h := o.nw.NewPublicHost("rs", s, ip, 0, 0)
		node, err := NewNode(h, 9000)
		if err != nil {
			t.Fatal(err)
		}
		o.nodes = append(o.nodes, node)
	}
	o.nodes[0].Bootstrap()
	for i := 1; i < n; i++ {
		i := i
		var joinErr error
		done := false
		// Stagger joins to keep heartbeats decorrelated.
		o.eng.Schedule(time.Duration(i)*200*time.Millisecond, func() {
			o.nodes[i].Join(o.nodes[0].Addr(), func(e error) { joinErr = e; done = true })
		})
		o.eng.RunUntil(o.eng.Now().Add(time.Duration(i+1) * 200 * time.Millisecond).Add(5 * time.Second))
		if !done || joinErr != nil {
			t.Fatalf("node %d join: done=%v err=%v", i, done, joinErr)
		}
	}
	return o
}

func (o *overlay) totalVolume() float64 {
	var v float64
	for _, n := range o.nodes {
		if !n.Active() {
			continue
		}
		for _, z := range n.zones {
			v += z.Volume()
		}
	}
	return v
}

func TestTwoNodePartition(t *testing.T) {
	o := buildOverlay(t, 2, 1)
	if math.Abs(o.totalVolume()-1) > 1e-12 {
		t.Fatalf("volume sum %v", o.totalVolume())
	}
	if o.nodes[0].NeighborCount() != 1 || o.nodes[1].NeighborCount() != 1 {
		t.Fatalf("neighbor counts %d, %d", o.nodes[0].NeighborCount(), o.nodes[1].NeighborCount())
	}
}

func TestSixteenNodePartitionAndRouting(t *testing.T) {
	o := buildOverlay(t, 16, 2)
	if math.Abs(o.totalVolume()-1) > 1e-12 {
		t.Fatalf("volume sum %v", o.totalVolume())
	}
	// Every lookup from every node must land on the owner of the point.
	probes := []Point{{0.1, 0.1}, {0.9, 0.2}, {0.5, 0.5}, {0.01, 0.99}, {0.7, 0.7}}
	for _, probe := range probes {
		probe := probe
		var owner netsim.Addr
		var err error
		done := false
		o.nodes[5].Lookup(probe, func(r LookupResult, e error) { owner, err = r.Owner, e; done = true })
		o.eng.RunFor(5 * time.Second)
		if !done || err != nil {
			t.Fatalf("lookup %v: done=%v err=%v", probe, done, err)
		}
		// Verify the responding node really owns the point.
		found := false
		for _, n := range o.nodes {
			if n.Addr() == owner {
				found = anyContains(n.zones, probe)
			}
		}
		if !found {
			t.Fatalf("lookup %v answered by non-owner %v", probe, owner)
		}
	}
}

func TestPutLookup(t *testing.T) {
	o := buildOverlay(t, 8, 3)
	key := Point{0.42, 0.42}
	res := Resource{ID: "host-a", Key: key, Value: []byte("cpu=4")}

	var putErr error
	done := false
	o.nodes[1].Put(res, 0, func(e error) { putErr = e; done = true })
	o.eng.RunFor(3 * time.Second)
	if !done || putErr != nil {
		t.Fatalf("put: done=%v err=%v", done, putErr)
	}

	var got LookupResult
	var lookErr error
	done = false
	o.nodes[6].Lookup(key, func(r LookupResult, e error) { got, lookErr = r, e; done = true })
	o.eng.RunFor(3 * time.Second)
	if !done || lookErr != nil {
		t.Fatalf("lookup: done=%v err=%v", done, lookErr)
	}
	if len(got.Resources) != 1 || got.Resources[0].ID != "host-a" || string(got.Resources[0].Value) != "cpu=4" {
		t.Fatalf("lookup resources = %+v", got.Resources)
	}
}

func TestResourceTTLExpiry(t *testing.T) {
	o := buildOverlay(t, 4, 4)
	key := Point{0.3, 0.3}
	done := false
	o.nodes[1].Put(Resource{ID: "r", Key: key, Value: []byte{1}}, 10*time.Second, func(error) { done = true })
	o.eng.RunFor(3 * time.Second)
	if !done {
		t.Fatal("put did not resolve")
	}
	var got LookupResult
	done = false
	o.nodes[2].Lookup(key, func(r LookupResult, e error) { got = r; done = true })
	o.eng.RunFor(2 * time.Second)
	if !done || len(got.Resources) != 1 {
		t.Fatalf("resource missing before expiry: %+v", got.Resources)
	}
	o.eng.RunFor(10 * time.Second) // past TTL
	done = false
	o.nodes[2].Lookup(key, func(r LookupResult, e error) { got = r; done = true })
	o.eng.RunFor(2 * time.Second)
	if !done || len(got.Resources) != 0 {
		t.Fatalf("resource survived TTL: %+v", got.Resources)
	}
}

func TestCrashTakeover(t *testing.T) {
	o := buildOverlay(t, 8, 6)
	victim := o.nodes[4]
	key := victim.zones[0].Center()
	// Simulated crash: the node stops responding entirely.
	victim.active = false
	if victim.hbEv != nil {
		o.eng.Cancel(victim.hbEv)
	}
	victim.sock.Close()

	// Wait for failure detection (failAfter × heartbeatPeriod + slack).
	o.eng.RunFor(60 * time.Second)

	if math.Abs(o.totalVolume()-1) > 1e-9 {
		t.Fatalf("volume sum after crash takeover = %v", o.totalVolume())
	}
	// Routing to the dead zone must succeed again.
	var err error
	done := false
	o.nodes[0].Lookup(key, func(r LookupResult, e error) { err = e; done = true })
	o.eng.RunFor(5 * time.Second)
	if !done || err != nil {
		t.Fatalf("lookup into recovered zone: done=%v err=%v", done, err)
	}
}

// errPending marks a callback that never ran.
var errPending = errors.New("callback never ran")

func TestJoinPutLookup(t *testing.T) {
	eng := sim.NewEngine(7)
	nw := netsim.New(eng)
	site := nw.NewSite("dc")
	h1 := nw.NewPublicHost("a", site, netsim.MustParseIP("10.0.0.1"), 0, 0)
	h2 := nw.NewPublicHost("b", site, netsim.MustParseIP("10.0.0.2"), 0, 0)
	n1, _ := NewNode(h1, 9000)
	n2, _ := NewNode(h2, 9000)
	n1.Bootstrap()
	joinErr, putErr, lookErr := errPending, errPending, errPending
	var res LookupResult
	n2.Join(n1.Addr(), func(err error) {
		joinErr = err
		n2.Put(Resource{ID: "x", Key: Point{0.5, 0.5}, Value: []byte{9}}, 0, func(err error) {
			putErr = err
			n1.Lookup(Point{0.5, 0.5}, func(r LookupResult, err error) { res, lookErr = r, err })
		})
	})
	eng.RunFor(30 * time.Second)
	if joinErr != nil || putErr != nil || lookErr != nil {
		t.Fatalf("join, put, lookup: %v %v %v", joinErr, putErr, lookErr)
	}
	if len(res.Resources) != 1 || res.Resources[0].ID != "x" {
		t.Fatalf("lookup = %+v", res.Resources)
	}
}

func TestLookupTimeoutWhenUnreachable(t *testing.T) {
	eng := sim.NewEngine(8)
	nw := netsim.New(eng)
	site := nw.NewSite("dc")
	h1 := nw.NewPublicHost("a", site, netsim.MustParseIP("10.0.0.1"), 0, 0)
	n1, _ := NewNode(h1, 9000)
	// Not bootstrapped: inactive node must fail the RPC.
	var err error
	done := false
	n1.Lookup(Point{0.5, 0.5}, func(r LookupResult, e error) { err = e; done = true })
	eng.RunFor(5 * time.Second)
	if !done || err == nil {
		t.Fatalf("lookup on inactive node: done=%v err=%v", done, err)
	}
}

func TestDeterministicOverlay(t *testing.T) {
	sig := func() string {
		o := buildOverlay(t, 8, 42)
		s := ""
		for _, n := range o.nodes {
			for _, z := range n.zones {
				s += z.String() + ";"
			}
			s += "|"
		}
		return s
	}
	if sig() != sig() {
		t.Fatal("overlay construction not deterministic")
	}
}
