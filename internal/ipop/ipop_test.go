package ipop

import (
	"testing"

	"time"
	"wavnet/internal/ipstack"

	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// rig builds an IPOP deployment of n NATed nodes plus a public STUN
// server, bootstraps it, and creates dom0 stacks 10.20.0.<i+1>.
type rig struct {
	eng   *sim.Engine
	nw    *netsim.Network
	inet  *Network
	nodes []*Node
}

func buildRig(t *testing.T, seed int64, n int, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(seed)}
	r.nw = netsim.New(r.eng)
	r.nw.Pool().SetPoison(true) // catch use-after-release in every test on this network
	hub := r.nw.NewSite("hub")
	stunHost := r.nw.NewPublicHost("stun", hub, netsim.MustParseIP("70.0.0.1"), 0, time.Millisecond)
	if _, err := stun.NewServer(stunHost, netsim.MustParseIP("70.0.0.2"), 3478, 3479); err != nil {
		t.Fatal(err)
	}
	r.inet = New(r.eng, cfg)
	for i := 0; i < n; i++ {
		site := r.nw.NewSite("s")
		r.nw.SetRTT(hub, site, time.Duration(10+5*i)*time.Millisecond)
		for j, other := range r.nw.Sites()[1 : i+1] {
			r.nw.SetRTT(other, site, time.Duration(20+5*(i+j))*time.Millisecond)
		}
		gw := r.nw.NewPublicHost("gw", site, netsim.MakeIP(80, byte(i+1), 0, 1), 100e6, 100*time.Microsecond)
		lan := r.nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.FullCone)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		node, err := r.inet.AddNode(phys, "node"+string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
	}
	r.inet.Build()
	failed := -1
	r.eng.Spawn("bootstrap", func(p *sim.Proc) {
		failed = r.inet.Bootstrap(p, netsim.Addr{IP: netsim.MustParseIP("70.0.0.1"), Port: 3478})
	})
	r.eng.RunFor(30 * time.Second)
	if failed != 0 {
		t.Fatalf("bootstrap: %d links failed", failed)
	}
	for i, node := range r.nodes {
		node.CreateDom0(netsim.MakeIP(10, 20, 0, byte(i+1)))
	}
	return r
}

func TestOverlayPing(t *testing.T) {
	r := buildRig(t, 1, 4, Config{})
	var rtt sim.Duration
	var err error
	r.eng.Spawn("ping", func(p *sim.Proc) {
		// Warm up ARP/proxy paths, then measure.
		r.nodes[0].Dom0().Ping(p, r.nodes[3].Dom0().IP(), 56, 5*time.Second)
		rtt, err = r.nodes[0].Dom0().Ping(p, r.nodes[3].Dom0().IP(), 56, 5*time.Second)
	})
	r.eng.RunFor(30 * time.Second)
	if err != nil {
		t.Fatalf("overlay ping: %v", err)
	}
	if rtt <= 0 {
		t.Fatal("no RTT measured")
	}
}

func TestOverlayMultiHopCostsMore(t *testing.T) {
	// With 8 nodes, some pairs route through intermediates: their RTT
	// must exceed the direct-physical path RTT (the overlay detour +
	// per-hop processing the paper attributes IPOP's slowdown to).
	r := buildRig(t, 2, 8, Config{})
	rtts := make([]sim.Duration, 0, 7)
	r.eng.Spawn("probe", func(p *sim.Proc) {
		for i := 1; i < 8; i++ {
			r.nodes[0].Dom0().Ping(p, r.nodes[i].Dom0().IP(), 56, 10*time.Second)
			rtt, err := r.nodes[0].Dom0().Ping(p, r.nodes[i].Dom0().IP(), 56, 10*time.Second)
			if err != nil {
				t.Errorf("ping %d: %v", i, err)
				return
			}
			rtts = append(rtts, rtt)
		}
	})
	r.eng.RunFor(5 * time.Minute)
	if len(rtts) != 7 {
		t.Fatalf("measured %d of 7 RTTs", len(rtts))
	}
	total := r.inet.Routed
	if total == 0 {
		t.Fatal("no packets routed through the overlay")
	}
}

func TestProcessingRateCap(t *testing.T) {
	// Offer far more packets than ProcRate allows: deliveries must be
	// capped near ProcRate and the backlog guard must drop the excess.
	r := buildRig(t, 3, 2, Config{ProcRate: 500})
	n0, n1 := r.nodes[0], r.nodes[1]
	got := 0
	sock1, err := n1.Dom0().BindUDP(7000, func(ipstack.Datagram) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	_ = sock1
	r.eng.Spawn("blast", func(p *sim.Proc) {
		cli, _ := n0.Dom0().BindUDP(0, nil)
		// 2000 pps for 4 s = 8000 datagrams against a 500 pps cap.
		for i := 0; i < 8000; i++ {
			cli.SendTo(netsim.Addr{IP: n1.Dom0().IP(), Port: 7000}, make([]byte, 100))
			p.Sleep(500 * time.Microsecond)
		}
	})
	r.eng.RunFor(20 * time.Second)
	if got > 3000 {
		t.Fatalf("rate cap leaked: %d datagrams delivered (cap 500 pps × ~5 s)", got)
	}
	if n0.ProcDrops == 0 {
		t.Fatal("no processing drops recorded under overload")
	}
	if got < 1000 {
		t.Fatalf("cap too aggressive: only %d delivered", got)
	}
}

func TestStaleRouteAfterOwnerGone(t *testing.T) {
	// The migration flaw in miniature: the IP map still points at node 0
	// even after its stack detaches; traffic must keep flowing there and
	// die, not find the new location.
	r := buildRig(t, 4, 3, Config{})
	moved := netsim.MakeIP(10, 20, 0, 99)
	r.inet.RegisterIP(moved, r.nodes[0]) // "VM" lives on node 0 per the overlay
	var err error
	r.eng.Spawn("probe", func(p *sim.Proc) {
		// Node 2 pings the address: node 0 has no such local stack, so
		// delivery fails (ARP on the local bridge never resolves).
		_, err = r.nodes[2].Dom0().Ping(p, moved, 56, 3*time.Second)
	})
	r.eng.RunFor(30 * time.Second)
	if err == nil {
		t.Fatal("ping to stale-mapped address succeeded; IPOP should not track moves")
	}
}
