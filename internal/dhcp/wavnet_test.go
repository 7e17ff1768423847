package dhcp_test

import (
	"testing"
	"time"

	"wavnet/internal/core"
	"wavnet/internal/dhcp"
	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// TestDHCPAcrossWAVNetTunnel is the paper's §II.B claim made executable:
// "the two hosts are connected as if to an Ethernet switch. Therefore,
// protocols such as DHCP can be applied without any modification." An
// unconfigured stack on one NATed host broadcasts DISCOVER; the frame is
// tunneled across the emulated WAN to a DHCP server on the other host,
// and the lease configures the client end-to-end.
func TestDHCPAcrossWAVNetTunnel(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	nw.Pool().SetPoison(true) // catch use-after-release in every test on this network
	hub := nw.NewSite("hub")
	rdvHost := nw.NewPublicHost("rdv", hub, netsim.MustParseIP("50.0.0.1"), 100e6, time.Millisecond)
	rdv, err := rendezvous.NewServer(rdvHost, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rdv.Bootstrap()

	var hosts []*core.Host
	var sites []*netsim.Site
	for i := 0; i < 2; i++ {
		site := nw.NewSite("site")
		sites = append(sites, site)
		nw.SetRTT(hub, site, 30*time.Millisecond)
		gw := nw.NewPublicHost("gw", site, netsim.MakeIP(60, byte(i+1), 0, 1), 100e6, 100*time.Microsecond)
		lan := nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.PortRestrictedCone)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := core.NewHost(phys, []string{"alpha", "beta"}[i], core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
		hh := h
		eng.Spawn("join", func(p *sim.Proc) {
			if e := hh.Join(p, rdv.Addr()); e != nil {
				t.Errorf("join: %v", e)
			}
		})
	}
	nw.SetRTT(sites[0], sites[1], 60*time.Millisecond)
	eng.RunFor(20 * time.Second)
	eng.Spawn("connect", func(p *sim.Proc) {
		if _, err := hosts[0].ConnectTo(p, "beta"); err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	eng.RunFor(20 * time.Second)

	// DHCP server on alpha's side of the virtual LAN.
	srvStack := hosts[0].CreateDom0(netsim.MustParseIP("10.9.0.1"))
	if _, err := dhcp.NewServer(srvStack, dhcp.ServerConfig{
		PoolStart: netsim.MustParseIP("10.9.0.100"),
		PoolEnd:   netsim.MustParseIP("10.9.0.109"),
	}); err != nil {
		t.Fatal(err)
	}

	// Unconfigured stack on beta, across the WAN.
	clientStack := ipstack.New(eng, "beta-guest", hosts[1].AttachVIF("vif1"),
		hosts[1].NewMAC(), 0, ipstack.Config{MTU: hosts[1].VirtualMTU()})
	client, err := dhcp.NewClient(clientStack, dhcp.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var leased netsim.IP
	var acqErr error
	var rtt sim.Duration
	var pingErr error
	eng.Spawn("acquire", func(p *sim.Proc) {
		leased, acqErr = client.Acquire(p)
		if acqErr != nil {
			return
		}
		// The fresh lease is immediately usable across the tunnel.
		rtt, pingErr = clientStack.Ping(p, srvStack.IP(), 56, 5*time.Second)
	})
	eng.RunFor(time.Minute)

	if acqErr != nil {
		t.Fatalf("acquire over tunnel: %v", acqErr)
	}
	if leased != netsim.MustParseIP("10.9.0.100") {
		t.Fatalf("leased %v, want 10.9.0.100", leased)
	}
	if clientStack.IP() != leased {
		t.Fatalf("client stack not configured: %v", clientStack.IP())
	}
	if pingErr != nil {
		t.Fatalf("ping over fresh lease: %v", pingErr)
	}
	// RTT must reflect the WAN path (two 30 ms spokes), not a local reply.
	if rtt < 50*time.Millisecond {
		t.Fatalf("rtt %v implausibly low for the WAN path", rtt)
	}
}
