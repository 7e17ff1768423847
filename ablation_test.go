package wavnet

import (
	"fmt"
	"testing"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/core"
	"wavnet/internal/grouping"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/planetlab"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// CONNECT_PULSE keepalive period and the direct data path (vs routing
// everything through the rendezvous layer, which the paper rejects).

// ablationWorld builds two NATed hosts joined and tunneled.
func ablationWorld(b *testing.B, pulse sim.Duration, natTimeout sim.Duration) (*sim.Engine, []*core.Host, []*nat.Gateway) {
	return ablationWorldNAT(b, pulse, natTimeout, nat.PortRestrictedCone)
}

// ablationWorldNAT is ablationWorld behind a chosen NAT policy (symmetric
// NATs force the broker-relayed path).
func ablationWorldNAT(b *testing.B, pulse sim.Duration, natTimeout sim.Duration, natType nat.Type) (*sim.Engine, []*core.Host, []*nat.Gateway) {
	b.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	hub := nw.NewSite("hub")
	rdvHost := nw.NewPublicHost("rdv", hub, netsim.MustParseIP("50.0.0.1"), 1e9, time.Millisecond)
	rdv, err := rendezvous.NewServer(rdvHost, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rdv.Bootstrap()
	var hosts []*core.Host
	var gws []*nat.Gateway
	for i := 0; i < 2; i++ {
		site := nw.NewSite("s")
		nw.SetRTT(hub, site, 20*time.Millisecond)
		if i == 1 {
			nw.SetRTT(nw.Sites()[1], site, 40*time.Millisecond)
		}
		gw := nw.NewPublicHost("gw", site, netsim.MakeIP(60, byte(i+1), 0, 1), 100e6, 100*time.Microsecond)
		lan := nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		g := nat.Attach(gw, natType)
		g.MappingTimeout = natTimeout
		gws = append(gws, g)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := core.NewHost(phys, "h"+string(rune('0'+i)), core.Config{PulsePeriod: pulse})
		if err != nil {
			b.Fatal(err)
		}
		hosts = append(hosts, h)
		// Capture the loop variables: under go.mod's go 1.21 semantics
		// the closure otherwise runs with i == 2 and both hosts would
		// create their Dom0 on the same virtual IP.
		i, hh := i, h
		eng.Spawn("join", func(p *sim.Proc) {
			if e := hh.Join(p, rdv.Addr()); e != nil {
				b.Errorf("join: %v", e)
			}
			hh.CreateDom0(netsim.MakeIP(10, 3, 0, byte(i+1)))
		})
	}
	eng.RunFor(20 * time.Second)
	eng.Spawn("connect", func(p *sim.Proc) {
		if _, err := hosts[0].ConnectTo(p, "h1"); err != nil {
			b.Errorf("connect: %v", err)
		}
	})
	eng.RunFor(20 * time.Second)
	return eng, hosts, gws
}

// BenchmarkAblationPulsePeriod sweeps the CONNECT_PULSE period against a
// 60 s NAT timeout and reports whether the tunnel survived one idle hour
// plus the keepalive overhead incurred — the paper's argument for a tiny
// 2-byte pulse at a 5 s period.
func BenchmarkAblationPulsePeriod(b *testing.B) {
	for _, pulse := range []sim.Duration{5 * time.Second, 30 * time.Second, 90 * time.Second} {
		pulse := pulse
		b.Run(pulse.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, hosts, _ := ablationWorld(b, pulse, 60*time.Second)
				eng.RunFor(time.Hour) // idle, keepalives only
				var rtt sim.Duration
				var err error
				eng.Spawn("probe", func(p *sim.Proc) {
					rtt, err = hosts[0].TunnelRTT(p, "h1")
				})
				eng.RunFor(30 * time.Second)
				if i == 0 {
					alive := 0.0
					if err == nil && rtt > 0 {
						alive = 1
					}
					b.ReportMetric(alive, "tunnel-alive")
					tun, ok := hosts[0].Tunnel("h1")
					if ok {
						b.ReportMetric(float64(tun.PulsesOut), "pulses/hour")
						// CONNECT_PULSE is 2 bytes + 28 UDP/IP overhead.
						b.ReportMetric(float64(tun.PulsesOut)*30, "pulse-bytes/hour")
					}
					// The paper's design point: pulses far below NAT
					// timeout keep the tunnel up; slower pulses kill it.
					if pulse < 60*time.Second && alive == 0 {
						b.Fatalf("pulse %v should keep the tunnel alive", pulse)
					}
					if pulse > 60*time.Second && alive == 1 {
						b.Fatalf("pulse %v should let the NAT expire the tunnel", pulse)
					}
				}
			}
		})
	}
}

// BenchmarkAblationRelayVsDirect quantifies what the direct punched path
// saves over the relay fallback: the same bulk transfer runs over a
// punchable NAT pair (direct host-to-host) and over a symmetric pair
// (forwarded through the broker). The relayed path pays two WAN legs and
// the broker's forwarding; the paper's central argument for hole
// punching over traditional relayed VPNs is this gap.
func BenchmarkAblationRelayVsDirect(b *testing.B) {
	for _, mode := range []struct {
		name string
		nat  nat.Type
	}{
		{"direct/port-restricted", nat.PortRestrictedCone},
		{"relayed/symmetric", nat.Symmetric},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, hosts, _ := ablationWorldNAT(b, 5*time.Second, 120*time.Second, mode.nat)
				tun, ok := hosts[0].Tunnel("h1")
				if !ok || !tun.Established() {
					b.Fatal("tunnel not established")
				}
				wantRelayed := mode.nat == nat.Symmetric
				if tun.Relayed != wantRelayed {
					b.Fatalf("tunnel relayed=%v, want %v", tun.Relayed, wantRelayed)
				}
				if err := apps.StartSink(hosts[1].Dom0(), 5001); err != nil {
					b.Fatal(err)
				}
				var res *apps.TTCPResult
				var rtt sim.Duration
				eng.Spawn("ttcp", func(p *sim.Proc) {
					rtt, _ = hosts[0].TunnelRTT(p, "h1")
					r, err := apps.TTCP(p, hosts[0].Dom0(),
						netsim.Addr{IP: hosts[1].Dom0().IP(), Port: 5001}, 8<<20, 16384)
					if err != nil {
						b.Errorf("ttcp: %v", err)
						return
					}
					res = r
				})
				eng.RunFor(10 * time.Minute)
				if i == 0 && res != nil {
					b.ReportMetric(res.KBps*8/1000, "Mbps")
					b.ReportMetric(float64(rtt)/1e6, "tunnel-rtt-ms")
				}
			}
		})
	}
}

// BenchmarkAblationGroupingComplexity contrasts the paper's O(N·k)
// grouping approximation with the O(N^k) brute force it replaces: the
// approximation handles PlanetLab scale (N=400) at any k, while brute
// force is only feasible for toy k — and on those toy cases the
// approximation's mean latency stays within a few percent of optimal.
func BenchmarkAblationGroupingComplexity(b *testing.B) {
	ds := planetlab.Generate(42, planetlab.Hosts)
	for _, k := range []int{4, 8, 16, 32, 64} {
		k := k
		b.Run(fmt.Sprintf("locality/N=400/k=%d", k), func(b *testing.B) {
			var group []int
			for i := 0; i < b.N; i++ {
				g, err := grouping.LocalitySensitive(ds.RTT, k)
				if err != nil {
					b.Fatal(err)
				}
				group = g
			}
			b.ReportMetric(float64(grouping.MeanLatency(ds.RTT, group))/1e6, "mean-ms")
		})
	}
	// Brute force comparison on a subsample small enough to finish.
	sub := make([][]sim.Duration, 16)
	for i := range sub {
		sub[i] = append([]sim.Duration(nil), ds.RTT[i][:16]...)
	}
	for _, k := range []int{3, 4} {
		k := k
		b.Run(fmt.Sprintf("bruteforce/N=16/k=%d", k), func(b *testing.B) {
			var exact []int
			for i := 0; i < b.N; i++ {
				g, err := grouping.BruteForce(sub, k)
				if err != nil {
					b.Fatal(err)
				}
				exact = g
			}
			approx, err := grouping.LocalitySensitive(sub, k)
			if err != nil {
				b.Fatal(err)
			}
			exactMean := float64(grouping.MeanLatency(sub, exact))
			approxMean := float64(grouping.MeanLatency(sub, approx))
			b.ReportMetric(exactMean/1e6, "optimal-ms")
			b.ReportMetric(approxMean/exactMean, "approx-ratio")
		})
	}
}

// BenchmarkAblationDataBypass quantifies §II.B's design choice: after
// setup, data flows directly host-to-host. We compare the rendezvous
// server's packet load during a bulk transfer against the data volume —
// in a relay design they would be proportional.
func BenchmarkAblationDataBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, hosts, _ := ablationWorld(b, 5*time.Second, 120*time.Second)
		rdvHost := hosts[0].Phys().Network().HostByIP(netsim.MustParseIP("50.0.0.1"))
		before := rdvHost.RecvPackets
		if err := apps.StartSink(hosts[1].Dom0(), 5001); err != nil {
			b.Fatal(err)
		}
		var moved int64
		eng.Spawn("ttcp", func(p *sim.Proc) {
			res, err := apps.TTCP(p, hosts[0].Dom0(),
				netsim.Addr{IP: hosts[1].Dom0().IP(), Port: 5001}, 16<<20, 16384)
			if err != nil {
				b.Errorf("ttcp: %v", err)
				return
			}
			moved = res.Bytes
		})
		eng.RunFor(5 * time.Minute)
		if i == 0 {
			rdvPkts := rdvHost.RecvPackets - before
			b.ReportMetric(float64(moved)/1e6, "data-MB")
			b.ReportMetric(float64(rdvPkts), "rdv-pkts-during-transfer")
			// ~16 MB of data is >11000 tunnel packets; the broker must
			// see only session pulses (a few dozen).
			if rdvPkts > 200 {
				b.Fatalf("rendezvous server saw %d packets during data transfer; data plane not bypassing it", rdvPkts)
			}
		}
	}
}
