package core

import (
	"io"
	"strings"
	"testing"
	"time"

	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// world is a complete test universe: one rendezvous server and n NATed
// hosts at distinct sites.
type world struct {
	eng   *sim.Engine
	nw    *netsim.Network
	rdv   *rendezvous.Server
	hosts []*Host
	gws   []*nat.Gateway
}

// buildWorld creates n hosts behind the given NAT types (cycled), each at
// its own site with rttMS[i] round-trip to the server site.
func buildWorld(t testing.TB, seed int64, types []nat.Type, rtts []sim.Duration) *world {
	return buildWorldCfg(t, seed, types, rtts, rendezvous.Config{})
}

// buildWorldCfg is buildWorld with an explicit rendezvous configuration.
func buildWorldCfg(t testing.TB, seed int64, types []nat.Type, rtts []sim.Duration, rcfg rendezvous.Config) *world {
	t.Helper()
	w := &world{eng: sim.NewEngine(seed)}
	w.nw = netsim.New(w.eng)
	// Poisoned leases: a payload read after its last Release is 0xDB
	// garbage and a second Release panics, in every test on this world.
	w.nw.Pool().SetPoison(true)
	hub := w.nw.NewSite("hub")

	rdvHost := w.nw.NewPublicHost("rdv", hub, netsim.MustParseIP("50.0.0.1"), 100e6, time.Millisecond)
	srv, err := rendezvous.NewServer(rdvHost, netsim.MustParseIP("50.0.0.2"), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Bootstrap()
	w.rdv = srv

	for i, typ := range types {
		site := w.nw.NewSite("site")
		w.nw.SetRTT(hub, site, rtts[i])
		for j := range w.nw.Sites() {
			if j > 0 && j <= i {
				// Inter-host sites: sum of spokes approximates a hub
				// topology; set it explicitly for determinism.
				w.nw.SetRTT(w.nw.Sites()[j], site, rtts[i]+rtts[j-1])
			}
		}
		gwIP := netsim.MakeIP(60, byte(i+1), 0, 1)
		gw := w.nw.NewPublicHost("gw", site, gwIP, 100e6, 100*time.Microsecond)
		lan := w.nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		w.gws = append(w.gws, nat.Attach(gw, typ))
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := NewHost(phys, hostName(i), Config{})
		if err != nil {
			t.Fatal(err)
		}
		w.hosts = append(w.hosts, h)
	}
	return w
}

func hostName(i int) string { return string(rune('a'+i)) + "-host" }

// joinAll joins every host, failing the test on error.
func (w *world) joinAll(t testing.TB) {
	t.Helper()
	errs := make([]error, len(w.hosts))
	for i, h := range w.hosts {
		i, h := i, h
		w.eng.Spawn("join", func(p *sim.Proc) {
			errs[i] = h.Join(p, w.rdv.Addr())
		})
	}
	w.eng.RunFor(30 * time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d join: %v", i, err)
		}
	}
}

func TestJoinDetectsNATAndRegisters(t *testing.T) {
	w := buildWorld(t, 1, []nat.Type{nat.FullCone, nat.PortRestrictedCone},
		[]sim.Duration{20 * time.Millisecond, 40 * time.Millisecond})
	w.joinAll(t)
	if w.hosts[0].NATClass() != stun.ClassFullCone {
		t.Fatalf("host0 class = %v", w.hosts[0].NATClass())
	}
	if w.hosts[1].NATClass() != stun.ClassPortRestrictedCone {
		t.Fatalf("host1 class = %v", w.hosts[1].NATClass())
	}
	if w.rdv.Sessions() != 2 {
		t.Fatalf("sessions = %d", w.rdv.Sessions())
	}
	if w.hosts[0].Mapped().IP != w.gws[0].PublicIP() {
		t.Fatalf("host0 mapped %v not behind gateway %v", w.hosts[0].Mapped(), w.gws[0].PublicIP())
	}
}

func TestConnectEstablishesTunnel(t *testing.T) {
	w := buildWorld(t, 2, []nat.Type{nat.RestrictedCone, nat.PortRestrictedCone},
		[]sim.Duration{20 * time.Millisecond, 30 * time.Millisecond})
	w.joinAll(t)
	var tun *Tunnel
	var err error
	w.eng.Spawn("connect", func(p *sim.Proc) {
		tun, err = w.hosts[0].ConnectTo(p, hostName(1))
	})
	w.eng.RunFor(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tun == nil || !tun.Established() {
		t.Fatal("tunnel not established")
	}
	// Both ends must hold an established tunnel.
	if t2, ok := w.hosts[1].Tunnel(hostName(0)); !ok || !t2.Established() {
		t.Fatal("peer side tunnel missing")
	}
	// The tunnel endpoint must be the peer's NAT mapping, not a private
	// address.
	if tun.Remote.IP != w.gws[1].PublicIP() {
		t.Fatalf("tunnel remote %v, want behind %v", tun.Remote, w.gws[1].PublicIP())
	}
}

func TestConnectRefusesUnpunchablePairWithRelayDisabled(t *testing.T) {
	// The paper's behaviour: STUN marks symmetric NATs unsuitable for
	// hole punching and the connect is refused outright.
	w := buildWorldCfg(t, 3, []nat.Type{nat.Symmetric, nat.Symmetric},
		[]sim.Duration{20 * time.Millisecond, 30 * time.Millisecond},
		rendezvous.Config{DisableRelay: true})
	w.joinAll(t)
	var err error
	w.eng.Spawn("connect", func(p *sim.Proc) {
		_, err = w.hosts[0].ConnectTo(p, hostName(1))
	})
	w.eng.RunFor(30 * time.Second)
	if err == nil {
		t.Fatal("symmetric-symmetric connect should fail with the relay disabled")
	}
}

func TestUnpunchablePairFallsBackToRelay(t *testing.T) {
	w := buildWorld(t, 3, []nat.Type{nat.Symmetric, nat.Symmetric},
		[]sim.Duration{20 * time.Millisecond, 30 * time.Millisecond})
	w.joinAll(t)
	var tun *Tunnel
	var err error
	var rtt sim.Duration
	w.eng.Spawn("connect", func(p *sim.Proc) {
		tun, err = w.hosts[0].ConnectTo(p, hostName(1))
		if err != nil {
			return
		}
		rtt, err = w.hosts[0].TunnelRTT(p, hostName(1))
	})
	w.eng.RunFor(60 * time.Second)
	if err != nil {
		t.Fatalf("relay fallback: %v", err)
	}
	if !tun.Relayed {
		t.Fatal("tunnel between symmetric NATs should be relayed")
	}
	if tun.Remote != w.rdv.Addr() {
		t.Fatalf("relayed tunnel remote %v, want broker %v", tun.Remote, w.rdv.Addr())
	}
	// The relayed path transits the hub twice: RTT ≈ 20+30 ms plus
	// processing; a direct path would be impossible here.
	if rtt < 45*time.Millisecond {
		t.Fatalf("relayed RTT %v too low for the via-broker path", rtt)
	}
	if w.rdv.RelayChannelCount() == 0 || w.rdv.RelayFrames == 0 {
		t.Fatal("broker shows no relay activity")
	}
	// Data flows: ICMP over the virtual LAN through the relay.
	a := w.hosts[0].CreateDom0(netsim.MustParseIP("10.3.0.1"))
	w.hosts[1].CreateDom0(netsim.MustParseIP("10.3.0.2"))
	var pingRTT sim.Duration
	var pingErr error
	w.eng.Spawn("ping", func(p *sim.Proc) {
		pingRTT, pingErr = a.Ping(p, netsim.MustParseIP("10.3.0.2"), 56, 10*time.Second)
	})
	w.eng.RunFor(30 * time.Second)
	if pingErr != nil {
		t.Fatalf("ping over relayed tunnel: %v", pingErr)
	}
	if pingRTT < 45*time.Millisecond {
		t.Fatalf("relayed ping RTT %v too low", pingRTT)
	}
}

func TestTunnelRTTMatchesPath(t *testing.T) {
	w := buildWorld(t, 4, []nat.Type{nat.FullCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 25 * time.Millisecond})
	w.joinAll(t)
	var rtt sim.Duration
	var err error
	w.eng.Spawn("probe", func(p *sim.Proc) {
		if _, err = w.hosts[0].ConnectTo(p, hostName(1)); err != nil {
			return
		}
		rtt, err = w.hosts[0].TunnelRTT(p, hostName(1))
	})
	w.eng.RunFor(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Host-to-host RTT = 10+25 = 35 ms plus LAN/access hops.
	if rtt < 35*time.Millisecond || rtt > 40*time.Millisecond {
		t.Fatalf("tunnel rtt = %v, want ≈35 ms", rtt)
	}
}

// virtualPing wires dom0 stacks on both hosts and pings across the
// tunnel: exercises ARP resolution and ICMP through the whole
// encapsulation path.
func TestVirtualLanPingAndTCP(t *testing.T) {
	w := buildWorld(t, 5, []nat.Type{nat.FullCone, nat.RestrictedCone},
		[]sim.Duration{15 * time.Millisecond, 22 * time.Millisecond})
	w.joinAll(t)
	s0 := w.hosts[0].CreateDom0(netsim.MustParseIP("10.10.0.1"))
	s1 := w.hosts[1].CreateDom0(netsim.MustParseIP("10.10.0.2"))

	var rtt sim.Duration
	var pingErr, tcpErr error
	served := 0
	w.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := s1.Listen(5001)
		c, err := l.Accept(p)
		if err != nil {
			tcpErr = err
			return
		}
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(p, buf)
			served += n
			if err == io.EOF {
				return
			}
			if err != nil {
				tcpErr = err
				return
			}
		}
	})
	w.eng.Spawn("client", func(p *sim.Proc) {
		if _, err := w.hosts[0].ConnectTo(p, hostName(1)); err != nil {
			pingErr = err
			return
		}
		// First ping pays ARP resolution across the tunnel; measure the
		// second.
		if _, pingErr = s0.Ping(p, s1.IP(), 56, 5*time.Second); pingErr != nil {
			return
		}
		rtt, pingErr = s0.Ping(p, s1.IP(), 56, 5*time.Second)
		if pingErr != nil {
			return
		}
		c, err := s0.Dial(p, netsim.Addr{IP: s1.IP(), Port: 5001})
		if err != nil {
			tcpErr = err
			return
		}
		chunk := make([]byte, 8192)
		for sent := 0; sent < 256<<10; sent += len(chunk) {
			c.Write(p, chunk)
		}
		c.Close()
	})
	w.eng.RunFor(120 * time.Second)
	if pingErr != nil || tcpErr != nil {
		t.Fatalf("ping err=%v tcp err=%v", pingErr, tcpErr)
	}
	// Virtual RTT ≈ physical RTT (37 ms) + small encapsulation cost.
	if rtt < 37*time.Millisecond || rtt > 45*time.Millisecond {
		t.Fatalf("virtual ping rtt = %v", rtt)
	}
	if served != 256<<10 {
		t.Fatalf("TCP through tunnel served %d bytes", served)
	}
}

func TestKeepaliveHoldsNATMapping(t *testing.T) {
	w := buildWorld(t, 6, []nat.Type{nat.PortRestrictedCone, nat.PortRestrictedCone},
		[]sim.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	// Short NAT timeout: 20 s; pulses every 5 s must keep it alive.
	for _, g := range w.gws {
		g.MappingTimeout = 20 * time.Second
	}
	w.joinAll(t)
	var rttErr error
	var late sim.Duration
	w.eng.Spawn("driver", func(p *sim.Proc) {
		if _, err := w.hosts[0].ConnectTo(p, hostName(1)); err != nil {
			rttErr = err
			return
		}
		// Idle (apart from keepalives) for 3 minutes, then probe.
		p.Sleep(3 * time.Minute)
		late, rttErr = w.hosts[0].TunnelRTT(p, hostName(1))
	})
	w.eng.RunFor(5 * time.Minute)
	if rttErr != nil {
		t.Fatalf("tunnel died despite keepalives: %v", rttErr)
	}
	if late <= 0 {
		t.Fatal("no RTT measured after idle period")
	}
	// Both tunnels must still be established.
	tun, _ := w.hosts[0].Tunnel(hostName(1))
	if tun == nil || !tun.Established() || tun.PulsesOut < 30 {
		t.Fatalf("keepalives not flowing: %+v", tun)
	}
}

func TestDeadPeerDetection(t *testing.T) {
	w := buildWorld(t, 7, []nat.Type{nat.FullCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	w.joinAll(t)
	w.eng.Spawn("connect", func(p *sim.Proc) {
		w.hosts[0].ConnectTo(p, hostName(1))
	})
	w.eng.RunFor(15 * time.Second)
	// Kill host 1 outright.
	w.hosts[1].Leave()
	w.eng.RunFor(2 * time.Minute)
	if _, ok := w.hosts[0].Tunnel(hostName(1)); ok {
		t.Fatal("dead tunnel not garbage collected")
	}
}

func TestBroadcastFloodsAllTunnels(t *testing.T) {
	w := buildWorld(t, 8, []nat.Type{nat.FullCone, nat.FullCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond})
	w.joinAll(t)
	stacks := []*ipstack.Stack{
		w.hosts[0].CreateDom0(netsim.MustParseIP("10.10.0.1")),
		w.hosts[1].CreateDom0(netsim.MustParseIP("10.10.0.2")),
		w.hosts[2].CreateDom0(netsim.MustParseIP("10.10.0.3")),
	}
	var rtt1, rtt2 sim.Duration
	var err1, err2 error
	w.eng.Spawn("mesh", func(p *sim.Proc) {
		if _, err := w.hosts[0].ConnectTo(p, hostName(1)); err != nil {
			err1 = err
			return
		}
		if _, err := w.hosts[0].ConnectTo(p, hostName(2)); err != nil {
			err2 = err
			return
		}
		// ARP for both peers goes out as a broadcast over both tunnels.
		rtt1, err1 = stacks[0].Ping(p, stacks[1].IP(), 56, 5*time.Second)
		rtt2, err2 = stacks[0].Ping(p, stacks[2].IP(), 56, 5*time.Second)
	})
	w.eng.RunFor(60 * time.Second)
	if err1 != nil || err2 != nil {
		t.Fatalf("pings: %v / %v", err1, err2)
	}
	if rtt1 <= 0 || rtt2 <= 0 || rtt2 < rtt1 {
		t.Fatalf("rtts: %v / %v (farther peer must not be faster)", rtt1, rtt2)
	}
}

// TestPerVNISeries pins the per-network flood breakdown ScrapeInto
// exports: flood.vni<N> / suppress.vni<N> exist only for networks that
// flooded or suppressed something, and a network's totals survive
// LeaveVNI and resume when the same VNI is joined again.
func TestPerVNISeries(t *testing.T) {
	w := buildWorld(t, 9, []nat.Type{nat.FullCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 15 * time.Millisecond})
	w.joinAll(t)
	a := w.hosts[0]
	a.JoinVNI(12) // idle: never shows up
	// Every ARP for an address nobody owns floods VNI 7, and is
	// suppressed toward the one tunnel whose far end lacks the segment.
	flood := func() {
		a.JoinVNI(7)
		st, err := a.CreateDom0On(7, netsim.MustParseIP("10.7.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		w.eng.Spawn("flood", func(p *sim.Proc) {
			if _, err := a.ConnectTo(p, hostName(1)); err != nil {
				t.Error(err)
				return
			}
			st.Ping(p, netsim.MustParseIP("10.7.0.99"), 56, time.Second)
		})
		w.eng.RunFor(30 * time.Second)
	}
	scrape := func() (flooded, suppressed uint64, text string) {
		r := obs.NewRegistry()
		a.ScrapeInto(r, obs.Labels{})
		flooded, _ = r.CounterValue("flood.vni7", obs.Labels{})
		suppressed, _ = r.CounterValue("suppress.vni7", obs.Labels{})
		return flooded, suppressed, r.String()
	}
	if _, _, text := scrape(); strings.Contains(text, ".vni") {
		t.Fatalf("per-VNI series before any flood:\n%s", text)
	}
	flood()
	f1, s1, text := scrape()
	if f1 == 0 || s1 == 0 {
		t.Fatalf("flood.vni7=%d suppress.vni7=%d, want both > 0\n%s", f1, s1, text)
	}
	if strings.Contains(text, ".vni12") || strings.Contains(text, ".vni0") {
		t.Fatalf("idle networks exported per-VNI series:\n%s", text)
	}
	a.LeaveVNI(7)
	if f, s, _ := scrape(); f != f1 || s != s1 {
		t.Fatalf("totals after LeaveVNI: flood %d suppress %d, want %d and %d", f, s, f1, s1)
	}
	flood()
	if f, s, _ := scrape(); f <= f1 || s <= s1 {
		t.Fatalf("totals after re-join: flood %d suppress %d, want above %d and %d", f, s, f1, s1)
	}
}

func TestLookupByName(t *testing.T) {
	w := buildWorld(t, 9, []nat.Type{nat.FullCone, nat.RestrictedCone},
		[]sim.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	w.joinAll(t)
	var recs []rendezvous.HostRecord
	var err error
	w.eng.Spawn("lookup", func(p *sim.Proc) {
		recs, err = w.hosts[0].Lookup(p, hostName(1))
	})
	w.eng.RunFor(10 * time.Second)
	if err != nil || len(recs) != 1 {
		t.Fatalf("lookup: err=%v recs=%v", err, recs)
	}
	if recs[0].NAT != nat.RestrictedCone {
		t.Fatalf("record NAT = %v", recs[0].NAT)
	}
}

func TestMultiServerIntroduction(t *testing.T) {
	// Two rendezvous servers in a CAN; hosts registered on different
	// servers must still connect (brokered via introduce/intro-ack).
	eng := sim.NewEngine(10)
	nw := netsim.New(eng)
	s1 := nw.NewSite("s1")
	s2 := nw.NewSite("s2")
	s3 := nw.NewSite("s3")
	nw.SetRTT(s1, s2, 30*time.Millisecond)
	nw.SetRTT(s1, s3, 40*time.Millisecond)
	nw.SetRTT(s2, s3, 50*time.Millisecond)

	r1Host := nw.NewPublicHost("rdv1", s1, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	r2Host := nw.NewPublicHost("rdv2", s2, netsim.MustParseIP("50.0.1.1"), 0, time.Millisecond)
	r1, err := rendezvous.NewServer(r1Host, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rendezvous.NewServer(r2Host, netsim.MustParseIP("50.0.1.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1.Bootstrap()
	joined := false
	r2.JoinOverlay(r1.OverlayAddr(), func(e error) {
		if e != nil {
			t.Errorf("overlay join: %v", e)
		}
		joined = true
	})
	eng.RunFor(5 * time.Second)
	if !joined {
		t.Fatal("server 2 did not join the CAN")
	}

	mkHost := func(site *netsim.Site, ipByte byte, name string) *Host {
		gw := nw.NewPublicHost("gw"+name, site, netsim.MakeIP(60, ipByte, 0, 1), 0, 100*time.Microsecond)
		lan := nw.NewLan("lan"+name, site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.FullCone)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := NewHost(phys, name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ha := mkHost(s3, 1, "alpha")
	hb := mkHost(s3, 2, "beta")

	var joinA, joinB, connErr error
	var tun *Tunnel
	eng.Spawn("a", func(p *sim.Proc) {
		joinA = ha.Join(p, r1.Addr())
	})
	eng.Spawn("b", func(p *sim.Proc) {
		joinB = hb.Join(p, r2.Addr())
	})
	eng.RunFor(20 * time.Second)
	if joinA != nil || joinB != nil {
		t.Fatalf("joins: %v / %v", joinA, joinB)
	}
	eng.Spawn("connect", func(p *sim.Proc) {
		tun, connErr = ha.ConnectTo(p, "beta")
	})
	eng.RunFor(30 * time.Second)
	if connErr != nil {
		t.Fatalf("cross-server connect: %v", connErr)
	}
	if tun == nil || !tun.Established() {
		t.Fatal("tunnel not established across servers")
	}
}

func TestMultiServerRelayForSymmetricPair(t *testing.T) {
	// Hosts behind symmetric NATs registered on *different* brokers:
	// the target's broker hosts the relay channel, and the requester's
	// endpoint address is learned from its first relay envelope.
	eng := sim.NewEngine(11)
	nw := netsim.New(eng)
	s1 := nw.NewSite("s1")
	s2 := nw.NewSite("s2")
	s3 := nw.NewSite("s3")
	nw.SetRTT(s1, s2, 30*time.Millisecond)
	nw.SetRTT(s1, s3, 40*time.Millisecond)
	nw.SetRTT(s2, s3, 50*time.Millisecond)

	r1Host := nw.NewPublicHost("rdv1", s1, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	r2Host := nw.NewPublicHost("rdv2", s2, netsim.MustParseIP("50.0.1.1"), 0, time.Millisecond)
	r1, err := rendezvous.NewServer(r1Host, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rendezvous.NewServer(r2Host, netsim.MustParseIP("50.0.1.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1.Bootstrap()
	r2.JoinOverlay(r1.OverlayAddr(), func(e error) {
		if e != nil {
			t.Errorf("overlay join: %v", e)
		}
	})
	eng.RunFor(5 * time.Second)

	mkHost := func(site *netsim.Site, ipByte byte, name string) *Host {
		gw := nw.NewPublicHost("gw"+name, site, netsim.MakeIP(60, ipByte, 0, 1), 0, 100*time.Microsecond)
		lan := nw.NewLan("lan"+name, site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.Symmetric)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := NewHost(phys, name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ha := mkHost(s3, 1, "alpha")
	hb := mkHost(s3, 2, "beta")

	var joinA, joinB error
	eng.Spawn("a", func(p *sim.Proc) { joinA = ha.Join(p, r1.Addr()) })
	eng.Spawn("b", func(p *sim.Proc) { joinB = hb.Join(p, r2.Addr()) })
	eng.RunFor(20 * time.Second)
	if joinA != nil || joinB != nil {
		t.Fatalf("joins: %v / %v", joinA, joinB)
	}

	var tun *Tunnel
	var connErr error
	var rtt sim.Duration
	eng.Spawn("connect", func(p *sim.Proc) {
		tun, connErr = ha.ConnectTo(p, "beta")
		if connErr != nil {
			return
		}
		rtt, connErr = ha.TunnelRTT(p, "beta")
	})
	eng.RunFor(60 * time.Second)
	if connErr != nil {
		t.Fatalf("cross-server relay connect: %v", connErr)
	}
	if !tun.Relayed {
		t.Fatal("cross-server symmetric pair should be relayed")
	}
	// The channel must live at the *target's* broker (r2), and the
	// requester must address it there.
	if tun.Remote != r2.Addr() {
		t.Fatalf("relay endpoint %v, want target broker %v", tun.Remote, r2.Addr())
	}
	if r2.RelayFrames == 0 {
		t.Fatal("target broker relayed nothing")
	}
	if r1.RelayFrames != 0 {
		t.Fatal("requester broker should not carry relay traffic")
	}
	// Path: alpha(s3) -> r2(s2) -> beta(s3): 50+50 ms plus processing.
	if rtt < 90*time.Millisecond {
		t.Fatalf("relayed RTT %v too low for the via-r2 path", rtt)
	}
}

func TestJoinAnyFailsOverToLiveServer(t *testing.T) {
	// Two rendezvous servers; the first is dead. JoinAny must register
	// with the second after burning the first's timeout.
	eng := sim.NewEngine(13)
	nw := netsim.New(eng)
	hub := nw.NewSite("hub")
	deadHost := nw.NewPublicHost("dead", hub, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	dead, err := rendezvous.NewServer(deadHost, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dead.Bootstrap()
	dead.Shutdown()
	liveHost := nw.NewPublicHost("live", hub, netsim.MustParseIP("50.0.1.1"), 0, time.Millisecond)
	live, err := rendezvous.NewServer(liveHost, netsim.MustParseIP("50.0.1.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live.Bootstrap()

	site := nw.NewSite("s")
	nw.SetRTT(hub, site, 20*time.Millisecond)
	gw := nw.NewPublicHost("gw", site, netsim.MustParseIP("60.1.0.1"), 0, 100*time.Microsecond)
	lan := nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
	lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
	nat.Attach(gw, nat.RestrictedCone)
	phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
	h, err := NewHost(phys, "roamer", Config{})
	if err != nil {
		t.Fatal(err)
	}
	var joinErr error
	var joinedAt sim.Time
	eng.Spawn("join", func(p *sim.Proc) {
		joinErr = h.JoinAny(p, []netsim.Addr{dead.Addr(), live.Addr()})
		joinedAt = p.Now()
	})
	eng.RunFor(2 * time.Minute)
	if joinErr != nil {
		t.Fatalf("JoinAny with one live server: %v", joinErr)
	}
	// The election tried the dead broker first: its closed port dropped
	// the join request, and the join waited out one RPC timeout there.
	if deadHost.NoSocketDrops == 0 {
		t.Fatal("the dead broker never saw a join request; the election skipped it")
	}
	if joinedAt < sim.Time(rpcTimeout) {
		t.Fatalf("joined at %v, before the dead broker's %v RPC timeout ran out", joinedAt, rpcTimeout)
	}
	if live.Sessions() != 1 {
		t.Fatalf("live server has %d sessions, want 1", live.Sessions())
	}
	// Nothing registered at the dead server, and lookups work.
	var recs []rendezvous.HostRecord
	eng.Spawn("lookup", func(p *sim.Proc) {
		recs, _ = h.Lookup(p, "roamer")
	})
	eng.RunFor(10 * time.Second)
	if len(recs) != 1 {
		t.Fatalf("lookup through failover server: %v", recs)
	}
	// The full list became the standing failover candidate set.
	cands := h.BrokerCandidates()
	if len(cands) != 2 || cands[0] != dead.Addr() || cands[1] != live.Addr() {
		t.Fatalf("BrokerCandidates = %v, want the JoinAny list", cands)
	}
}

func TestHostChurnLeavesNoResidue(t *testing.T) {
	// A stable host watches transient peers join, connect, ping and
	// leave. Tunnels to departed peers must be garbage-collected by the
	// CONNECT_PULSE liveness check, and broker sessions must expire.
	w := buildWorldCfg(t, 21,
		[]nat.Type{nat.FullCone, nat.RestrictedCone, nat.PortRestrictedCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 20 * time.Millisecond,
			30 * time.Millisecond, 15 * time.Millisecond},
		rendezvous.Config{SessionTTL: 45 * time.Second})
	w.joinAll(t)
	stable := w.hosts[0]
	stable.CreateDom0(netsim.MustParseIP("10.3.0.1"))

	for cycle := 0; cycle < 3; cycle++ {
		transient := w.hosts[1+cycle%3]
		ip := netsim.MakeIP(10, 3, 1, byte(cycle+1))
		var st *ipstack.Stack
		if transient.Dom0() == nil {
			st = transient.CreateDom0(ip)
		} else {
			st = transient.Dom0()
			ip = st.IP()
		}
		var rtt sim.Duration
		var err error
		w.eng.Spawn("cycle", func(p *sim.Proc) {
			if transient.Tunnels()["a-host"] == nil {
				if _, err = transient.ConnectTo(p, hostName(0)); err != nil {
					return
				}
			}
			rtt, err = st.Ping(p, netsim.MustParseIP("10.3.0.1"), 56, 10*time.Second)
		})
		w.eng.RunFor(30 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if rtt <= 0 {
			t.Fatalf("cycle %d: no rtt", cycle)
		}
		transient.Leave()
		// Past TunnelTimeout (30 s): the stable side must have dropped it.
		w.eng.RunFor(90 * time.Second)
		if tun, ok := stable.Tunnel(transient.Name()); ok && tun.Established() {
			t.Fatalf("cycle %d: stable host still holds tunnel to departed %s",
				cycle, transient.Name())
		}
	}
	// Only the stable host (which still pulses) should hold a session.
	if got := w.rdv.Sessions(); got != 1 {
		t.Fatalf("broker holds %d sessions after churn, want 1", got)
	}
}

func TestTunnelDiesWithoutAdequateKeepalive(t *testing.T) {
	// CONNECT_PULSE slower than the NAT mapping timeout (paper §II.B's
	// failure mode): the mapping expires, pulses stop arriving, and both
	// ends garbage-collect the tunnel via TunnelTimeout.
	w := buildWorld(t, 9, []nat.Type{nat.PortRestrictedCone, nat.PortRestrictedCone},
		[]sim.Duration{15 * time.Millisecond, 25 * time.Millisecond})
	// A cone NAT keeps one mapping per socket and *any* outbound packet
	// refreshes it, so the timeout must undercut the combined cadence of
	// tunnel and broker keepalives (two 45 s clocks ≈ 20 s gaps).
	for _, g := range w.gws {
		g.MappingTimeout = 15 * time.Second
	}
	for i, h := range w.hosts {
		h.Leave()
		slow, err := NewHost(h.Phys(), "slow-"+hostName(i), Config{
			Port:                  4600,
			PulsePeriod:           45 * time.Second,
			RendezvousPulsePeriod: 45 * time.Second,
			TunnelTimeout:         90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.hosts[i] = slow
	}
	errs := make([]error, 2)
	for i, h := range w.hosts {
		i, h := i, h
		w.eng.Spawn("join", func(p *sim.Proc) { errs[i] = h.Join(p, w.rdv.Addr()) })
	}
	w.eng.RunFor(20 * time.Second)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("joins: %v / %v", errs[0], errs[1])
	}
	var connErr error
	w.eng.Spawn("connect", func(p *sim.Proc) {
		_, connErr = w.hosts[0].ConnectTo(p, "slow-"+hostName(1))
	})
	w.eng.RunFor(20 * time.Second)
	if connErr != nil {
		t.Fatalf("connect: %v", connErr)
	}
	// Idle long enough for the mapping to lapse and liveness to fire.
	w.eng.RunFor(10 * time.Minute)
	if tun, ok := w.hosts[0].Tunnel("slow-" + hostName(1)); ok && tun.Established() {
		t.Fatal("tunnel survived although pulses cannot keep the NAT mapping alive")
	}
}

func TestDataPlaneSurvivesBrokerDeath(t *testing.T) {
	// The paper's architecture point (§II.B): after connection setup the
	// rendezvous layer is out of the data path. Killing the broker must
	// not disturb established tunnels — only new connects fail.
	w := buildWorld(t, 5, []nat.Type{nat.PortRestrictedCone, nat.PortRestrictedCone, nat.FullCone},
		[]sim.Duration{15 * time.Millisecond, 25 * time.Millisecond, 20 * time.Millisecond})
	w.joinAll(t)
	var connErr error
	w.eng.Spawn("connect", func(p *sim.Proc) {
		_, connErr = w.hosts[0].ConnectTo(p, hostName(1))
	})
	w.eng.RunFor(20 * time.Second)
	if connErr != nil {
		t.Fatalf("connect: %v", connErr)
	}
	a := w.hosts[0].CreateDom0(netsim.MustParseIP("10.3.0.1"))
	w.hosts[1].CreateDom0(netsim.MustParseIP("10.3.0.2"))

	w.rdv.Shutdown()
	// Long idle spans several keepalive and NAT timeout windows.
	w.eng.RunFor(2 * time.Minute)

	var rtt sim.Duration
	var pingErr, newConnErr error
	w.eng.Spawn("after", func(p *sim.Proc) {
		rtt, pingErr = a.Ping(p, netsim.MustParseIP("10.3.0.2"), 56, 10*time.Second)
		_, newConnErr = w.hosts[0].ConnectTo(p, hostName(2))
	})
	w.eng.RunFor(2 * time.Minute)
	if pingErr != nil {
		t.Fatalf("established tunnel died with the broker: %v", pingErr)
	}
	if rtt <= 0 {
		t.Fatal("no RTT over the surviving tunnel")
	}
	if tun, ok := w.hosts[0].Tunnel(hostName(1)); !ok || !tun.Established() {
		t.Fatal("tunnel no longer established after broker death")
	}
	if newConnErr == nil {
		t.Fatal("new connect should fail with the broker dead")
	}
}

func TestDataBypassesRendezvous(t *testing.T) {
	// The paper's core claim: after setup, application data never
	// touches the rendezvous server.
	w := buildWorld(t, 11, []nat.Type{nat.FullCone, nat.FullCone},
		[]sim.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	w.joinAll(t)
	s0 := w.hosts[0].CreateDom0(netsim.MustParseIP("10.10.0.1"))
	s1 := w.hosts[1].CreateDom0(netsim.MustParseIP("10.10.0.2"))
	w.eng.Spawn("driver", func(p *sim.Proc) {
		if _, err := w.hosts[0].ConnectTo(p, hostName(1)); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s0.Ping(p, s1.IP(), 56, 5*time.Second)
	})
	w.eng.RunFor(20 * time.Second)
	before := w.rdv.Addr()
	rdvHost := w.nw.HostByIP(before.IP)
	basePkts := rdvHost.RecvPackets
	// Stream pings for a while: server traffic must not grow with data.
	w.eng.Spawn("data", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			s0.Ping(p, s1.IP(), 500, 5*time.Second)
		}
	})
	w.eng.RunFor(60 * time.Second)
	grew := rdvHost.RecvPackets - basePkts
	// Only session pulses (every 15 s × 2 hosts) should arrive: allow a
	// small allowance, far below the 50 pings × several packets each.
	if grew > 20 {
		t.Fatalf("rendezvous server saw %d packets during data transfer", grew)
	}
}
