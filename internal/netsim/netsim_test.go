package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"wavnet/internal/sim"
)

func newTestNet() (*sim.Engine, *Network) {
	eng := sim.NewEngine(1)
	return eng, New(eng)
}

func TestIPParseFormat(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.1.254", "255.255.255.255", "147.8.1.1"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if ip.String() != s {
			t.Errorf("round trip %q -> %q", s, ip.String())
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", bad)
		}
	}
}

func TestIPIsPrivate(t *testing.T) {
	priv := []string{"10.1.2.3", "172.16.0.1", "172.31.255.255", "192.168.0.1"}
	pub := []string{"8.8.8.8", "172.15.0.1", "172.32.0.1", "147.8.1.1", "193.168.0.1"}
	for _, s := range priv {
		if !MustParseIP(s).IsPrivate() {
			t.Errorf("%s should be private", s)
		}
	}
	for _, s := range pub {
		if MustParseIP(s).IsPrivate() {
			t.Errorf("%s should be public", s)
		}
	}
}

func TestPropertyIPRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicHostLatency(t *testing.T) {
	eng, nw := newTestNet()
	a := nw.NewSite("A")
	b := nw.NewSite("B")
	nw.SetRTT(a, b, 80*time.Millisecond)

	ha := nw.NewPublicHost("ha", a, MustParseIP("1.0.0.1"), 0, 0)
	hb := nw.NewPublicHost("hb", b, MustParseIP("1.0.0.2"), 0, 0)

	var recvAt sim.Time
	_, err := hb.BindUDP(7, func(p Packet) { recvAt = eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := ha.BindUDP(9, nil)
	sa.SendTo(Addr{hb.IP(), 7}, []byte("hello"))
	eng.Run()
	if recvAt != sim.Time(40*time.Millisecond) {
		t.Fatalf("one-way delivery at %v, want 40ms", recvAt)
	}
}

// TestLatencyMatrixKeepsValuesAsItGrows adds sites one at a time, past
// several regrowths of the flat matrix and one explicit reservation,
// and checks every pair still reads what was set (and unset pairs 0).
func TestLatencyMatrixKeepsValuesAsItGrows(t *testing.T) {
	_, nw := newTestNet()
	want := func(i, j int) sim.Duration {
		if i == j {
			return 0
		}
		return sim.Duration(i*1000+j*1000+1) * time.Microsecond
	}
	var sites []*Site
	for i := 0; i < 40; i++ {
		if i == 20 {
			nw.ReserveSites(30)
		}
		sites = append(sites, nw.NewSite("s"))
		for j := 0; j < i; j += 2 { // odd partners stay unset
			nw.SetLatency(sites[i], sites[j], want(i, j))
		}
	}
	for i, a := range sites {
		for j, b := range sites {
			w := want(i, j)
			if hi, lo := max(i, j), min(i, j); lo%2 == 1 && hi != lo {
				w = 0
			}
			if got := nw.Latency(a, b); got != w {
				t.Fatalf("latency %d->%d = %v, want %v", i, j, got, w)
			}
		}
	}
}

func TestLinkSerialization(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	// 8 Mbps => 1000 bytes take 1 ms.
	ha := nw.NewPublicHost("ha", s, MustParseIP("1.0.0.1"), 8e6, 0)
	hb := nw.NewPublicHost("hb", s, MustParseIP("1.0.0.2"), 0, 0)

	var times []sim.Time
	hb.BindUDP(7, func(p Packet) { times = append(times, eng.Now()) })
	sa, _ := ha.BindUDP(9, nil)
	// Two back-to-back packets of 972 payload bytes = 1000 wire bytes.
	sa.SendTo(Addr{hb.IP(), 7}, make([]byte, 972))
	sa.SendTo(Addr{hb.IP(), 7}, make([]byte, 972))
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	if times[0] != sim.Time(time.Millisecond) {
		t.Fatalf("first packet at %v, want 1ms", times[0])
	}
	if times[1] != sim.Time(2*time.Millisecond) {
		t.Fatalf("second packet at %v, want 2ms (queued behind first)", times[1])
	}
}

// counter counts the events it handles.
type counter int

func (c *counter) HandleEvent(any) { *c++ }

func TestLinkQueueDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 8e6, 0, 2000) // queue capacity 2000 bytes
	var delivered counter
	ok1 := l.Post(1500, &delivered, nil)
	ok2 := l.Post(1500, &delivered, nil)
	ok3 := l.Post(1500, &delivered, nil) // backlog 3000 > 2000: drop
	eng.Run()
	if !ok1 || !ok2 {
		t.Fatal("first two sends should be accepted")
	}
	if ok3 {
		t.Fatal("third send should be dropped by the full queue")
	}
	if delivered != 2 || l.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, l.Dropped)
	}
}

func TestLanAndGatewayForwarding(t *testing.T) {
	eng, nw := newTestNet()
	site := nw.NewSite("S")
	remote := nw.NewSite("R")
	nw.SetRTT(site, remote, 20*time.Millisecond)

	gw := nw.NewPublicHost("gw", site, MustParseIP("5.0.0.1"), 0, 0)
	lan := nw.NewLan("lan0", site, 100e6, 100*time.Microsecond)
	lan.AttachGateway(gw, MustParseIP("192.168.0.1"))
	h1 := lan.NewHost("h1", MustParseIP("192.168.0.2"))
	h2 := lan.NewHost("h2", MustParseIP("192.168.0.3"))
	srv := nw.NewPublicHost("srv", remote, MustParseIP("6.0.0.1"), 0, 0)

	// LAN-to-LAN delivery works without the gateway.
	got := ""
	h2.BindUDP(7, func(p Packet) { got = string(p.Payload) })
	s1, _ := h1.BindUDP(0, nil)
	s1.SendTo(Addr{h2.IP(), 7}, []byte("local"))

	// Off-LAN traffic lands on the gateway's raw handler.
	var atGateway *Packet
	gw.SetRawHandler(func(p *Packet) bool {
		if !gw.ownsIP(p.Dst.IP) {
			atGateway = p
			return true
		}
		return false
	})
	s1.SendTo(Addr{srv.IP(), 80}, []byte("wan"))
	eng.Run()

	if got != "local" {
		t.Fatalf("LAN delivery failed, got %q", got)
	}
	if atGateway == nil {
		t.Fatal("off-LAN packet did not transit the gateway")
	}
	if atGateway.Dst.IP != srv.IP() {
		t.Fatalf("gateway saw wrong destination %s", atGateway.Dst)
	}
}

func TestPrivateAddressNotRoutable(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	pub := nw.NewPublicHost("pub", s, MustParseIP("9.0.0.1"), 0, 0)
	sock, _ := pub.BindUDP(0, nil)
	sock.SendTo(Addr{MustParseIP("192.168.0.5"), 80}, []byte("x"))
	eng.Run()
	if nw.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", nw.NoRoute)
	}
}

func TestWANLoss(t *testing.T) {
	eng, nw := newTestNet()
	nw.LossRate = 0.5
	s1, s2 := nw.NewSite("A"), nw.NewSite("B")
	nw.SetRTT(s1, s2, 10*time.Millisecond)
	ha := nw.NewPublicHost("a", s1, MustParseIP("1.0.0.1"), 0, 0)
	hb := nw.NewPublicHost("b", s2, MustParseIP("1.0.0.2"), 0, 0)
	n := 0
	hb.BindUDP(7, func(p Packet) { n++ })
	sa, _ := ha.BindUDP(0, nil)
	for i := 0; i < 1000; i++ {
		sa.SendTo(Addr{hb.IP(), 7}, []byte("x"))
	}
	eng.Run()
	if n < 400 || n > 600 {
		t.Fatalf("with 50%% loss, delivered %d of 1000", n)
	}
	if nw.LostWAN != uint64(1000-n) {
		t.Fatalf("LostWAN=%d, delivered=%d", nw.LostWAN, n)
	}
}

func TestEphemeralPortAllocation(t *testing.T) {
	_, nw := newTestNet()
	s := nw.NewSite("S")
	h := nw.NewPublicHost("h", s, MustParseIP("1.0.0.1"), 0, 0)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		sock, err := h.BindUDP(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sock.Port() < 49152 {
			t.Fatalf("ephemeral port %d below 49152", sock.Port())
		}
		if seen[sock.Port()] {
			t.Fatalf("duplicate ephemeral port %d", sock.Port())
		}
		seen[sock.Port()] = true
	}
}

func TestBindConflict(t *testing.T) {
	_, nw := newTestNet()
	s := nw.NewSite("S")
	h := nw.NewPublicHost("h", s, MustParseIP("1.0.0.1"), 0, 0)
	if _, err := h.BindUDP(5000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.BindUDP(5000, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestSocketCloseReleasesPort(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	h := nw.NewPublicHost("h", s, MustParseIP("1.0.0.1"), 0, 0)
	sock, _ := h.BindUDP(5000, func(Packet) { t.Fatal("closed socket received") })
	sock.Close()
	if _, err := h.BindUDP(5000, nil); err != nil {
		t.Fatalf("rebind after close failed: %v", err)
	}
	// Sending to self after close should hit NoSocketDrops... bind another
	// host to exercise the path.
	h2 := nw.NewPublicHost("h2", s, MustParseIP("1.0.0.2"), 0, 0)
	s2, _ := h2.BindUDP(0, nil)
	s2.SendTo(Addr{h.IP(), 6000}, []byte("x"))
	eng.Run()
	if h.NoSocketDrops != 1 {
		t.Fatalf("NoSocketDrops = %d, want 1", h.NoSocketDrops)
	}
}

func TestUDPQueueRecv(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	a := nw.NewPublicHost("a", s, MustParseIP("1.0.0.1"), 0, 0)
	b := nw.NewPublicHost("b", s, MustParseIP("1.0.0.2"), 0, 0)
	q, err := b.BindUDPQueue(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	eng.Spawn("recv", func(p *sim.Proc) {
		pkt, ok := q.Recv(p)
		if ok {
			got = string(pkt.Payload)
		}
	})
	eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		sa, _ := a.BindUDP(0, nil)
		sa.SendTo(Addr{b.IP(), 7}, []byte("queued"))
	})
	eng.Run()
	if got != "queued" {
		t.Fatalf("got %q", got)
	}
}

func TestUDPQueueRecvTimeout(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	b := nw.NewPublicHost("b", s, MustParseIP("1.0.0.2"), 0, 0)
	q, _ := b.BindUDPQueue(7, 16)
	var ok bool
	var elapsed sim.Time
	eng.Spawn("recv", func(p *sim.Proc) {
		_, ok = q.RecvTimeout(p, 30*time.Millisecond)
		elapsed = p.Now()
	})
	eng.Run()
	if ok {
		t.Fatal("RecvTimeout returned ok with no traffic")
	}
	if elapsed != sim.Time(30*time.Millisecond) {
		t.Fatalf("timed out at %v, want 30ms", elapsed)
	}
}

func TestAliasDelivery(t *testing.T) {
	eng, nw := newTestNet()
	s := nw.NewSite("S")
	h := nw.NewPublicHost("h", s, MustParseIP("1.0.0.1"), 0, 0)
	nw.AddAlias(h, MustParseIP("1.0.0.99"))
	var dst Addr
	h.BindUDP(7, func(p Packet) { dst = p.Dst })
	h2 := nw.NewPublicHost("h2", s, MustParseIP("1.0.0.2"), 0, 0)
	s2, _ := h2.BindUDP(0, nil)
	s2.SendTo(Addr{MustParseIP("1.0.0.99"), 7}, []byte("x"))
	eng.Run()
	if dst.IP != MustParseIP("1.0.0.99") {
		t.Fatalf("alias delivery failed, dst=%v", dst)
	}
}

func TestBandwidthMeasurement(t *testing.T) {
	// Sanity: a saturating sender through a 10 Mbps link delivers
	// ~10 Mbps of wire bytes.
	eng, nw := newTestNet()
	a := nw.NewSite("A")
	b := nw.NewSite("B")
	nw.SetRTT(a, b, 10*time.Millisecond)
	ha := nw.NewPublicHost("ha", a, MustParseIP("1.0.0.1"), 10e6, 0)
	hb := nw.NewPublicHost("hb", b, MustParseIP("1.0.0.2"), 100e6, 0)
	var rx uint64
	hb.BindUDP(7, func(p Packet) {
		if eng.Now() <= sim.Time(time.Second) {
			rx += uint64(p.Wire)
		}
	})
	sa, _ := ha.BindUDP(0, nil)
	payload := make([]byte, 1472)
	// Offer 20 Mbps for 1 second: send 1500B every 600µs.
	for i := 0; i < 1667; i++ {
		eng.Schedule(time.Duration(i)*600*time.Microsecond, func() {
			sa.SendTo(Addr{hb.IP(), 7}, payload)
		})
	}
	eng.Run()
	gotMbps := float64(rx) * 8 / 1e6 / 1.0
	if gotMbps < 9 || gotMbps > 11 {
		t.Fatalf("throughput %.2f Mbps through 10 Mbps link", gotMbps)
	}
}
