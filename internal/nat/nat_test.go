package nat

import (
	"fmt"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// rig builds: client (private) -- gw[NAT] -- WAN -- server (public),
// plus a second public host "other" for filtering tests.
type rig struct {
	eng            *sim.Engine
	nw             *netsim.Network
	gw             *Gateway
	client         *netsim.Host
	server, other  *netsim.Host
	serverGot      []netsim.Packet
	otherGot       []netsim.Packet
	clientGot      []netsim.Packet
	serverSock     *netsim.UDPSocket
	otherSock      *netsim.UDPSocket
	clientSock     *netsim.UDPSocket
	serverPort     uint16
	clientSrcPort  uint16
	clientReplyBuf []string
}

func newRig(t Type) *rig {
	r := &rig{}
	r.eng = sim.NewEngine(1)
	r.nw = netsim.New(r.eng)
	r.nw.Pool().SetPoison(true) // catch use-after-release in every test on this network
	siteA := r.nw.NewSite("A")
	siteB := r.nw.NewSite("B")
	r.nw.SetRTT(siteA, siteB, 10*time.Millisecond)

	gwHost := r.nw.NewPublicHost("gw", siteA, netsim.MustParseIP("5.0.0.1"), 0, 0)
	lan := r.nw.NewLan("lan", siteA, 100e6, 50*time.Microsecond)
	lan.AttachGateway(gwHost, netsim.MustParseIP("192.168.0.1"))
	r.client = lan.NewHost("client", netsim.MustParseIP("192.168.0.2"))
	r.gw = Attach(gwHost, t)

	r.server = r.nw.NewPublicHost("server", siteB, netsim.MustParseIP("6.0.0.1"), 0, 0)
	r.other = r.nw.NewPublicHost("other", siteB, netsim.MustParseIP("6.0.0.2"), 0, 0)

	r.serverPort = 7000
	r.serverSock, _ = r.server.BindUDP(r.serverPort, func(p netsim.Packet) { r.serverGot = append(r.serverGot, p) })
	r.otherSock, _ = r.other.BindUDP(7000, func(p netsim.Packet) { r.otherGot = append(r.otherGot, p) })
	r.clientSrcPort = 4000
	r.clientSock, _ = r.client.BindUDP(r.clientSrcPort, func(p netsim.Packet) { r.clientGot = append(r.clientGot, p) })
	return r
}

func (r *rig) send() {
	r.clientSock.SendTo(netsim.Addr{IP: r.server.IP(), Port: r.serverPort}, []byte("ping"))
	r.eng.Run()
}

func TestOutboundSNAT(t *testing.T) {
	r := newRig(FullCone)
	r.send()
	if len(r.serverGot) != 1 {
		t.Fatalf("server received %d packets", len(r.serverGot))
	}
	got := r.serverGot[0]
	if got.Src.IP != r.gw.PublicIP() {
		t.Fatalf("src IP %s not rewritten to gateway %s", got.Src.IP, r.gw.PublicIP())
	}
	if got.Src.Port == r.clientSrcPort {
		t.Fatal("source port not translated")
	}
	if r.gw.Mappings() != 1 {
		t.Fatalf("mappings = %d, want 1", r.gw.Mappings())
	}
}

func TestMappingStability(t *testing.T) {
	// Cone NATs must reuse one external port for one internal endpoint
	// regardless of destination.
	for _, typ := range []Type{FullCone, RestrictedCone, PortRestrictedCone} {
		r := newRig(typ)
		r.clientSock.SendTo(netsim.Addr{IP: r.server.IP(), Port: 7000}, []byte("a"))
		r.clientSock.SendTo(netsim.Addr{IP: r.other.IP(), Port: 7000}, []byte("b"))
		r.eng.Run()
		if len(r.serverGot) != 1 || len(r.otherGot) != 1 {
			t.Fatalf("%v: delivery failed", typ)
		}
		if r.serverGot[0].Src != r.otherGot[0].Src {
			t.Fatalf("%v: external mapping differs per destination: %v vs %v",
				typ, r.serverGot[0].Src, r.otherGot[0].Src)
		}
	}
}

func TestSymmetricAllocatesPerDestination(t *testing.T) {
	r := newRig(Symmetric)
	r.clientSock.SendTo(netsim.Addr{IP: r.server.IP(), Port: 7000}, []byte("a"))
	r.clientSock.SendTo(netsim.Addr{IP: r.other.IP(), Port: 7000}, []byte("b"))
	r.eng.Run()
	if len(r.serverGot) != 1 || len(r.otherGot) != 1 {
		t.Fatal("delivery failed")
	}
	if r.serverGot[0].Src == r.otherGot[0].Src {
		t.Fatalf("symmetric NAT reused mapping across destinations: %v", r.serverGot[0].Src)
	}
	if r.gw.Mappings() != 2 {
		t.Fatalf("mappings = %d, want 2", r.gw.Mappings())
	}
}

// reply sends a packet from a given public host/port back to the client's
// external mapping, and reports whether it got through.
func (r *rig) replyFrom(h *netsim.Host, srcPort uint16, ext netsim.Addr) bool {
	before := len(r.clientGot)
	sock, err := h.BindUDP(srcPort, nil)
	if err != nil {
		// Port already bound in this test; reuse via raw send.
		h.SendRaw(&netsim.Packet{
			Src:     netsim.Addr{IP: h.IP(), Port: srcPort},
			Dst:     ext,
			Payload: []byte("reply"),
		})
		r.eng.Run()
		return len(r.clientGot) > before
	}
	sock.SendTo(ext, []byte("reply"))
	r.eng.Run()
	sock.Close()
	return len(r.clientGot) > before
}

func (r *rig) externalOf() netsim.Addr {
	if len(r.serverGot) == 0 {
		panic("no outbound packet seen")
	}
	return r.serverGot[0].Src
}

func TestFullConeAcceptsAnyone(t *testing.T) {
	r := newRig(FullCone)
	r.send()
	ext := r.externalOf()
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply from contacted server blocked")
	}
	if !r.replyFrom(r.other, 9999, ext) {
		t.Fatal("full cone should accept uncontacted senders")
	}
}

func TestRestrictedConeFiltersByIP(t *testing.T) {
	r := newRig(RestrictedCone)
	r.send()
	ext := r.externalOf()
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply from contacted IP blocked")
	}
	if !r.replyFrom(r.server, 9999, ext) {
		t.Fatal("restricted cone should accept any port of a contacted IP")
	}
	if r.replyFrom(r.other, 7000, ext) {
		t.Fatal("restricted cone accepted an uncontacted IP")
	}
}

func TestPortRestrictedConeFiltersByAddr(t *testing.T) {
	r := newRig(PortRestrictedCone)
	r.send()
	ext := r.externalOf()
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply from contacted addr blocked")
	}
	if r.replyFrom(r.server, 9999, ext) {
		t.Fatal("port-restricted cone accepted a different source port")
	}
	if r.replyFrom(r.other, 7000, ext) {
		t.Fatal("port-restricted cone accepted an uncontacted IP")
	}
}

func TestSymmetricFiltersByExactDestination(t *testing.T) {
	r := newRig(Symmetric)
	r.send()
	ext := r.externalOf()
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply from the mapped destination blocked")
	}
	if r.replyFrom(r.server, 9999, ext) {
		t.Fatal("symmetric NAT accepted a different source port")
	}
	if r.replyFrom(r.other, 7000, ext) {
		t.Fatal("symmetric NAT accepted a different host")
	}
}

func TestMappingExpiry(t *testing.T) {
	r := newRig(FullCone)
	r.gw.MappingTimeout = 30 * time.Second
	r.send()
	ext := r.externalOf()
	// Before expiry: reply passes.
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply before expiry blocked")
	}
	// Idle past the timeout: mapping must die.
	r.eng.RunFor(31 * time.Second)
	if r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("reply after expiry passed")
	}
	if r.gw.ExpiredDrops == 0 {
		t.Fatal("expiry not recorded")
	}
}

func TestKeepaliveRefreshesMapping(t *testing.T) {
	r := newRig(FullCone)
	r.gw.MappingTimeout = 30 * time.Second
	r.send()
	ext := r.externalOf()
	// Pulse outbound every 10s for 2 minutes: mapping stays alive.
	for i := 0; i < 12; i++ {
		r.eng.RunFor(10 * time.Second)
		r.clientSock.SendTo(netsim.Addr{IP: r.server.IP(), Port: r.serverPort}, []byte{0x01, 0x00})
		r.eng.Run()
	}
	if !r.replyFrom(r.server, r.serverPort, ext) {
		t.Fatal("keepalive failed to hold the mapping open")
	}
	if r.gw.Mappings() != 1 {
		t.Fatalf("mappings = %d, want the same single refreshed entry", r.gw.Mappings())
	}
}

func TestHairpinDisabledByDefault(t *testing.T) {
	r := newRig(FullCone)
	r.send()
	ext := r.externalOf()
	// Second LAN host targets the first's external mapping via the
	// gateway's public IP.
	lan := r.gw.Host().Lan()
	h2 := lan.NewHost("h2", netsim.MustParseIP("192.168.0.3"))
	s2, _ := h2.BindUDP(0, nil)
	before := len(r.clientGot)
	s2.SendTo(ext, []byte("hairpin"))
	r.eng.Run()
	if len(r.clientGot) != before {
		t.Fatal("hairpin delivered despite being disabled")
	}
	r.gw.Hairpin = true
	s2.SendTo(ext, []byte("hairpin"))
	r.eng.Run()
	if len(r.clientGot) != before+1 {
		t.Fatal("hairpin failed despite being enabled")
	}
}

func TestInboundWithoutMappingDropped(t *testing.T) {
	r := newRig(FullCone)
	s, _ := r.server.BindUDP(0, nil)
	s.SendTo(netsim.Addr{IP: r.gw.PublicIP(), Port: 3333}, []byte("unsolicited"))
	r.eng.Run()
	if len(r.clientGot) != 0 {
		t.Fatal("unsolicited inbound delivered")
	}
	if r.gw.NoMapDrops != 1 {
		t.Fatalf("NoMapDrops = %d, want 1", r.gw.NoMapDrops)
	}
}

func TestPunchabilityMatrix(t *testing.T) {
	all := []Type{FullCone, RestrictedCone, PortRestrictedCone, Symmetric}
	for _, a := range all {
		for _, b := range all {
			want := !(a == Symmetric && b == Symmetric ||
				a == Symmetric && b == PortRestrictedCone ||
				b == Symmetric && a == PortRestrictedCone)
			if got := Punchable(a, b); got != want {
				t.Errorf("Punchable(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		None: "none", FullCone: "full-cone", RestrictedCone: "restricted-cone",
		PortRestrictedCone: "port-restricted-cone", Symmetric: "symmetric",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), typ.String(), want)
		}
	}
	if fmt.Sprint(Type(99)) == "" {
		t.Error("unknown type should still format")
	}
}

func TestTwoClientsDistinctMappings(t *testing.T) {
	r := newRig(PortRestrictedCone)
	lan := r.gw.Host().Lan()
	c2 := lan.NewHost("c2", netsim.MustParseIP("192.168.0.9"))
	s2, _ := c2.BindUDP(4000, nil) // same private port as client 1
	r.clientSock.SendTo(netsim.Addr{IP: r.server.IP(), Port: 7000}, []byte("c1"))
	s2.SendTo(netsim.Addr{IP: r.server.IP(), Port: 7000}, []byte("c2"))
	r.eng.Run()
	if len(r.serverGot) != 2 {
		t.Fatalf("server received %d packets", len(r.serverGot))
	}
	if r.serverGot[0].Src == r.serverGot[1].Src {
		t.Fatal("two internal endpoints shared one external mapping")
	}
}
