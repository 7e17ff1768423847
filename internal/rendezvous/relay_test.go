package rendezvous

import (
	"encoding/binary"
	"testing"
	"time"

	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// rawClient extends the JSON client with raw (relay-envelope) traffic.
type rawClient struct {
	*client
	raw [][]byte
}

func newRawClient(t *testing.T, nw *netsim.Network, ip string) *rawClient {
	t.Helper()
	site := nw.NewSite("c")
	h := nw.NewPublicHost("c"+ip, site, netsim.MustParseIP(ip), 0, time.Millisecond)
	rc := &rawClient{client: &client{}}
	sock, err := h.BindUDP(4500, func(p netsim.Packet) {
		if len(p.Payload) > 0 && p.Payload[0] == RelayMagic {
			rc.raw = append(rc.raw, append([]byte(nil), p.Payload...))
			return
		}
		if m, err := Decode(p.Payload); err == nil {
			rc.got = append(rc.got, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.sock = sock
	return rc
}

func envelope(ch uint64, inner []byte) []byte {
	b := make([]byte, RelayHeaderLen+len(inner))
	b[0] = RelayMagic
	binary.BigEndian.PutUint64(b[1:], ch)
	copy(b[RelayHeaderLen:], inner)
	return b
}

func TestConnectOrdersRelayForSymmetricPair(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newRawClient(t, nw, "60.0.0.1")
	b := newRawClient(t, nw, "60.0.0.2")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", NAT: nat.Symmetric}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", NAT: nat.Symmetric}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	oa, ob := a.last(KindRelayOrder), b.last(KindRelayOrder)
	if oa == nil || ob == nil {
		t.Fatalf("relay orders missing: a=%v b=%v", oa, ob)
	}
	if oa.RelayChan == 0 || oa.RelayChan != ob.RelayChan {
		t.Fatalf("channel ids disagree: %d vs %d", oa.RelayChan, ob.RelayChan)
	}
	if oa.RelayAddr != s.Addr() {
		t.Fatalf("relay addr %v, want broker %v", oa.RelayAddr, s.Addr())
	}
	if a.last(KindPunchOrder) != nil {
		t.Fatal("punch order issued for an unpunchable pair")
	}
}

func TestRelayForwardsBetweenEndpoints(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newRawClient(t, nw, "60.0.0.1")
	b := newRawClient(t, nw, "60.0.0.2")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", NAT: nat.Symmetric}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", NAT: nat.Symmetric}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	ch := a.last(KindRelayOrder).RelayChan

	a.sock.SendTo(s.Addr(), envelope(ch, []byte{0x11, 'h', 'i'}))
	eng.RunFor(2 * time.Second)
	if len(b.raw) != 1 {
		t.Fatalf("peer received %d relay frames, want 1", len(b.raw))
	}
	if string(b.raw[0][RelayHeaderLen:]) != "\x11hi" {
		t.Fatalf("relay corrupted payload: %x", b.raw[0])
	}
	// Reverse direction.
	b.sock.SendTo(s.Addr(), envelope(ch, []byte{0x11, 'y', 'o'}))
	eng.RunFor(2 * time.Second)
	if len(a.raw) != 1 {
		t.Fatalf("requester received %d relay frames, want 1", len(a.raw))
	}
	if s.RelayFrames != 2 {
		t.Fatalf("RelayFrames = %d, want 2", s.RelayFrames)
	}
	if s.RelayBytes == 0 {
		t.Fatal("RelayBytes not accounted")
	}
}

func TestRelayDropsUnknownChannelAndThirdParties(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newRawClient(t, nw, "60.0.0.1")
	b := newRawClient(t, nw, "60.0.0.2")
	mallory := newRawClient(t, nw, "60.0.0.66")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", NAT: nat.Symmetric}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", NAT: nat.Symmetric}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	ch := a.last(KindRelayOrder).RelayChan

	// Unknown channel id: dropped.
	a.sock.SendTo(s.Addr(), envelope(ch+1, []byte{0x11}))
	// Known channel, but both endpoint slots are taken by a and b: a
	// third party cannot inject.
	mallory.sock.SendTo(s.Addr(), envelope(ch, []byte{0x11, 'x'}))
	eng.RunFor(2 * time.Second)
	if len(a.raw)+len(b.raw) != 0 {
		t.Fatalf("unauthorized relay traffic forwarded: a=%d b=%d", len(a.raw), len(b.raw))
	}
}

func TestRelayChannelExpiresWhenIdle(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newRawClient(t, nw, "60.0.0.1")
	b := newRawClient(t, nw, "60.0.0.2")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", NAT: nat.Symmetric}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", NAT: nat.Symmetric}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	if s.RelayChannelCount() != 1 {
		t.Fatalf("channels = %d, want 1", s.RelayChannelCount())
	}
	eng.RunFor(3 * time.Minute) // relayIdle is 120 s
	if s.RelayChannelCount() != 0 {
		t.Fatalf("idle channel survived: %d", s.RelayChannelCount())
	}
}

func TestDisableRelayRestoresRefusal(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	nw.Pool().SetPoison(true) // catch use-after-release in every test on this network
	site := nw.NewSite("hub")
	host := nw.NewPublicHost("rdv", site, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	s, err := NewServer(host, netsim.MustParseIP("50.0.0.2"), Config{DisableRelay: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Bootstrap()
	a := newRawClient(t, nw, "60.0.0.1")
	b := newRawClient(t, nw, "60.0.0.2")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", NAT: nat.Symmetric}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", NAT: nat.Symmetric}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	if a.last(KindError) == nil {
		t.Fatal("no refusal with relay disabled")
	}
	if a.last(KindRelayOrder) != nil {
		t.Fatal("relay order issued despite DisableRelay")
	}
}
