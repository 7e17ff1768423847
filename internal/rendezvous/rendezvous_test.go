package rendezvous

import (
	"testing"
	"time"

	"wavnet/internal/can"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

func newServer(t *testing.T) (*sim.Engine, *netsim.Network, *Server) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	// Poison mode: a released buffer is scribbled over, and so is each
	// broker's reused message after every handler.
	nw.Pool().SetPoison(true)
	site := nw.NewSite("hub")
	host := nw.NewPublicHost("rdv", site, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	s, err := NewServer(host, netsim.MustParseIP("50.0.0.2"), Config{SessionTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Bootstrap()
	return eng, nw, s
}

// client is a minimal broker client speaking the control protocol.
type client struct {
	sock *netsim.UDPSocket
	got  []*Msg
}

func newClient(t *testing.T, nw *netsim.Network, ip string) *client {
	t.Helper()
	site := nw.NewSite("c")
	h := nw.NewPublicHost("c"+ip, site, netsim.MustParseIP(ip), 0, time.Millisecond)
	c := &client{}
	sock, err := h.BindUDP(4500, func(p netsim.Packet) {
		if m, err := Decode(p.Payload); err == nil {
			c.got = append(c.got, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sock = sock
	return c
}

func (c *client) send(s *Server, m *Msg) { c.sock.SendTo(s.Addr(), Encode(m)) }

func (c *client) last(kind Kind) *Msg {
	for i := len(c.got) - 1; i >= 0; i-- {
		if c.got[i].Kind == kind {
			return c.got[i]
		}
	}
	return nil
}

func TestJoinLookupAndExpiry(t *testing.T) {
	eng, nw, s := newServer(t)
	c := newClient(t, nw, "60.0.0.1")
	c.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha"}})
	eng.RunFor(2 * time.Second)
	ack := c.last(KindJoinAck)
	if ack == nil || ack.Rec == nil {
		t.Fatalf("no join ack: %+v", c.got)
	}
	if ack.Rec.Mapped.IP != netsim.MustParseIP("60.0.0.1") {
		t.Fatalf("observed mapping %v", ack.Rec.Mapped)
	}
	if s.Sessions() != 1 {
		t.Fatalf("sessions %d", s.Sessions())
	}
	// Lookup by name.
	c.send(s, &Msg{Kind: KindLookup, ID: 2, Name: "alpha"})
	eng.RunFor(2 * time.Second)
	lr := c.last(KindLookupReply)
	if lr == nil || len(lr.Records) != 1 || lr.Records[0].Name != "alpha" {
		t.Fatalf("lookup reply %+v", lr)
	}
	// Session expires without pulses.
	eng.RunFor(40 * time.Second)
	if s.Sessions() != 0 {
		t.Fatalf("stale session survived: %d", s.Sessions())
	}
}

func TestPulseKeepsSessionAlive(t *testing.T) {
	eng, nw, s := newServer(t)
	c := newClient(t, nw, "60.0.0.1")
	c.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha"}})
	eng.RunFor(time.Second)
	for i := 0; i < 6; i++ {
		eng.RunFor(10 * time.Second)
		c.send(s, &Msg{Kind: KindPulse, Name: "alpha"})
	}
	eng.RunFor(time.Second)
	if s.Sessions() != 1 {
		t.Fatalf("pulsed session expired: %d", s.Sessions())
	}
}

func TestConnectOrdersPunchBothSides(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newClient(t, nw, "60.0.0.1")
	b := newClient(t, nw, "60.0.0.2")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha"}})
	b.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	oa, ob := a.last(KindPunchOrder), b.last(KindPunchOrder)
	if oa == nil || ob == nil {
		t.Fatalf("punch orders missing: a=%v b=%v", oa, ob)
	}
	if oa.Peer.Name != "beta" || ob.Peer.Name != "alpha" {
		t.Fatalf("wrong peers: %v / %v", oa.Peer.Name, ob.Peer.Name)
	}
	if oa.Peer.Mapped.IsZero() {
		t.Fatal("punch order lacks the peer's mapping")
	}
}

func TestConnectUnknownTargetErrors(t *testing.T) {
	eng, nw, s := newServer(t)
	a := newClient(t, nw, "60.0.0.1")
	a.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha"}})
	eng.RunFor(time.Second)
	a.send(s, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "ghost"}})
	eng.RunFor(5 * time.Second)
	if e := a.last(KindError); e == nil {
		t.Fatal("no error for unknown target")
	}
}

func TestLocatorGroup(t *testing.T) {
	l := NewLocator()
	// Two tight pairs far from each other.
	l.Report("a", "b", 2*time.Millisecond)
	l.Report("c", "d", 2*time.Millisecond)
	l.Report("a", "c", 100*time.Millisecond)
	l.Report("a", "d", 100*time.Millisecond)
	l.Report("b", "c", 100*time.Millisecond)
	l.Report("b", "d", 100*time.Millisecond)
	g, err := l.GroupAmong(2, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("group %v", g)
	}
	pair := g[0] + g[1]
	if !(pair == "ab" || pair == "ba" || pair == "cd" || pair == "dc") {
		t.Fatalf("group picked distant pair: %v", g)
	}
	if len(l.Hosts()) != 4 || len(l.Matrix()) != 4 {
		t.Fatal("locator bookkeeping wrong")
	}
}

// TestStrangerCannotIntroduce: brokers introduce hosts to each other
// only with fwd-connect, and only from a federated peer. A stranger that
// sends kind 8 (the retired introduce, laid out like a fwd-connect) or
// a fwd-connect naming a registered tenant host learns nothing, and the
// host is ordered nowhere.
func TestStrangerCannotIntroduce(t *testing.T) {
	eng, nw, s := newServer(t)
	victim := newClient(t, nw, "60.0.0.1")
	victim.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "victim", Net: "red", VNI: 3}})
	eng.RunFor(time.Second)
	if !s.HasSession("victim") {
		t.Fatal("victim did not register")
	}
	stranger := newClient(t, nw, "66.0.0.1")
	fwd := Encode(&Msg{Kind: KindFwdConnect, ID: 1, Name: "victim",
		Rec: &HostRecord{Name: "stranger", Net: "red", VNI: 3}})
	introduce := append([]byte(nil), fwd...)
	introduce[1] = 8
	heard, rejected := len(victim.got), s.RejectedFederation
	stranger.sock.SendTo(s.Addr(), introduce)
	stranger.sock.SendTo(s.Addr(), fwd)
	eng.RunFor(2 * time.Second)
	if len(stranger.got) != 0 {
		t.Fatalf("the stranger was answered: %+v", stranger.got[0])
	}
	if len(victim.got) != heard {
		t.Fatalf("the victim was sent %+v", victim.got[heard])
	}
	if s.RejectedFederation != rejected+1 || s.FwdConnectsIn != 0 {
		t.Fatalf("fwd-connect from a stranger: rejected %d (want %d), served %d",
			s.RejectedFederation, rejected+1, s.FwdConnectsIn)
	}
}

// TestExpiredHostIsNotFound: a host that stopped pulsing is gone once
// its session expires, although the CAN keeps its copy for twice the
// session TTL: that copy names the broker that just dropped the host,
// so a lookup by name finds no record and a connect is not-found
// without the broker forwarding it to itself.
func TestExpiredHostIsNotFound(t *testing.T) {
	eng, nw, s := newServer(t)
	gone := newClient(t, nw, "60.0.0.1")
	asker := newClient(t, nw, "60.0.0.2")
	gone.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "gone"}})
	asker.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "asker"}})
	eng.RunFor(time.Second)
	for i := 0; i < 4; i++ {
		eng.RunFor(10 * time.Second)
		asker.send(s, &Msg{Kind: KindPulse, Name: "asker"})
	}
	eng.RunFor(time.Second)
	if s.Sessions() != 1 || s.HasSession("gone") {
		t.Fatalf("%d sessions: gone's did not expire", s.Sessions())
	}
	inCAN := false
	s.can.Lookup(namePoint("gone", can.Dims), func(res can.LookupResult, err error) {
		for _, r := range res.Resources {
			inCAN = inCAN || r.ID == "gone"
		}
	})
	eng.RunFor(time.Second)
	if !inCAN {
		t.Fatal("the CAN no longer holds gone's copy: nothing left to skip")
	}

	asker.send(s, &Msg{Kind: KindLookup, ID: 2, Name: "gone"})
	asker.send(s, &Msg{Kind: KindConnect, ID: 3, Name: "asker", Peer: &HostRecord{Name: "gone"}})
	eng.RunFor(2 * time.Second)
	if lr := asker.last(KindLookupReply); lr == nil || lr.ID != 2 || len(lr.Records) != 0 {
		t.Fatalf("lookup of an expired host: %+v", lr)
	}
	if e := asker.last(KindError); e == nil || e.ID != 3 || e.Code != CodeNotFound {
		t.Fatalf("connect to an expired host: %+v", e)
	}
	if s.FwdConnectsOut != 0 || s.FwdConnectsIn != 0 {
		t.Fatalf("the broker forwarded the connect to itself: out %d, in %d", s.FwdConnectsOut, s.FwdConnectsIn)
	}
}
