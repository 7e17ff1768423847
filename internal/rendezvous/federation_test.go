package rendezvous

import (
	"fmt"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// newBroker adds one more rendezvous server to an existing test network
// (newServer builds the first at 50.0.0.1).
func newBroker(t *testing.T, eng *sim.Engine, nw *netsim.Network, n int, cfg Config) *Server {
	t.Helper()
	site := nw.NewSite(fmt.Sprintf("hub%d", n))
	ip := fmt.Sprintf("50.0.%d.1", n)
	alt := fmt.Sprintf("50.0.%d.2", n)
	host := nw.NewPublicHost("rdv"+ip, site, netsim.MustParseIP(ip), 0, time.Millisecond)
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = 30 * time.Second
	}
	s, err := NewServer(host, netsim.MustParseIP(alt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Bootstrap()
	return s
}

// federate wires mutual trust between every pair of brokers.
func federate(brokers ...*Server) {
	for _, a := range brokers {
		for _, b := range brokers {
			if a != b {
				a.Federate(b.Addr())
			}
		}
	}
}

// TestFederationCodecRoundTrips covers the broker-to-broker message
// kinds on the shared codec.
func TestFederationCodecRoundTrips(t *testing.T) {
	rec := HostRecord{
		Name:   "alpha",
		Mapped: netsim.Addr{IP: netsim.MustParseIP("60.0.0.1"), Port: 4500},
		Server: netsim.Addr{IP: netsim.MustParseIP("50.0.0.1"), Port: DefaultPort},
		Net:    "red", VNI: 7,
	}
	cases := []*Msg{
		{Kind: KindReplicate, Rec: &rec},
		{Kind: KindWithdraw, Name: "alpha", Net: "red"},
		{Kind: KindFwdConnect, ID: 42, Name: "beta", Rec: &rec},
		{Kind: KindFwdConnectAck, ID: 42, Rec: &rec},
		{Kind: KindPeerAllow, Nets: []string{"red", "blue"}},
		{Kind: KindPeerRevoke, Nets: []string{"red", "blue"}},
	}
	for _, m := range cases {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%s: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.ID != m.ID || got.Name != m.Name || got.Net != m.Net {
			t.Fatalf("%s: envelope mismatch: %+v", m.Kind, got)
		}
		if len(m.Nets) != len(got.Nets) {
			t.Fatalf("%s: nets %v -> %v", m.Kind, m.Nets, got.Nets)
		}
		for i := range m.Nets {
			if got.Nets[i] != m.Nets[i] {
				t.Fatalf("%s: nets %v -> %v", m.Kind, m.Nets, got.Nets)
			}
		}
		if m.Rec != nil {
			if got.Rec == nil || got.Rec.Name != m.Rec.Name || got.Rec.Net != m.Rec.Net ||
				got.Rec.VNI != m.Rec.VNI || got.Rec.Server != m.Rec.Server || got.Rec.Mapped != m.Rec.Mapped {
				t.Fatalf("%s: record mismatch: %+v", m.Kind, got.Rec)
			}
		}
	}
}

// TestReplicationIsScopedByNetwork: records of a network travel only to
// the brokers its replication set names; a federated broker that does
// not serve the network holds zero of its records, and rejects replicas
// pushed at it anyway.
func TestReplicationIsScopedByNetwork(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	c := newBroker(t, eng, nw, 2, Config{})
	federate(a, b, c)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})
	// c is never told about red.

	cl := newClient(t, nw, "60.0.0.1")
	cl.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red", VNI: 3}})
	eng.RunFor(2 * time.Second)

	if !a.HasSession("alpha") {
		t.Fatal("home broker lost the session")
	}
	if !b.HasReplica("alpha") {
		t.Fatal("named broker did not receive the replica")
	}
	if got := b.RecordsFor("red"); got != 1 {
		t.Fatalf("b records for red = %d, want 1", got)
	}
	if got := c.RecordsFor("red"); got != 0 {
		t.Fatalf("scope violated: unnamed broker holds %d red records", got)
	}
	if c.ReplicaCount() != 0 {
		t.Fatalf("unnamed broker holds %d replicas", c.ReplicaCount())
	}

	// A replica pushed at c from a federated peer is rejected by the
	// serve check; one from a stranger is rejected by the trust check.
	rec := HostRecord{Name: "mallory", Net: "red", Server: a.Addr()}
	before := c.RejectedFederation
	a.sendReplicate(c.Addr(), rec)
	eng.RunFor(time.Second)
	if c.HasReplica("mallory") {
		t.Fatal("unserved-network replica accepted")
	}
	stranger := newClient(t, nw, "60.0.0.9")
	stranger.sock.SendTo(c.Addr(), Encode(&Msg{Kind: KindReplicate, Rec: &rec}))
	eng.RunFor(time.Second)
	if c.HasReplica("mallory") {
		t.Fatal("unfederated replica accepted")
	}
	if c.RejectedFederation != before+2 {
		t.Fatalf("rejected = %d, want %d", c.RejectedFederation, before+2)
	}

	// Cross-broker lookup resolves through the replica, scoped: visible
	// to a co-tenant querier on b, invisible outside the network.
	q := newClient(t, nw, "60.0.0.2")
	q.send(b, &Msg{Kind: KindLookup, ID: 5, Name: "alpha", Net: "red"})
	q.send(b, &Msg{Kind: KindLookup, ID: 6, Name: "alpha", Net: "blue"})
	eng.RunFor(2 * time.Second)
	replies := 0
	for _, m := range q.got {
		if m.Kind != KindLookupReply {
			continue
		}
		replies++
		switch m.ID {
		case 5:
			if len(m.Records) != 1 || m.Records[0].Name != "alpha" || m.Records[0].Server != a.Addr() {
				t.Fatalf("scoped lookup through replica: %+v", m.Records)
			}
		case 6:
			if len(m.Records) != 0 {
				t.Fatalf("foreign-net lookup leaked %d records", len(m.Records))
			}
		}
	}
	if replies != 2 {
		t.Fatalf("got %d lookup replies, want 2", replies)
	}
}

// TestCrossBrokerConnectForwards: a connect whose target is homed on a
// different broker forwards the punch orchestration there, and both
// hosts end up with punch orders naming each other.
func TestCrossBrokerConnectForwards(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	federate(a, b)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})

	alpha := newClient(t, nw, "60.0.0.1")
	beta := newClient(t, nw, "60.0.0.2")
	alpha.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	beta.send(b, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "beta", Net: "red"}})
	eng.RunFor(2 * time.Second)
	if !a.HasReplica("beta") || !b.HasReplica("alpha") {
		t.Fatal("replicas did not converge")
	}

	alpha.send(a, &Msg{Kind: KindConnect, ID: 2, Name: "alpha", Peer: &HostRecord{Name: "beta"}})
	eng.RunFor(2 * time.Second)
	oa, ob := alpha.last(KindPunchOrder), beta.last(KindPunchOrder)
	if oa == nil || ob == nil {
		t.Fatalf("punch orders missing: a=%v b=%v", oa, ob)
	}
	if oa.Peer.Name != "beta" || ob.Peer.Name != "alpha" {
		t.Fatalf("wrong peers: %v / %v", oa.Peer.Name, ob.Peer.Name)
	}
	if oa.Peer.Mapped.IsZero() || ob.Peer.Mapped.IsZero() {
		t.Fatal("punch order lacks the peer's mapping")
	}
	if a.FwdConnectsOut != 1 || b.FwdConnectsIn != 1 {
		t.Fatalf("forward counters: out=%d in=%d", a.FwdConnectsOut, b.FwdConnectsIn)
	}

	// A cross-tenant target is refused at the requester's broker even
	// though a replica exists.
	gamma := newClient(t, nw, "60.0.0.3")
	a.SetNetBrokers("blue", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("blue", []netsim.Addr{a.Addr()})
	gamma.send(b, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "gamma", Net: "blue"}})
	eng.RunFor(2 * time.Second)
	alpha.send(a, &Msg{Kind: KindConnect, ID: 3, Name: "alpha", Peer: &HostRecord{Name: "gamma"}})
	eng.RunFor(2 * time.Second)
	if e := alpha.last(KindError); e == nil || e.ID != 3 {
		t.Fatalf("cross-tenant forwarded connect not refused: %+v", e)
	}
}

// TestFwdConnectFailureFastFails: when the target's home broker cannot
// serve a forwarded connect (stale replica, session expired there), the
// KindError travels back through the requester's broker and resolves
// the pending introduction — the host gets a coded error instead of
// waiting out its timeout.
func TestFwdConnectFailureFastFails(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	federate(a, b)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})

	alpha := newClient(t, nw, "60.0.0.1")
	alpha.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	eng.RunFor(time.Second)
	// A stale replica: b advertises ghost but holds no session for it.
	b.sendReplicate(a.Addr(), HostRecord{Name: "ghost", Net: "red", Server: b.Addr()})
	eng.RunFor(time.Second)
	if !a.HasReplica("ghost") {
		t.Fatal("replica setup failed")
	}
	alpha.send(a, &Msg{Kind: KindConnect, ID: 7, Name: "alpha", Peer: &HostRecord{Name: "ghost"}})
	eng.RunFor(2 * time.Second)
	e := alpha.last(KindError)
	if e == nil || e.ID != 7 {
		t.Fatalf("no fast error for failed forwarded connect: %+v", e)
	}
	if e.Code != CodeNotFound {
		t.Fatalf("error not coded transient: %+v", e)
	}
}

// TestFederatedButUnnamedBrokerRejected: being federated is not enough —
// replication, withdrawal and peering propagation are honored only from
// brokers inside the network's own replication set.
func TestFederatedButUnnamedBrokerRejected(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	outsider := newBroker(t, eng, nw, 2, Config{})
	federate(a, b, outsider)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})
	a.SetNetBrokers("blue", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("blue", []netsim.Addr{a.Addr()})

	// The outsider is federated with b but in no replication set: its
	// replicate must not overwrite the genuine record, and its peering
	// propagation must not open b.
	cl := newClient(t, nw, "60.0.0.1")
	cl.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	eng.RunFor(2 * time.Second)
	outsider.sendReplicate(b.Addr(), HostRecord{Name: "alpha", Net: "red", Server: outsider.Addr()})
	outsider.sock.SendTo(b.Addr(), Encode(&Msg{Kind: KindPeerAllow, Nets: []string{"red", "blue"}}))
	outsider.sendWithdraw(b.Addr(), HostRecord{Name: "alpha", Net: "red"})
	eng.RunFor(time.Second)
	if b.PeeringAllowed("red", "blue") {
		t.Fatal("peer-allow from an unnamed broker was honored")
	}
	if !b.HasReplica("alpha") {
		t.Fatal("withdraw from an unnamed broker was honored")
	}
	rep := b.RecordsFor("red")
	if rep != 1 {
		t.Fatalf("red records = %d, want the one genuine replica", rep)
	}
	if b.RejectedFederation < 3 {
		t.Fatalf("rejections = %d, want >= 3", b.RejectedFederation)
	}
	// The genuine replica must still name the true home broker.
	q := newClient(t, nw, "60.0.0.2")
	q.send(b, &Msg{Kind: KindLookup, ID: 5, Name: "alpha", Net: "red"})
	eng.RunFor(time.Second)
	lr := q.last(KindLookupReply)
	if lr == nil || len(lr.Records) != 1 || lr.Records[0].Server != a.Addr() {
		t.Fatalf("replica corrupted: %+v", lr)
	}
}

// TestPeeringAllowancePropagates: AllowPeering on one broker reaches
// every federated broker serving either network, and the propagated
// allowance actually permits a forwarded cross-network connect there.
func TestPeeringAllowancePropagates(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	federate(a, b)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})
	a.SetNetBrokers("blue", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("blue", []netsim.Addr{a.Addr()})

	alpha := newClient(t, nw, "60.0.0.1")
	gamma := newClient(t, nw, "60.0.0.3")
	alpha.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	gamma.send(b, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "gamma", Net: "blue"}})
	eng.RunFor(2 * time.Second)

	a.AllowPeering("red", "blue")
	eng.RunFor(time.Second)
	if !b.PeeringAllowed("red", "blue") {
		t.Fatal("allowance did not propagate")
	}

	// gamma (homed on b) connects to alpha (homed on a): b forwards, a
	// must honor the propagated allowance when validating the intro.
	gamma.send(b, &Msg{Kind: KindConnect, ID: 2, Name: "gamma", Peer: &HostRecord{Name: "alpha"}})
	eng.RunFor(2 * time.Second)
	if o := gamma.last(KindPunchOrder); o == nil || o.Peer.Name != "alpha" {
		t.Fatalf("peered cross-broker connect failed: %+v", o)
	}

	a.RevokePeering("red", "blue")
	eng.RunFor(time.Second)
	if b.PeeringAllowed("red", "blue") {
		t.Fatal("revocation did not propagate")
	}
	gamma.send(b, &Msg{Kind: KindConnect, ID: 4, Name: "gamma", Peer: &HostRecord{Name: "alpha"}})
	eng.RunFor(2 * time.Second)
	if e := gamma.last(KindError); e == nil || e.ID != 4 {
		t.Fatal("connect after revocation not refused")
	}
}

// TestWithdrawOnExpiryAndRescope: a session that expires (or rescopes
// to another network) is withdrawn from its replication set.
func TestWithdrawOnExpiryAndRescope(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	federate(a, b)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})
	a.SetNetBrokers("blue", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("blue", []netsim.Addr{a.Addr()})

	cl := newClient(t, nw, "60.0.0.1")
	cl.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	eng.RunFor(2 * time.Second)
	if !b.HasReplica("alpha") {
		t.Fatal("no replica")
	}

	// Rescope to blue: the red replica is replaced, never duplicated.
	cl.send(a, &Msg{Kind: KindJoin, ID: 2, Rec: &HostRecord{Name: "alpha", Net: "blue"}})
	eng.RunFor(2 * time.Second)
	if got := b.RecordsFor("red"); got != 0 {
		t.Fatalf("rescoped record still replicated under red (%d)", got)
	}
	if got := b.RecordsFor("blue"); got != 1 {
		t.Fatalf("blue records = %d, want 1", got)
	}

	// Keep the session alive a while (replicas must survive refreshes),
	// then stop pulsing and let it expire everywhere.
	for i := 0; i < 4; i++ {
		eng.RunFor(10 * time.Second)
		cl.send(a, &Msg{Kind: KindPulse, Name: "alpha"})
	}
	eng.RunFor(time.Second)
	if !b.HasReplica("alpha") {
		t.Fatal("replica did not survive refresh cycles")
	}
	eng.RunFor(2 * time.Minute)
	if a.HasSession("alpha") {
		t.Fatal("session did not expire")
	}
	if b.HasReplica("alpha") {
		t.Fatal("replica outlived the session")
	}
}

// TestBatchedReplicationLags: with a replication interval configured,
// a freshly joined record becomes visible at the peer only after the
// next flush — the lag the federation experiment measures.
func TestBatchedReplicationLags(t *testing.T) {
	eng, nw, a := newServer(t)
	lag := 5 * time.Second
	b := newBroker(t, eng, nw, 1, Config{})
	lagged := newBroker(t, eng, nw, 2, Config{ReplicateInterval: lag})
	federate(a, b, lagged)
	lagged.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{lagged.Addr()})

	cl := newClient(t, nw, "60.0.0.1")
	cl.send(lagged, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red"}})
	eng.RunFor(time.Second)
	if b.HasReplica("alpha") {
		t.Fatal("batched replication arrived before the flush interval")
	}
	eng.RunFor(lag + time.Second)
	if !b.HasReplica("alpha") {
		t.Fatal("batched replication never flushed")
	}
}
