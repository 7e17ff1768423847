package stun

import (
	"testing"
	"testing/quick"
	"time"

	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Type:    TypeBindingResponse,
		Mapped:  netsim.Addr{IP: netsim.MustParseIP("8.8.8.8"), Port: 1234},
		Source:  netsim.Addr{IP: netsim.MustParseIP("1.2.3.4"), Port: 3478},
		Changed: netsim.Addr{IP: netsim.MustParseIP("1.2.3.5"), Port: 3479},
		Change:  ChangeIP | ChangePort,
	}
	m.TxID[0] = 0xAB
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short message accepted")
	}
	m := &Message{Type: TypeBindingRequest}
	wire := m.Marshal()
	wire[3] = 200 // claim long attributes
	if _, err := Unmarshal(wire); err == nil {
		t.Error("truncated attributes accepted")
	}
}

func TestPropertyMarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// classifyRig builds a world with a STUN server and one client host
// behind the requested NAT type (or public when typ == nat.None).
func classifyRig(t *testing.T, typ nat.Type) (got Result, err error) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	sSite := nw.NewSite("server")
	cSite := nw.NewSite("client")
	nw.SetRTT(sSite, cSite, 20*time.Millisecond)

	srvHost := nw.NewPublicHost("stun", sSite, netsim.MustParseIP("3.3.3.3"), 0, 0)
	if _, e := NewServer(srvHost, netsim.MustParseIP("3.3.3.4"), 3478, 3479); e != nil {
		t.Fatal(e)
	}

	var client *netsim.Host
	if typ == nat.None {
		client = nw.NewPublicHost("client", cSite, netsim.MustParseIP("9.9.9.9"), 0, 0)
	} else {
		gw := nw.NewPublicHost("gw", cSite, netsim.MustParseIP("5.5.5.5"), 0, 0)
		lan := nw.NewLan("lan", cSite, 100e6, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.1.1"))
		client = lan.NewHost("client", netsim.MustParseIP("192.168.1.2"))
		nat.Attach(gw, typ)
	}

	eng.Spawn("classify", func(p *sim.Proc) {
		got, err = Classify(p, client, netsim.Addr{IP: netsim.MustParseIP("3.3.3.3"), Port: 3478}, Config{})
	})
	eng.Run()
	return got, err
}

func TestClassifyOpenInternet(t *testing.T) {
	res, err := classifyRig(t, nat.None)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassOpenInternet {
		t.Fatalf("class = %v, want open-internet", res.Class)
	}
	if res.Mapped != res.Local {
		t.Fatalf("public host should observe its own address, got %v vs %v", res.Mapped, res.Local)
	}
}

func TestClassifyFullCone(t *testing.T) {
	res, err := classifyRig(t, nat.FullCone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassFullCone {
		t.Fatalf("class = %v, want full-cone", res.Class)
	}
	if res.Mapped.IP != netsim.MustParseIP("5.5.5.5") {
		t.Fatalf("mapped address %v should be the gateway's public IP", res.Mapped)
	}
}

func TestClassifyRestrictedCone(t *testing.T) {
	res, err := classifyRig(t, nat.RestrictedCone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassRestrictedCone {
		t.Fatalf("class = %v, want restricted-cone", res.Class)
	}
}

func TestClassifyPortRestrictedCone(t *testing.T) {
	res, err := classifyRig(t, nat.PortRestrictedCone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassPortRestrictedCone {
		t.Fatalf("class = %v, want port-restricted-cone", res.Class)
	}
}

func TestClassifySymmetric(t *testing.T) {
	res, err := classifyRig(t, nat.Symmetric)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassSymmetric {
		t.Fatalf("class = %v, want symmetric", res.Class)
	}
}

func TestClassifyBlocked(t *testing.T) {
	// No server bound at the target address: all tests time out.
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	s := nw.NewSite("s")
	client := nw.NewPublicHost("client", s, netsim.MustParseIP("9.9.9.9"), 0, 0)
	var res Result
	var err error
	eng.Spawn("classify", func(p *sim.Proc) {
		res, err = Classify(p, client, netsim.Addr{IP: netsim.MustParseIP("3.3.3.3"), Port: 3478},
			Config{Timeout: 100 * time.Millisecond, Retries: 2})
	})
	eng.Run()
	if err == nil || res.Class != ClassUDPBlocked {
		t.Fatalf("got class=%v err=%v, want blocked", res.Class, err)
	}
}

// TestClassifyKeepsStopAtDeadline: a stop request that lands in the
// instant a retransmit deadline fires, after it, ends Classify then and
// there and is still pending when it returns — no deadline consumes it.
func TestClassifyKeepsStopAtDeadline(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	s := nw.NewSite("s")
	client := nw.NewPublicHost("client", s, netsim.MustParseIP("9.9.9.9"), 0, 0)
	var err error
	var returned sim.Time
	interrupted := false
	p := eng.Spawn("classify", func(p *sim.Proc) {
		_, err = Classify(p, client, netsim.Addr{IP: netsim.MustParseIP("3.3.3.3"), Port: 3478},
			Config{Timeout: 100 * time.Millisecond, Retries: 3})
		returned, interrupted = p.Now(), p.Interrupted()
	})
	eng.Spawn("stopper", func(q *sim.Proc) {
		q.Sleep(100 * time.Millisecond) // armed after the first deadline
		p.Interrupt()
	})
	eng.Run()
	if err == nil || returned != sim.Time(100*time.Millisecond) || !interrupted {
		t.Fatalf("Classify returned %v at %v with Interrupted() %v; want an error at 0.100s with the stop still pending",
			err, returned, interrupted)
	}
}

func TestClassifySurvivesLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	nw := netsim.New(eng)
	nw.LossRate = 0.2
	sSite := nw.NewSite("server")
	cSite := nw.NewSite("client")
	nw.SetRTT(sSite, cSite, 20*time.Millisecond)
	srvHost := nw.NewPublicHost("stun", sSite, netsim.MustParseIP("3.3.3.3"), 0, 0)
	if _, err := NewServer(srvHost, netsim.MustParseIP("3.3.3.4"), 3478, 3479); err != nil {
		t.Fatal(err)
	}
	gw := nw.NewPublicHost("gw", cSite, netsim.MustParseIP("5.5.5.5"), 0, 0)
	lan := nw.NewLan("lan", cSite, 100e6, 50*time.Microsecond)
	lan.AttachGateway(gw, netsim.MustParseIP("192.168.1.1"))
	client := lan.NewHost("client", netsim.MustParseIP("192.168.1.2"))
	nat.Attach(gw, nat.FullCone)

	var res Result
	var err error
	eng.Spawn("classify", func(p *sim.Proc) {
		res, err = Classify(p, client, netsim.Addr{IP: netsim.MustParseIP("3.3.3.3"), Port: 3478},
			Config{Retries: 6})
	})
	eng.Run()
	if err != nil {
		t.Fatalf("classification failed under 20%% loss: %v", err)
	}
	if res.Class != ClassFullCone {
		t.Fatalf("class = %v, want full-cone", res.Class)
	}
}

func TestClassStringAndNATType(t *testing.T) {
	cases := map[NATClass]nat.Type{
		ClassOpenInternet:       nat.None,
		ClassFullCone:           nat.FullCone,
		ClassRestrictedCone:     nat.RestrictedCone,
		ClassPortRestrictedCone: nat.PortRestrictedCone,
		ClassSymmetric:          nat.Symmetric,
		ClassSymmetricFirewall:  nat.Symmetric,
		ClassUDPBlocked:         nat.None,
	}
	for cls, want := range cases {
		if cls.NATType() != want {
			t.Errorf("%v.NATType() = %v, want %v", cls, cls.NATType(), want)
		}
		if cls.String() == "unknown" {
			t.Errorf("class %d has no name", int(cls))
		}
	}
}
