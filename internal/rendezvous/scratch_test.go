package rendezvous

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wavnet/internal/can"
	"wavnet/internal/netsim"
)

// TestPoisonScribblesWhatDecodeHandedOut proves the detector itself: a
// holder of anything a reused Decoder produced reads garbage after
// Poison — the message, the records behind its pointers, the arrays
// behind its slices.
func TestPoisonScribblesWhatDecodeHandedOut(t *testing.T) {
	var d Decoder
	rec := HostRecord{Name: "alpha", Net: "red", Attrs: can.Point{0.25, 0.5}}
	m, err := d.Decode(Encode(&Msg{Kind: KindFwdConnect, ID: 9, Name: "beta", Rec: &rec}))
	if err != nil {
		t.Fatal(err)
	}
	keptMsg, keptRec, keptAttrs := m, m.Rec, m.Rec.Attrs
	shallow := *m.Rec // what `rec := *m.Rec` keeps: the scratch's Attrs array
	d.Poison()
	if keptMsg.Kind.valid() || keptMsg.Name == "beta" || keptRec.Name == "alpha" || keptRec.Net == "red" {
		t.Fatalf("poison left the message readable: %+v %+v", keptMsg, keptRec)
	}
	if !math.IsNaN(keptAttrs[0]) || !math.IsNaN(shallow.Attrs[1]) {
		t.Fatalf("poison left the Attrs array readable: %v %v", keptAttrs, shallow.Attrs)
	}
	m, err = d.Decode(Encode(&Msg{Kind: KindPeerAllow, Nets: []string{"red", "blue"}}))
	if err != nil {
		t.Fatal(err)
	}
	keptNets := m.Nets
	d.Poison()
	if keptNets[0] == "red" || keptNets[1] == "blue" {
		t.Fatalf("poison left the Nets array readable: %q", keptNets)
	}
	// And the next message is decoded clean.
	if m, err = d.Decode(Encode(&Msg{Kind: KindReplicate, Rec: &rec})); err != nil ||
		m.Rec.Name != "alpha" || m.Rec.Attrs[1] != 0.5 || m.Name != "" || len(m.Nets) != 0 {
		t.Fatalf("decode after poison: %+v %+v, %v", m, m.Rec, err)
	}
}

// TestHandlersKeepNothingOfTheScratch runs the handlers that keep state
// past their return on brokers whose decoder is poisoned after every
// handler (newServer's network is in poison mode): the join that stores
// a session, the replication that stores a replica, and the two CAN
// lookups whose callbacks run long after the request was overwritten.
func TestHandlersKeepNothingOfTheScratch(t *testing.T) {
	eng, nw, a := newServer(t)
	b := newBroker(t, eng, nw, 1, Config{})
	c := newBroker(t, eng, nw, 2, Config{})
	federate(a, b)
	a.SetNetBrokers("red", []netsim.Addr{b.Addr()})
	b.SetNetBrokers("red", []netsim.Addr{a.Addr()})
	joined := false
	c.JoinOverlay(a.OverlayAddr(), func(err error) { joined = err == nil })
	eng.RunFor(5 * time.Second)
	if !joined {
		t.Fatal("broker c did not join the CAN")
	}

	attrs := can.Point{0.25, 0.5}
	alpha := newClient(t, nw, "60.0.0.1")
	alpha.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "alpha", Net: "red", Attrs: attrs}})
	eng.RunFor(time.Second)
	// More traffic through both decoders after the records were stored.
	other := newClient(t, nw, "60.0.0.2")
	other.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "other", Net: "red", Attrs: can.Point{0.75, 0.125}}})
	// A host without attributes is indexed under its name's hash.
	plain := newClient(t, nw, "60.0.0.4")
	plain.send(a, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: "plain", Net: "red"}})
	eng.RunFor(time.Second)

	same := func(got can.Point) bool { return len(got) == 2 && got[0] == attrs[0] && got[1] == attrs[1] }
	if ses := a.sessions.get("alpha"); ses == nil || !same(ses.rec.Attrs) || ses.rec.Net != "red" {
		t.Fatalf("session kept scratch memory: %+v", ses)
	}
	if rep := b.replicas.get("alpha"); rep == nil || !same(rep.rec.Attrs) || rep.rec.Net != "red" {
		t.Fatalf("replica kept scratch memory: %+v", rep)
	}

	// c holds neither session nor replica: both lookups go through the
	// CAN, and their callbacks filter by the request's network and name.
	q := newClient(t, nw, "60.0.0.3")
	q.send(c, &Msg{Kind: KindLookup, ID: 5, Name: "plain", Net: "red"})
	q.send(c, &Msg{Kind: KindLookup, ID: 6, Attrs: attrs, Net: "red"})
	q.send(c, &Msg{Kind: KindPulse, Name: "nobody"}) // overwrites the requests at once
	eng.RunFor(5 * time.Second)
	for id, want := range map[uint64]string{5: "plain", 6: "alpha"} {
		var reply *Msg
		for _, m := range q.got {
			if m.Kind == KindLookupReply && m.ID == id {
				reply = m
			}
		}
		found := false
		for i := 0; reply != nil && i < len(reply.Records); i++ {
			r := reply.Records[i]
			found = found || (r.Name == want && r.Net == "red" && (want == "plain" || same(r.Attrs)))
		}
		if !found {
			t.Fatalf("lookup %d through the CAN does not name %s: %+v", id, want, reply)
		}
	}
}

// TestReplyLargerThanALeasedBuffer: Send starts in the pool's small
// class; a reply that outgrows it — and then the large class too — still
// arrives whole.
func TestReplyLargerThanALeasedBuffer(t *testing.T) {
	eng, nw, s := newServer(t)
	c := newClient(t, nw, "60.0.0.1")
	for _, hosts := range []int{20, 120} {
		for i := s.Sessions(); i < hosts; i++ {
			c.send(s, &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: fmt.Sprintf("host-%03d", i), Attrs: can.Point{0.5, 0.5}}})
		}
		c.send(s, &Msg{Kind: KindLookup, ID: uint64(hosts)})
		eng.RunFor(time.Second)
		reply := c.last(KindLookupReply)
		if reply == nil || reply.ID != uint64(hosts) || len(reply.Records) != hosts {
			t.Fatalf("listing of %d hosts: %+v", hosts, reply)
		}
		if size := len(Encode(reply)); (hosts == 20) != (size <= 1536) || size <= 256 {
			t.Fatalf("a reply of %d bytes does not exercise the buffer class it was meant to", size)
		}
		for i, r := range reply.Records {
			if r.Name != fmt.Sprintf("host-%03d", i) || r.Attrs[1] != 0.5 {
				t.Fatalf("record %d of %d: %+v", i, hosts, r)
			}
		}
	}
}
