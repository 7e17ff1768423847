package vpc_test

import (
	"math/rand"
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// TestCrossTenantTrafficNeverDelivered is the data-plane isolation
// property: even when a tunnel DOES exist between hosts of different
// tenants (established before the hosts were admitted, so the scoped
// control plane could not refuse it), randomized traffic injected into
// one tenant's segment is never delivered into the other tenant's
// bridges. Isolation is enforced twice: the sender's VNI-aware flooding
// suppresses tagged frames toward tunnels whose far end announced no
// segment for the tag, and — with suppression disabled — every frame
// that does cross the wire dies at the receiver's isolation check.
func TestCrossTenantTrafficNeverDelivered(t *testing.T) {
	w, err := scenario.Build(11, scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mesh FIRST, in the default network: this is the shared fabric.
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	a, b := w.Machines[0].WAV, w.Machines[1].WAV
	if _, ok := a.Tunnel("pc01"); !ok {
		t.Fatal("no shared tunnel")
	}

	// Now the tenants split: a joins red (VNI 1), b joins blue (VNI 2).
	var joinErr error
	w.Eng.Spawn("split", func(p *sim.Proc) {
		if err := a.JoinVPC(p, "red", 1); err != nil {
			joinErr = err
			return
		}
		joinErr = b.JoinVPC(p, "blue", 2)
	})
	w.Eng.RunFor(10 * time.Second)
	if joinErr != nil {
		t.Fatal(joinErr)
	}

	// Victim-side listeners on every bridge b owns.
	delivered := 0
	listen := func(vni uint32) {
		br, ok := b.SegmentBridge(vni)
		if !ok {
			t.Fatalf("b has no segment %d", vni)
		}
		port := br.AddPort("listener")
		port.SetRecv(func(f *ether.Frame) { delivered++ })
	}
	listen(0)
	listen(2)

	// Randomized attack traffic out of a's red segment: random unicast,
	// broadcast and multicast destinations, random types and payloads.
	rng := rand.New(rand.NewSource(99))
	injector, err := a.AttachVIFOn(1, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 400
	injected := 0
	inject := func() {
		injected++
		var dst ether.MAC
		switch rng.Intn(3) {
		case 0:
			dst = ether.Broadcast
		case 1:
			rng.Read(dst[:])
			dst[0] |= 1 // multicast
		default:
			rng.Read(dst[:])
			dst[0] &^= 1 // unicast
		}
		var src ether.MAC
		rng.Read(src[:])
		src[0] &^= 1
		payload := make([]byte, 1+rng.Intn(a.SegmentMTU(1)-ether.HeaderLen))
		rng.Read(payload)
		injector.Send(&ether.Frame{
			Dst: dst, Src: src,
			Type:    uint16(rng.Intn(1 << 16)),
			Payload: payload,
		})
	}

	// Layer 1 — smarter flooding: with announcements exchanged, the
	// sender itself suppresses red-tagged frames toward b (which
	// announced segments {0, 2} only). Nothing even crosses the wire.
	const warmup = 20
	tick0 := sim.NewTicker(w.Eng, 50*time.Millisecond, func() {
		if injected < warmup {
			inject()
		}
	})
	w.Eng.RunFor(warmup*50*time.Millisecond + 5*time.Second)
	tick0.Stop()
	if injected != warmup {
		t.Fatalf("warmup injected %d/%d", injected, warmup)
	}
	if delivered != 0 {
		t.Fatalf("%d frames delivered during suppression phase", delivered)
	}
	if b.CrossVNIDrops != 0 {
		t.Fatalf("CrossVNIDrops = %d during suppression phase, want 0 (frames should not cross at all)", b.CrossVNIDrops)
	}
	if a.SuppressedFloods < warmup {
		t.Fatalf("SuppressedFloods = %d, want >= %d", a.SuppressedFloods, warmup)
	}
	reg := obs.NewRegistry()
	a.ScrapeInto(reg, obs.Labels{})
	if v, _ := reg.CounterValue("suppress.vni1", obs.Labels{}); v < warmup {
		t.Fatalf("counter suppress.vni1 = %d, want >= %d", v, warmup)
	}

	// Layer 2 — receiver-side isolation check: disable the sender
	// optimization so traffic really crosses the wire, and hits the
	// VNI tag check on the far side.
	a.SetFloodAll(true)
	injected = 0
	tick := sim.NewTicker(w.Eng, 50*time.Millisecond, func() {
		if injected < frames {
			inject()
		}
	})
	w.Eng.RunFor(frames*50*time.Millisecond + 10*time.Second)
	tick.Stop()

	if injected != frames {
		t.Fatalf("injected %d/%d", injected, frames)
	}
	if delivered != 0 {
		t.Fatalf("%d cross-tenant frames delivered into the victim's bridges", delivered)
	}
	// The property is only meaningful if the traffic actually crossed
	// the wire: every frame must have reached b and died at the check.
	if b.CrossVNIDrops < frames {
		t.Fatalf("CrossVNIDrops = %d, want >= %d (traffic never reached the victim)", b.CrossVNIDrops, frames)
	}

	// Control: co-tenant traffic on a shared VNI IS delivered (the
	// property is not vacuous).
	b.JoinVNI(1)
	coDelivered := 0
	br, _ := b.SegmentBridge(1)
	br.AddPort("co-listener").SetRecv(func(f *ether.Frame) { coDelivered++ })
	w.Eng.Schedule(time.Second, func() {
		injector.Send(&ether.Frame{Dst: ether.Broadcast, Src: ether.SeqMAC(7), Type: ether.TypeIPv4, Payload: []byte("hello")})
	})
	w.Eng.RunFor(10 * time.Second)
	if coDelivered == 0 {
		t.Fatal("co-tenant frame was not delivered; fabric is dead, property vacuous")
	}
}

// TestTransitivePeeringNeverLeaks is the ROADMAP's transitivity
// property: with red<->mid and mid<->green peered — under any
// combination of allow policies — nothing ever crosses red<->green.
// The inter-VNI gateway is single-hop: a frame tagged with red's VNI is
// only ever re-injected by a rule installed for the explicit pair
// (red, local), and an injected frame enters the peered bridge through
// its tap, which the bridge never echoes back out — so no rule chain
// red->mid->green exists.
func TestTransitivePeeringNeverLeaks(t *testing.T) {
	// Candidate allow-lists per direction (nil = the whole CIDR). The
	// leak property must hold for every draw; the full/full draw doubles
	// as the non-vacuity control (red<->mid and mid<->green deliver).
	intoRed := [][]string{nil, {"10.10.0.1/32"}, {"10.10.0.0/31"}}
	intoMid := [][]string{nil, {"10.20.0.1/32"}, {"10.20.0.0/31"}}
	intoGreen := [][]string{nil, {"10.30.0.1/32"}, {"10.30.0.200/32"}}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4; i++ {
		ab := vpc.PeeringSpec{A: "red", B: "mid"}
		bc := vpc.PeeringSpec{A: "mid", B: "green"}
		full := i == 0 // first draw: everything allowed, both peerings
		if !full {
			ab.AllowA = intoRed[rng.Intn(len(intoRed))]
			ab.AllowB = intoMid[rng.Intn(len(intoMid))]
			bc.AllowA = intoMid[rng.Intn(len(intoMid))]
			bc.AllowB = intoGreen[rng.Intn(len(intoGreen))]
		}
		transitiveOnce(t, int64(50+i), ab, bc, full)
	}
}

func transitiveOnce(t *testing.T, seed int64, ab, bc vpc.PeeringSpec, wantDelivery bool) {
	t.Helper()
	w, err := scenario.Build(seed, scenario.EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shared fabric first: every host pair holds a tunnel before the
	// split, so non-delivery below is policy, not disconnection.
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{
			{Name: "red", CIDR: "10.10.0.0/24", Members: []string{"pc00"}, StaticAddressing: true},
			{Name: "mid", CIDR: "10.20.0.0/24", Members: []string{"pc01"}, StaticAddressing: true},
			{Name: "green", CIDR: "10.30.0.0/24", Members: []string{"pc02"}, StaticAddressing: true},
		},
		Peerings: []vpc.PeeringSpec{ab, bc},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatalf("apply (ab=%+v bc=%+v): %v", ab, bc, err)
	}
	red, _ := w.VPC().Get("red")
	mid, _ := w.VPC().Get("mid")
	green, _ := w.VPC().Get("green")
	sender := red.Members()[0]
	greenMember := green.Members()[0]

	// Listener on green's segment: any frame sourced by red's member is
	// a transitive leak (mid's frames are legitimate — mid<->green ARE
	// peered).
	redMAC := sender.Stack.MAC()
	leaked := 0
	br, ok := greenMember.Host.SegmentBridge(green.VNI)
	if !ok {
		t.Fatal("green member lost its segment")
	}
	br.AddPort("leak-listener").SetRecv(func(f *ether.Frame) {
		if f.Src == redMAC {
			leaked++
		}
	})

	var redMidErr, midGreenErr, redGreenErr, redGreenFloodErr error
	w.Eng.Spawn("probe", func(p *sim.Proc) {
		ping := func(from *vpc.Member, ip netsim.IP) error {
			if _, err := from.Stack.Ping(p, ip, 32, 4*time.Second); err == nil {
				return nil
			}
			_, err := from.Stack.Ping(p, ip, 32, 4*time.Second)
			return err
		}
		redMidErr = ping(sender, mid.Members()[0].IP)
		midGreenErr = ping(mid.Members()[0], greenMember.IP)
		// The property: red never reaches green, first with VNI-aware
		// flood suppression doing its job...
		redGreenErr = ping(sender, greenMember.IP)
		// ...then with the sender flooding everywhere, so red-tagged
		// frames really arrive at green's host and must die there.
		sender.Host.SetFloodAll(true)
		redGreenFloodErr = ping(sender, greenMember.IP)
	})
	w.Eng.RunFor(3 * time.Minute)

	if wantDelivery {
		if redMidErr != nil {
			t.Errorf("red->mid ping failed under full policy: %v", redMidErr)
		}
		if midGreenErr != nil {
			t.Errorf("mid->green ping failed under full policy: %v", midGreenErr)
		}
	}
	if redGreenErr == nil || redGreenFloodErr == nil {
		t.Errorf("red->green delivered (suppressed=%v flooded=%v) with ab=%+v bc=%+v; transitive peering must not leak",
			redGreenErr, redGreenFloodErr, ab, bc)
	}
	if leaked != 0 {
		t.Errorf("%d foreign frames delivered into green's segment (ab=%+v bc=%+v)", leaked, ab, bc)
	}
	// Non-vacuity of the forced-flood phase: red-tagged frames must have
	// reached green's host and died at its gateway/isolation check.
	if drops := greenMember.Host.CrossVNIDrops + greenMember.Host.PeerPolicyDrops; drops == 0 {
		t.Errorf("no red-tagged frames ever reached green's host; leak check vacuous (ab=%+v bc=%+v)", ab, bc)
	}
}

// TestPeeringPolicyProperty is the peering property: randomized traffic
// between peered networks is delivered exactly for policy-allowed
// destination prefixes, and networks without a PeeringSpec remain
// absolutely isolated even over a pre-established shared tunnel mesh.
func TestPeeringPolicyProperty(t *testing.T) {
	w, err := scenario.Build(21, scenario.EmulatedWANSpecs(5, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shared fabric first: every host pair holds a tunnel before the
	// tenant splits, so non-delivery below is policy, not disconnection.
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}

	// One tenant, three networks. red<->blue peer with policy: all of
	// red is reachable from blue, but only 10.20.0.0/31 of blue (its
	// anchor 10.20.0.1, not the member at 10.20.0.2) is reachable from
	// red. green has no peering at all.
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{
			{Name: "red", CIDR: "10.10.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true},
			{Name: "blue", CIDR: "10.20.0.0/24", Members: []string{"pc02", "pc03"}, StaticAddressing: true},
			{Name: "green", CIDR: "10.30.0.0/24", Members: []string{"pc04"}, StaticAddressing: true},
		},
		Peerings: []vpc.PeeringSpec{
			{A: "red", B: "blue", AllowB: []string{"10.20.0.0/31"}},
		},
	}
	var rep1, rep2 *vpc.ApplyReport
	var applyErr error
	w.Eng.Spawn("apply", func(p *sim.Proc) {
		rep1, applyErr = w.Apply(p, spec)
		if applyErr != nil {
			return
		}
		rep2, applyErr = w.Apply(p, spec)
	})
	w.Eng.RunFor(2 * time.Minute)
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if rep1 == nil || rep1.Empty() {
		t.Fatalf("first apply reported no actions: %v", rep1)
	}
	if rep2 == nil || !rep2.Empty() {
		t.Fatalf("second apply not idempotent: %v", rep2)
	}

	red, _ := w.VPC().Get("red")
	blue, _ := w.VPC().Get("blue")
	green, _ := w.VPC().Get("green")
	sender := red.Members()[0] // 10.10.0.1

	// Listeners on the green host's non-default bridges: nothing from
	// outside green may ever be delivered there.
	greenHost := green.Members()[0].Host
	greenDelivered := 0
	greenMAC := green.Members()[0].Stack.MAC()
	for _, vni := range greenHost.VNIs() {
		if vni == 0 {
			continue
		}
		br, ok := greenHost.SegmentBridge(vni)
		if !ok {
			continue
		}
		br.AddPort("leak-listener").SetRecv(func(f *ether.Frame) {
			if f.Src != greenMAC {
				greenDelivered++
			}
		})
	}

	// Randomized destinations in blue's CIDR: a ping must succeed
	// exactly when the address is both policy-allowed and owned.
	blueIPs := map[netsim.IP]bool{}
	for _, m := range blue.Members() {
		blueIPs[m.IP] = true
	}
	allowed := func(ip netsim.IP) bool { return ip >= blue.CIDR.Base && ip <= blue.CIDR.Base+1 }
	rng := rand.New(rand.NewSource(7))
	targets := []netsim.IP{blue.CIDR.Base + 1, blue.CIDR.Base + 2} // anchor (allowed), member (denied)
	for i := 0; i < 6; i++ {
		targets = append(targets, blue.CIDR.Base+netsim.IP(rng.Intn(254)+1))
	}
	type outcome struct {
		ip  netsim.IP
		err error
	}
	var results []outcome
	var reverseErr, greenErr, greenErr2 error
	w.Eng.Spawn("probe", func(p *sim.Proc) {
		for _, ip := range targets {
			// Two attempts: the first may lose its ARP round to timing.
			if _, err := sender.Stack.Ping(p, ip, 32, 4*time.Second); err == nil {
				results = append(results, outcome{ip, nil})
				continue
			}
			_, err := sender.Stack.Ping(p, ip, 32, 4*time.Second)
			results = append(results, outcome{ip, err})
		}
		// Reverse direction: blue's anchor reaches red's member (all of
		// red is allowed into red from blue).
		blueAnchor := blue.Members()[0]
		blueAnchor.Stack.Ping(p, red.Members()[1].IP, 32, 4*time.Second)
		_, reverseErr = blueAnchor.Stack.Ping(p, red.Members()[1].IP, 32, 4*time.Second)
		// Unpeered: red -> green must fail both with suppression on...
		_, greenErr = sender.Stack.Ping(p, green.Members()[0].IP, 32, 4*time.Second)
		// ...and with the sender flooding everywhere (receiver check).
		sender.Host.SetFloodAll(true)
		_, greenErr2 = sender.Stack.Ping(p, green.Members()[0].IP, 32, 4*time.Second)
	})
	w.Eng.RunFor(5 * time.Minute)

	if len(results) != len(targets) {
		t.Fatalf("probed %d/%d targets", len(results), len(targets))
	}
	for _, r := range results {
		want := allowed(r.ip) && blueIPs[r.ip]
		if want && r.err != nil {
			t.Errorf("ping %v: err=%v, want delivery (allowed+owned)", r.ip, r.err)
		}
		if !want && r.err == nil {
			t.Errorf("ping %v succeeded, want failure (allowed=%v owned=%v)", r.ip, allowed(r.ip), blueIPs[r.ip])
		}
	}
	if reverseErr != nil {
		t.Errorf("blue->red ping failed: %v", reverseErr)
	}
	if greenErr == nil || greenErr2 == nil {
		t.Errorf("red->green ping succeeded (%v/%v); unpeered networks must stay isolated", greenErr, greenErr2)
	}
	if greenDelivered != 0 {
		t.Errorf("%d frames delivered into green's segment from outside", greenDelivered)
	}
	// Policy refusals must be visible on the receiving gateway.
	var policyDrops uint64
	for _, m := range blue.Members() {
		policyDrops += m.Host.PeerPolicyDrops
	}
	if policyDrops == 0 {
		t.Error("no peer_policy_drops recorded; the denied pings never hit the policy check (vacuous)")
	}
}
