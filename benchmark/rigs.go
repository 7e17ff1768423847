package main

import (
	"fmt"
	"runtime"
	"time"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// Rigs measure host time per call into one layer's public API, each in
// a world just big enough to make the call. Event-driven rigs also
// report the events one call costs, so the engine's share can be taken
// out: layer self time = ns per call - events per call x sim.ns_per_event.

var rigMetrics = []metricDef{
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_timer_reset", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_proc_switch", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_proc_switch", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_proc_switch_nprocs", Unit: "ns", Better: "lower"},
	{Name: "netsim.ns_per_packet_lan", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_packet_lan", Unit: "count", Better: "lower"},
	{Name: "netsim.ns_per_packet_wan", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_packet_wan", Unit: "count", Better: "lower"},
	{Name: "netsim.allocs_per_packet_wan", Unit: "count", Better: "lower"},
	{Name: "netsim.ns_per_packet_nat", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_packet_nat", Unit: "count", Better: "lower"},
	{Name: "ipstack.ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "ipstack.allocs_per_segment", Unit: "count", Better: "lower"},
	{Name: "ipstack.events_per_segment", Unit: "count", Better: "lower"},
	{Name: "ipstack.ns_per_conn", Unit: "ns", Better: "lower"},
	{Name: "ipstack.events_per_conn", Unit: "count", Better: "lower"},
	{Name: "ipstack.ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "ipstack.events_per_datagram", Unit: "count", Better: "lower"},
	{Name: "ether.ns_per_bridge_frame", Unit: "ns", Better: "lower"},
	{Name: "ether.events_per_bridge_frame", Unit: "count", Better: "lower"},
	{Name: "ether.ns_per_table_lookup", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_frame_codec", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_flow_add", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_frame_host", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_frame_host", Unit: "count", Better: "lower"},
	{Name: "core.events_per_frame_host", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_frame_host_relayed", Unit: "ns", Better: "lower"},
	{Name: "core.events_per_frame_host_relayed", Unit: "count", Better: "lower"},
	{Name: "rendezvous.ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "rendezvous.events_per_lookup", Unit: "count", Better: "lower"},
	{Name: "vpc.ns_per_member_admit", Unit: "ns", Better: "lower"},
	{Name: "vpc.events_per_member_admit", Unit: "count", Better: "lower"},
	{Name: "obs.ns_per_scrape", Unit: "ns", Better: "lower"},
	{Name: "obs.ns_per_series", Unit: "ns", Better: "lower"},
	{Name: "scenario.ns_per_flow_scrape", Unit: "ns", Better: "lower"},
}

// rigDepth is the event-heap depth the sim rigs hold: between the few
// hundred pending events of the two-host workloads and the ten thousand
// of control_scrape.
const rigDepth = 1024

type rig struct {
	name string
	run  func(d time.Duration, out map[string]float64) error
}

var rigs = []rig{
	{"sim.event", rigSimEvent},
	{"sim.timer", rigSimTimer},
	{"sim.proc", rigSimProc},
	{"netsim.lan", func(d time.Duration, out map[string]float64) error { return rigNetsim("lan", d, out) }},
	{"netsim.wan", func(d time.Duration, out map[string]float64) error { return rigNetsim("wan", d, out) }},
	{"netsim.nat", func(d time.Duration, out map[string]float64) error { return rigNetsim("nat", d, out) }},
	{"ipstack.segment", rigIPSegment},
	{"ipstack.conn", rigIPConn},
	{"ipstack.datagram", rigIPDatagram},
	{"ether.bridge", rigEtherBridge},
	{"ether.table", rigEtherTable},
	{"core.codec", rigCoreCodec},
	{"core.flow", rigCoreFlow},
	{"core.frame_host", func(d time.Duration, out map[string]float64) error { return rigCoreFrameHost(false, d, out) }},
	{"core.frame_host_relayed", func(d time.Duration, out map[string]float64) error { return rigCoreFrameHost(true, d, out) }},
	{"rendezvous.lookup", rigLookup},
	{"vpc.admit", rigAdmit},
	{"obs.scrape", rigScrape},
}

// runRigs gives every rig an equal share of the budget.
func runRigs(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	each := budget / time.Duration(len(rigs))
	for _, rg := range rigs {
		if err := rg.run(each, out); err != nil {
			return nil, fmt.Errorf("rig %s: %w", rg.name, err)
		}
		runtime.GC()
	}
	return out, nil
}

// measured is what one rig loop cost.
type measured struct {
	calls          int
	ns, allocs, ev float64 // per call
}

// timeCalls runs batch — which makes some calls and returns how many —
// until d has passed. eng may be nil for rigs that dispatch no events.
func timeCalls(d time.Duration, eng *sim.Engine, batch func() int) measured {
	var m0, m1 runtime.MemStats
	ev0 := uint64(0)
	if eng != nil {
		ev0 = eng.Dispatched()
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for first := true; first || time.Since(t0) < d; first = false {
		calls += batch()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if calls == 0 {
		return measured{}
	}
	m := measured{calls: calls, ns: float64(el.Nanoseconds()) / float64(calls), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(calls)}
	if eng != nil {
		m.ev = float64(eng.Dispatched()-ev0) / float64(calls)
	}
	return m
}

// ---- sim ----

// lcg is a tiny deterministic delay source for the event rig.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

func rigSimEvent(d time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	rnd := lcg(1)
	var fn func()
	fn = func() { eng.Schedule(sim.Duration(1+rnd.next()%1000)*sim.Microsecond, fn) }
	for i := 0; i < rigDepth; i++ {
		fn()
	}
	m := timeCalls(d, eng, func() int {
		before := eng.Dispatched()
		eng.RunFor(sim.Millisecond)
		return int(eng.Dispatched() - before)
	})
	out["sim.ns_per_event"], out["sim.allocs_per_event"] = m.ns, m.allocs
	return nil
}

func rigSimTimer(d time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	timers := make([]*sim.Timer, rigDepth)
	for i := range timers {
		timers[i] = sim.NewTimer(eng, func() {})
	}
	m := timeCalls(d, nil, func() int {
		for i, t := range timers {
			t.Reset(sim.Second + sim.Duration(i)*sim.Microsecond)
		}
		return len(timers)
	})
	out["sim.ns_per_timer_reset"] = m.ns
	return nil
}

// rigSimProc times one park/resume round trip of a Proc (a Sleep: one
// event and two goroutine hand-offs), first on the harness's single P,
// then on every CPU, where each hand-off may cross threads.
func rigSimProc(d time.Duration, out map[string]float64) error {
	run := func(d time.Duration) measured {
		eng := sim.NewEngine(1)
		defer eng.Stop()
		switches := 0
		eng.Spawn("rig", func(p *sim.Proc) {
			for p.Sleep(sim.Microsecond) {
				switches++
			}
		})
		return timeCalls(d, eng, func() int {
			before := switches
			eng.RunFor(sim.Millisecond)
			return switches - before
		})
	}
	m := run(d / 2)
	out["sim.ns_per_proc_switch"], out["sim.allocs_per_proc_switch"] = m.ns, m.allocs
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	out["sim.ns_per_proc_switch_nprocs"] = run(d / 2).ns
	runtime.GOMAXPROCS(prev)
	return nil
}

// ---- netsim ----

// rigNetsim sends 1400-byte datagrams between two sockets: on one LAN,
// across the WAN between two public hosts, or from a LAN host out
// through its NAT gateway.
func rigNetsim(kind string, d time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	net := netsim.New(eng)
	a, b := net.NewSite("a"), net.NewSite("b")
	net.SetRTT(a, b, 2*sim.Millisecond)
	var from, to *netsim.Host
	switch kind {
	case "lan":
		lan := net.NewLan("lan", a, 1e9, 50*sim.Microsecond)
		from = lan.NewHost("h1", netsim.MustParseIP("192.168.0.2"))
		to = lan.NewHost("h2", netsim.MustParseIP("192.168.0.3"))
	case "wan":
		from = net.NewPublicHost("h1", a, netsim.MustParseIP("60.0.0.1"), 1e9, 100*sim.Microsecond)
		to = net.NewPublicHost("h2", b, netsim.MustParseIP("60.0.1.1"), 1e9, 100*sim.Microsecond)
	case "nat":
		gw := net.NewPublicHost("gw", a, netsim.MustParseIP("60.0.0.1"), 1e9, 100*sim.Microsecond)
		lan := net.NewLan("lan", a, 1e9, 50*sim.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.FullCone)
		from = lan.NewHost("h1", netsim.MustParseIP("192.168.0.2"))
		to = net.NewPublicHost("h2", b, netsim.MustParseIP("60.0.1.1"), 1e9, 100*sim.Microsecond)
	}
	got := 0
	rx, err := to.BindUDP(9000, func(netsim.Packet) { got++ })
	if err != nil {
		return err
	}
	tx, err := from.BindUDP(9000, nil)
	if err != nil {
		return err
	}
	dst := netsim.Addr{IP: to.IP(), Port: rx.Port()}
	payload := make([]byte, 1400)
	const burst = 64
	sent := 0
	m := timeCalls(d, eng, func() int {
		for i := 0; i < burst; i++ {
			tx.SendTo(dst, payload)
		}
		sent += burst
		eng.RunFor(5 * sim.Millisecond)
		return burst
	})
	if got != sent {
		return fmt.Errorf("%d of %d packets delivered", got, sent)
	}
	out["netsim.ns_per_packet_"+kind], out["netsim.events_per_packet_"+kind] = m.ns, m.ev
	if kind == "wan" {
		out["netsim.allocs_per_packet_wan"] = m.allocs
	}
	return nil
}

// ---- ipstack ----

// stackPair is two stacks on a crossover pipe: ipstack and nothing else.
func stackPair() (*sim.Engine, *ipstack.Stack, *ipstack.Stack) {
	eng := sim.NewEngine(1)
	pipe := ether.NewPipe(eng, 50*sim.Microsecond)
	a := ipstack.New(eng, "a", pipe.A, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), ipstack.Config{})
	b := ipstack.New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), ipstack.Config{})
	return eng, a, b
}

func rigIPSegment(d time.Duration, out map[string]float64) error {
	eng, a, b := stackPair()
	defer eng.Stop()
	lis, err := b.Listen(5001)
	if err != nil {
		return err
	}
	var src, sink *ipstack.Conn
	eng.Spawn("sink", func(p *sim.Proc) {
		if sink, err = lis.Accept(p); err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := sink.Read(p, buf); err != nil {
				return
			}
		}
	})
	eng.Spawn("source", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 5001})
		if err != nil {
			return
		}
		src = c
		chunk := make([]byte, 16<<10)
		for {
			if _, err := c.Write(p, chunk); err != nil {
				return
			}
		}
	})
	// The pipe has no rate, so a round trip of 100 µs moves a full
	// window: 2 ms is past the handshake and slow start.
	eng.RunFor(2 * sim.Millisecond)
	if src == nil || sink == nil {
		return fmt.Errorf("connection did not establish")
	}
	segs := func() int { return int(src.SegsOut + sink.SegsOut) }
	m := timeCalls(d, eng, func() int {
		before := segs()
		eng.RunFor(100 * sim.Microsecond)
		return segs() - before
	})
	out["ipstack.ns_per_segment"], out["ipstack.allocs_per_segment"], out["ipstack.events_per_segment"] = m.ns, m.allocs, m.ev
	return nil
}

func rigIPConn(d time.Duration, out map[string]float64) error {
	eng, a, b := stackPair()
	defer eng.Stop()
	lis, err := b.Listen(8080)
	if err != nil {
		return err
	}
	eng.Spawn("accept", func(p *sim.Proc) {
		for {
			conn, err := lis.Accept(p)
			if err != nil {
				return
			}
			eng.Spawn("serve", func(p *sim.Proc) {
				buf := make([]byte, 16)
				if _, err := conn.ReadFull(p, buf); err == nil {
					conn.Write(p, buf)
				}
				conn.Close()
			})
		}
	})
	done := 0
	eng.Spawn("client", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for {
			conn, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 8080})
			if err != nil {
				return
			}
			if _, err := conn.Write(p, buf); err != nil {
				return
			}
			if _, err := conn.ReadFull(p, buf); err != nil {
				return
			}
			conn.Close()
			done++
		}
	})
	m := timeCalls(d, eng, func() int {
		before := done
		eng.RunFor(10 * sim.Millisecond)
		return done - before
	})
	if m.calls == 0 {
		return fmt.Errorf("no connection completed")
	}
	out["ipstack.ns_per_conn"], out["ipstack.events_per_conn"] = m.ns, m.ev
	return nil
}

func rigIPDatagram(d time.Duration, out map[string]float64) error {
	eng, a, b := stackPair()
	got := 0
	if _, err := b.BindUDP(7000, func(ipstack.Datagram) { got++ }); err != nil {
		return err
	}
	sock, err := a.BindUDP(7000, nil)
	if err != nil {
		return err
	}
	dst := netsim.Addr{IP: b.IP(), Port: 7000}
	payload := make([]byte, 64)
	sock.SendTo(dst, payload) // resolves ARP
	eng.RunFor(sim.Millisecond)
	const burst = 64
	sent := 1
	m := timeCalls(d, eng, func() int {
		for i := 0; i < burst; i++ {
			sock.SendTo(dst, payload)
		}
		sent += burst
		eng.RunFor(sim.Millisecond)
		return burst
	})
	if got != sent {
		return fmt.Errorf("%d of %d datagrams delivered", got, sent)
	}
	out["ipstack.ns_per_datagram"], out["ipstack.events_per_datagram"] = m.ns, m.ev
	return nil
}

// ---- ether ----

func rigFrame(dst, src ether.MAC, payload int) *ether.Frame {
	f := &ether.Frame{Dst: dst, Src: src, Type: ether.TypeIPv4, Payload: make([]byte, payload)}
	f.Payload[0] = 0x45 // enough of an IPv4 header for the flow key
	f.Payload[9] = ipstack.ProtoUDP
	return f
}

func rigEtherBridge(d time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	br := ether.NewBridge(eng, "rig", 10*sim.Microsecond)
	ports := make([]*ether.BridgePort, 4)
	got := 0
	for i := range ports {
		ports[i] = br.AddPort(fmt.Sprintf("p%d", i))
		ports[i].SetRecv(func(*ether.Frame) { got++ })
	}
	// Teach the bridge where both MACs live, so the timed frames are
	// forwarded, not flooded.
	ports[1].Send(rigFrame(ether.SeqMAC(1), ether.SeqMAC(2), 64))
	ports[0].Send(rigFrame(ether.SeqMAC(2), ether.SeqMAC(1), 64))
	eng.RunFor(sim.Millisecond)
	f := rigFrame(ether.SeqMAC(2), ether.SeqMAC(1), 1400)
	const burst = 64
	got = 0
	sent := 0
	m := timeCalls(d, eng, func() int {
		for i := 0; i < burst; i++ {
			ports[0].Send(f)
		}
		sent += burst
		eng.RunFor(20 * sim.Microsecond)
		return burst
	})
	if got != sent {
		return fmt.Errorf("%d of %d frames forwarded", got, sent)
	}
	out["ether.ns_per_bridge_frame"], out["ether.events_per_bridge_frame"] = m.ns, m.ev
	return nil
}

func rigEtherTable(d time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	tbl := ether.NewMACTable[int](eng, 0)
	for i := 0; i < rigDepth; i++ {
		tbl.Learn(ether.SeqMAC(uint32(i)), i)
	}
	hits := 0
	m := timeCalls(d, nil, func() int {
		for i := 0; i < rigDepth; i++ {
			if _, ok := tbl.Lookup(ether.SeqMAC(uint32(i))); ok {
				hits++
			}
		}
		return rigDepth
	})
	if hits != m.calls {
		return fmt.Errorf("%d of %d lookups hit", hits, m.calls)
	}
	out["ether.ns_per_table_lookup"] = m.ns
	return nil
}

// ---- core ----

func rigCoreCodec(d time.Duration, out map[string]float64) error {
	f := rigFrame(ether.SeqMAC(2), ether.SeqMAC(1), 1400)
	scratch := make([]byte, 0, 2048)
	var back ether.Frame
	bad := 0
	m := timeCalls(d, nil, func() int {
		for i := 0; i < 1024; i++ {
			scratch = core.AppendVNIFrame(scratch[:0], 7, f)
			if vni, err := core.UnmarshalVNIFrameInto(&back, scratch); err != nil || vni != 7 {
				bad++
			}
		}
		return 1024
	})
	if bad != 0 {
		return fmt.Errorf("%d frames did not round-trip", bad)
	}
	out["core.ns_per_frame_codec"] = m.ns
	return nil
}

func rigCoreFlow(d time.Duration, out map[string]float64) error {
	tbl := core.NewFlowTable(1024)
	keys := make([]core.FlowKey, 256)
	for i := range keys {
		keys[i] = core.FlowKey{VNI: 7, Src: ether.SeqMAC(uint32(i)), Dst: ether.SeqMAC(uint32(i + 1)),
			SrcIP: netsim.MakeIP(10, 0, 0, byte(i)), DstIP: netsim.MakeIP(10, 0, 1, byte(i)), Proto: ipstack.ProtoUDP}
	}
	now := sim.Time(0)
	m := timeCalls(d, nil, func() int {
		for i := range keys {
			now++
			tbl.Add(&keys[i], now, 1400)
		}
		return len(keys)
	})
	if tbl.Active() != len(keys) {
		return fmt.Errorf("%d flows active, want %d", tbl.Active(), len(keys))
	}
	out["core.ns_per_flow_add"] = m.ns
	return nil
}

// rigBuild is an emulated WAN of n machines (behind natType NATs, unless
// it is nat.None) and the spec of one statically addressed tenant network
// that holds them all.
func rigBuild(n int, bps float64, natType nat.Type) (*scenario.World, vpc.TenantSpec, error) {
	specs := scenario.EmulatedWANSpecs(n, bps)
	keys := make([]string, n)
	for i := range specs {
		keys[i] = specs[i].Key
		if natType != nat.None {
			specs[i].NAT = natType
		}
	}
	w, err := scenario.Build(1, specs, nil)
	return w, vpc.TenantSpec{
		Tenant:   "rig",
		Networks: []vpc.NetworkSpec{{Name: "rig", CIDR: "10.90.0.0/24", StaticAddressing: true, Members: keys}},
	}, err
}

// rigWorld is rigBuild with the tenant applied.
func rigWorld(n int, bps float64, natType nat.Type) (*scenario.World, []*vpc.Member, error) {
	w, spec, err := rigBuild(n, bps, natType)
	if err != nil {
		return nil, nil, err
	}
	if _, err := (&rep{}).apply(w, spec); err != nil {
		return nil, nil, err
	}
	net, _ := w.VPC().Get("rig")
	return w, net.Members(), nil
}

// rigCoreFrameHost injects raw frames into a vif on one real host and
// counts them on a vif of another: the whole switchFrame, enqueueFrame,
// flush, netsim, onPacket, onTunnelFrame, bridge path, without ipstack.
func rigCoreFrameHost(relayed bool, d time.Duration, out map[string]float64) error {
	natType := nat.None
	if relayed {
		natType = nat.Symmetric
	}
	w, ms, err := rigWorld(2, 1e9, natType)
	if err != nil {
		return err
	}
	defer w.Eng.Stop()
	if t, ok := ms[0].Host.Tunnel(ms[1].Host.Name()); !ok || t.Relayed != relayed {
		return fmt.Errorf("tunnel relayed=%v, want %v", ok && t.Relayed, relayed)
	}
	vni := ms[0].Net.VNI
	tx, err := ms[0].Host.AttachVIFOn(vni, "rig0")
	if err != nil {
		return err
	}
	rx, err := ms[1].Host.AttachVIFOn(vni, "rig1")
	if err != nil {
		return err
	}
	macA, macB := ether.SeqMAC(0xa0), ether.SeqMAC(0xb0)
	got := 0
	rx.SetRecv(func(f *ether.Frame) {
		if f.Dst == macB {
			got++
		}
	})
	tx.SetRecv(func(*ether.Frame) {})
	// One frame each way teaches bridges and switches both addresses.
	rx.Send(rigFrame(macA, macB, 64))
	w.Eng.RunFor(50 * sim.Millisecond)
	tx.Send(rigFrame(macB, macA, 64))
	w.Eng.RunFor(50 * sim.Millisecond)
	if got != 1 {
		return fmt.Errorf("learning frame not delivered")
	}
	f := rigFrame(macB, macA, 1400)
	const burst = 32
	got = 0
	sent := 0
	m := timeCalls(d, w.Eng, func() int {
		for i := 0; i < burst; i++ {
			tx.Send(f)
		}
		sent += burst
		w.Eng.RunFor(10 * sim.Millisecond)
		return burst
	})
	if got != sent {
		return fmt.Errorf("%d of %d frames delivered", got, sent)
	}
	if relayed {
		out["core.ns_per_frame_host_relayed"], out["core.events_per_frame_host_relayed"] = m.ns, m.ev
	} else {
		out["core.ns_per_frame_host"], out["core.allocs_per_frame_host"], out["core.events_per_frame_host"] = m.ns, m.allocs, m.ev
	}
	return nil
}

// ---- control plane ----

func rigLookup(d time.Duration, out map[string]float64) error {
	w, ms, err := rigWorld(2, 100e6, nat.None)
	if err != nil {
		return err
	}
	defer w.Eng.Stop()
	done, bad := 0, 0
	target := ms[1].Host.Name()
	w.Eng.Spawn("rig", func(p *sim.Proc) {
		for {
			recs, err := ms[0].Host.Lookup(p, target)
			if err != nil || len(recs) == 0 || recs[0].Name != target {
				bad++
			}
			done++
		}
	})
	m := timeCalls(d, w.Eng, func() int {
		before := done
		w.Eng.RunFor(100 * sim.Millisecond)
		return done - before
	})
	if bad != 0 || m.calls == 0 {
		return fmt.Errorf("%d of %d lookups failed", bad, done)
	}
	out["rendezvous.ns_per_lookup"], out["rendezvous.events_per_lookup"] = m.ns, m.ev
	return nil
}

// rigAdmit times World.Apply admitting eight members (join, mesh,
// address) into a fresh world each call; building the world is not timed.
func rigAdmit(d time.Duration, out map[string]float64) error {
	const members = 8
	var ns, ev float64
	calls := 0
	for t0 := time.Now(); calls == 0 || time.Since(t0) < d; calls++ {
		w, spec, err := rigBuild(members, 100e6, nat.None)
		if err != nil {
			return err
		}
		ev0 := w.Eng.Dispatched()
		a0 := time.Now()
		_, err = (&rep{}).apply(w, spec)
		ns += float64(time.Since(a0).Nanoseconds())
		ev += float64(w.Eng.Dispatched() - ev0)
		w.Eng.Stop()
		if err != nil {
			return err
		}
	}
	out["vpc.ns_per_member_admit"] = ns / float64(calls*members)
	out["vpc.events_per_member_admit"] = ev / float64(calls*members)
	return nil
}

func rigScrape(d time.Duration, out map[string]float64) error {
	w, ms, err := rigWorld(16, 100e6, nat.None)
	if err != nil {
		return err
	}
	defer w.Eng.Stop()
	var pairs [][2]*vpc.Member
	for i, m := range ms {
		pairs = append(pairs, [2]*vpc.Member{m, ms[(i+1)%len(ms)]})
	}
	if err := warmPairs(w, pairs); err != nil { // so there are flows to scrape
		return err
	}
	series := 0
	m := timeCalls(d/2, nil, func() int {
		series = w.Scrape().Len()
		return 1
	})
	if series == 0 {
		return fmt.Errorf("empty scrape")
	}
	out["obs.ns_per_scrape"], out["obs.ns_per_series"] = m.ns, m.ns/float64(series)
	flows := 0
	m = timeCalls(d/2, nil, func() int {
		flows = w.FlowScrape().Len()
		return 1
	})
	if flows == 0 {
		return fmt.Errorf("empty flow scrape")
	}
	out["scenario.ns_per_flow_scrape"] = m.ns
	return nil
}
