package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// leaseRun is what one run of the small seeded world below cost and did.
// Every figure is counted by the world itself — its pool, its engine —
// so it depends on the seed alone, never on the Go runtime underneath.
type leaseRun struct {
	misses, fresh uint64 // buffers and packets, events the free lists could not supply
	events        uint64
	end           sim.Time
	retained      int
}

// runLeaseWorld builds a three-machine mesh (one pair behind symmetric
// NATs, so one tunnel is broker-relayed), establishes a TCP connection
// and then measures a fixed traffic phase: open-loop UDP bursts on every
// edge of the ring from engine callbacks, and a 2 MiB transfer on the
// connection. Everything that spawns a goroutine or grows a map happens
// before the measured phase.
func runLeaseWorld(t *testing.T) leaseRun {
	t.Helper()
	specs := EmulatedWANSpecs(3, 100e6)
	specs[0].NAT, specs[1].NAT = nat.Symmetric, nat.Symmetric
	w, err := Build(7, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Eng.Stop()
	w.Net.Pool().SetPoison(false) // recycling is what is measured here
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	if tun, ok := w.Machines[0].WAV.Tunnel(w.Machines[1].Key); !ok || !tun.Relayed {
		t.Fatal("symmetric pair is not relayed")
	}
	const port, total = 7000, 2 << 20
	pattern := bytes.Repeat([]byte{0xA5}, 64)
	var udpGot, udpBad, tcpGot int
	socks := make([]*ipstack.UDPSock, len(w.Machines))
	for i, m := range w.Machines {
		socks[i], err = m.Dom0().BindUDP(port, func(d ipstack.Datagram) {
			if udpGot++; !bytes.Equal(d.Payload[8:], pattern[8:]) {
				udpBad++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	src, dst := w.Machines[0].Dom0(), w.Machines[2].Dom0()
	lis, err := dst.Listen(5001)
	if err != nil {
		t.Fatal(err)
	}
	start, tcpErr := false, error(nil)
	w.Eng.Spawn("sink", func(p *sim.Proc) {
		conn, err := lis.Accept(p)
		if err != nil {
			tcpErr = err
			return
		}
		buf := make([]byte, 32<<10)
		for tcpGot < total {
			n, err := conn.Read(p, buf)
			if tcpGot += n; err != nil {
				tcpErr = err
				return
			}
		}
	})
	w.Eng.Spawn("source", func(p *sim.Proc) {
		conn, err := src.Dial(p, netsim.Addr{IP: dst.IP(), Port: 5001})
		if err != nil {
			tcpErr = err
			return
		}
		for !start {
			p.Sleep(time.Millisecond)
		}
		chunk := make([]byte, 16<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := conn.Write(p, chunk); err != nil {
				tcpErr = err
				return
			}
		}
	})
	// Warm up: ARP, switch tables, the connection, one burst per edge.
	burst := func(i int) {
		dst := netsim.Addr{IP: w.Machines[(i+1)%len(socks)].Dom0().IP(), Port: port}
		for j := 0; j < 8; j++ {
			binary.BigEndian.PutUint64(pattern, uint64(j))
			if err := socks[i].SendTo(dst, pattern); err != nil {
				t.Error(err)
			}
		}
	}
	for i := range socks {
		burst(i)
	}
	w.Eng.RunFor(5 * time.Second)
	if tcpErr != nil || udpGot != 8*len(socks) {
		t.Fatalf("warm-up: tcp %v, %d datagrams", tcpErr, udpGot)
	}

	pool := w.Net.Pool()
	ev0, miss0, fresh0 := w.Eng.Dispatched(), pool.Misses(), w.Eng.FreshEvents()
	const bursts = 500
	for i := range socks {
		i, k := i, 0
		var tick func()
		tick = func() {
			burst(i)
			if k++; k < bursts {
				w.Eng.Schedule(time.Millisecond, tick)
			}
		}
		w.Eng.Schedule(time.Duration(i)*100*time.Microsecond, tick)
	}
	start = true
	w.Eng.RunFor(2 * time.Second)
	run := leaseRun{
		misses: pool.Misses() - miss0,
		fresh:  w.Eng.FreshEvents() - fresh0,
		events: w.Eng.Dispatched() - ev0,
	}

	if want := 8 * len(socks) * (bursts + 1); udpGot != want || udpBad != 0 || tcpGot != total || tcpErr != nil {
		t.Fatalf("traffic: %d of %d datagrams (%d corrupt), %d of %d TCP bytes, err %v", udpGot, want, udpBad, tcpGot, total, tcpErr)
	}
	// Drain: let everything in flight land, then see what the world keeps.
	w.Eng.RunFor(time.Second)
	run.end = w.Eng.Now()
	run.retained = pool.Retained() + w.Eng.Retained()
	return run
}

// TestLeaseWorldRepeatsExactly runs the same seeded world twice in one
// process. World-owned LIFO free lists make what a run has to allocate
// afresh a function of its (deterministic) event order alone, so the
// two runs must agree to the object — which no pool of package sync,
// whose contents depend on when the collector last ran, could promise.
func TestLeaseWorldRepeatsExactly(t *testing.T) {
	a, b := runLeaseWorld(t), runLeaseWorld(t)
	if a != b {
		t.Fatalf("two runs of one seeded world differ: %+v, then %+v", a, b)
	}
	// 12 000 datagrams and ~1 500 MTU segments (plus their ACKs) crossed
	// the mesh; with every buffer, packet, frame and hop event recycled
	// what is left is the test's own 1 500 scheduled bursts and whatever
	// the free lists could not absorb — a list holds up to twice what is
	// out on lease, and the bursts swing that count from nothing to their
	// peak: 657 pool misses (855 under the fixed bounds this replaced,
	// when the connection's rings were not leases) and 1 728 fresh events (bridge, tap and wake-up events wait in lanes and need
	// no event object; link completions draw on the engine's free list).
	if a.misses != 657 || a.fresh != 1728 {
		t.Fatalf("%d pool misses and %d fresh events, want 657 and 1728: a change that moves the event order moves these, and says so", a.misses, a.fresh)
	}
	perFrame := float64(a.misses+a.fresh) / float64(12000+1500)
	t.Logf("%d pool misses, %d fresh events over %d events: %.2f objects per frame", a.misses, a.fresh, a.events, perFrame)
	if perFrame > 0.5 {
		t.Fatalf("%.2f buffers, packets and events allocated per frame; the leased path should need well under one", perFrame)
	}
}

// TestDrainedWorldRetainsAtMost64KB: the free lists are bounded, so
// once its traffic has landed a world keeps at most 64 KB of idle
// buffers, packets and events however busy it was.
func TestDrainedWorldRetainsAtMost64KB(t *testing.T) {
	r := runLeaseWorld(t)
	if r.retained == 0 || r.retained > 64<<10 {
		t.Fatalf("drained world retains %d bytes in its free lists, want (0, 64 KB]", r.retained)
	}
	t.Logf("drained world retains %d bytes", r.retained)
}

// TestLeaseReleasedOnEveryDropPath pushes leased payloads down every way
// a packet or frame can die short of delivery, then ends connections in
// every way one can end, and checks, path by path, that the world's
// count of outstanding leases returns to zero — with the pool poisoned
// (TestMain), so a path that released twice would panic instead.
func TestLeaseReleasedOnEveryDropPath(t *testing.T) {
	w, err := Build(3, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Eng.Stop()
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	pool := w.Net.Pool()
	m0, m1 := w.Machines[0], w.Machines[1]
	src, dst := m0.Dom0(), m1.Dom0()
	delivered := 0
	if _, err := dst.BindUDP(7000, func(ipstack.Datagram) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	tx, err := src.BindUDP(7000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// overlay sends n datagrams through the whole frame path: stack,
	// bridge, WAV-Switch, egress batch, LAN, NAT, WAN.
	overlay := func(to netsim.IP, n int) {
		for i := 0; i < n; i++ {
			if err := tx.SendTo(netsim.Addr{IP: to, Port: 7000}, make([]byte, 1200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// wire sends one leased payload straight from a substrate socket.
	wire := func(from *netsim.Host, to netsim.Addr) {
		s, err := from.BindUDP(4999, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		b := pool.Get(1200)
		s.SendLease(to, b, b.Data[:1200])
		b.Release()
	}
	stranger := w.Net.NewPublicHost("stranger", w.Hub, netsim.MustParseIP("50.9.9.9"), 1e9, 100*time.Microsecond)
	settle := func(name string) {
		for i := 0; i < 10000 && pool.Leased() != 0; i++ {
			w.Eng.RunFor(time.Millisecond)
		}
		if n := pool.Leased(); n != 0 {
			t.Fatalf("%s: %d leases never came back", name, n)
		}
	}
	overlay(dst.IP(), 1)
	settle("delivery")
	if delivered != 1 {
		t.Fatalf("warm-up datagram not delivered")
	}

	siteA, siteB := m0.GW.Host().Site(), m1.GW.Host().Site()
	vifSeen := 0
	var paused *ipstack.Stack
	cases := []struct {
		name    string
		provoke func()
		hits    func() uint64
	}{
		{"no_socket", func() { wire(stranger, netsim.Addr{IP: w.Rdv.Addr().IP, Port: 9}) },
			func() uint64 { return w.Net.HostByIP(w.Rdv.Addr().IP).NoSocketDrops }},
		{"no_route", func() { wire(m0.Phys, netsim.Addr{IP: netsim.MustParseIP("9.9.9.9"), Port: 9}) },
			func() uint64 { return w.Net.NoRoute }},
		{"nat_refusal", func() { wire(stranger, netsim.Addr{IP: m1.GW.PublicIP(), Port: 9}) },
			func() uint64 { return m1.GW.NoMapDrops + m1.GW.FilteredDrops }},
		{"partition", func() {
			w.Net.Partition(siteA, siteB)
			overlay(dst.IP(), 4)
			w.Eng.RunFor(100 * time.Millisecond)
			w.Net.Heal(siteA, siteB)
		}, func() uint64 { return w.Net.PartitionDrops }},
		{"queue_overflow", func() { overlay(dst.IP(), 400) }, // 480 KB at once against 256 KB queues
			func() uint64 { return w.Net.QueueDrops }},
		{"wan_loss", func() {
			w.Net.LossRate = 1
			overlay(dst.IP(), 4)
			w.Eng.RunFor(100 * time.Millisecond)
			w.Net.LossRate = 0
		}, func() uint64 { return w.Net.LostWAN }},
		{"dead_bridge_port", func() {
			vif := m0.WAV.AttachVIF("doomed")
			vif.SetRecv(func(*ether.Frame) { vifSeen++ })
			overlay(netsim.BroadcastIP, 1) // flooded: one delivery is in flight to the vif
			m0.WAV.DetachVIF(vif)
		}, func() uint64 { return m0.WAV.Bridge().Flooded }},
		{"arp_give_up", func() { overlay(netsim.MustParseIP("10.1.0.200"), 70) }, // 64 queue, 6 overflow, nobody answers
			func() uint64 { return src.Drops }},
		{"detached_nic", func() {
			paused = ipstack.New(w.Eng, "paused", nil, ether.SeqMAC(0xfffe), netsim.MustParseIP("10.1.0.201"), ipstack.Config{Pool: pool})
			s, err := paused.BindUDP(9, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SendTo(netsim.Addr{IP: netsim.BroadcastIP, Port: 9}, []byte("into the void")); err != nil {
				t.Fatal(err)
			}
		}, func() uint64 { return paused.Drops }},
	}
	for _, c := range cases {
		var before uint64
		if c.name != "detached_nic" {
			before = c.hits()
		}
		c.provoke()
		settle(c.name)
		if c.hits() == before {
			t.Errorf("%s: the drop path was not exercised", c.name)
		}
	}
	if vifSeen != 0 || src.Drops < 70 {
		t.Fatalf("unplugged vif saw %d frames, stack dropped %d of 70 unresolvable datagrams", vifSeen, src.Drops)
	}
	// The world still works after all that.
	overlay(dst.IP(), 1)
	settle("delivery after the drops")
	if delivered < 2 {
		t.Fatal("no delivery after the drop paths were exercised")
	}

	// Every way a connection ends. Its rings are leases too: once both
	// ends are gone from their stacks, nothing of it is out.
	lis, err := dst.Listen(6000)
	if err != nil {
		t.Fatal(err)
	}
	var serve func(p *sim.Proc, c *ipstack.Conn) // what the next accepted connection's server does
	var accepted *ipstack.Conn
	w.Eng.Spawn("accept", func(p *sim.Proc) {
		for {
			c, err := lis.Accept(p)
			if err != nil {
				return
			}
			accepted = c
			w.Eng.Spawn("serve", func(p *sim.Proc) { serve(p, c) })
		}
	})
	settleConns := func(name string) {
		t.Helper()
		busy := func() bool { return pool.Leased() != 0 || len(src.Conns())+len(dst.Conns()) != 0 }
		for i := 0; i < 10000 && busy(); i++ {
			w.Eng.RunFor(time.Millisecond)
		}
		if busy() {
			t.Fatalf("%s: %d leases out, %d + %d connections left", name, pool.Leased(), len(src.Conns()), len(dst.Conns()))
		}
	}
	drain := func(p *sim.Proc, c *ipstack.Conn) (n int, err error) {
		buf := make([]byte, 4096)
		for err == nil {
			var k int
			k, err = c.Read(p, buf)
			n += k
		}
		return n, err
	}
	pause := func() func() { // dst goes deaf, as a paused VM does, while every tunnel stays up
		nic := dst.NIC()
		dst.SetNIC(nil)
		return func() { dst.SetNIC(nic) }
	}
	reply := bytes.Repeat([]byte("unread "), 700)
	ends := []struct {
		name   string
		port   uint16
		budget time.Duration
		server func(p *sim.Proc, c *ipstack.Conn)
		client func(p *sim.Proc, c *ipstack.Conn, dialErr error) error // nil when it ended as it should
	}{
		{"fin_client_first", 6000, 5 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { drain(p, c); c.Close() },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				c.Write(p, reply)
				c.Close()
				_, err := drain(p, c)
				return unless(err, io.EOF)
			}},
		{"fin_server_first", 6000, 5 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { c.Write(p, reply); c.Close(); drain(p, c) },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				n, err := drain(p, c)
				c.Close()
				if n != len(reply) {
					return fmt.Errorf("read %d of %d bytes", n, len(reply))
				}
				return unless(err, io.EOF)
			}},
		{"abort", 6000, 5 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { drain(p, c) },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				c.Write(p, reply)
				p.Sleep(10 * time.Millisecond)
				c.Abort()
				return unless(c.Err(), ipstack.ErrConnReset)
			}},
		{"peer_rst", 6000, 5 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { c.Write(p, reply); c.Abort() },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				p.Sleep(10 * time.Millisecond)
				_, err := drain(p, c)
				return unless(err, ipstack.ErrConnReset)
			}},
		{"syn_refused", 6001, 5 * time.Second, nil,
			func(_ *sim.Proc, _ *ipstack.Conn, dialErr error) error { return unless(dialErr, ipstack.ErrRefused) }},
		{"syn_timeout", 6000, 200 * time.Second, nil, // dst is paused: six SYNs, backed off, then give up
			func(_ *sim.Proc, _ *ipstack.Conn, dialErr error) error { return unless(dialErr, ipstack.ErrRefused) }},
		{"rto_give_up", 6000, 600 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { drain(p, c) },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				p.Sleep(10 * time.Millisecond) // accepted by now
				resume := pause()
				c.Write(p, reply) // twelve retransmissions into the void
				_, err := drain(p, c)
				resume()
				if accepted.State() != "ESTABLISHED" {
					return fmt.Errorf("server end is %s, want it left half-open", accepted.State())
				}
				accepted.Abort()
				return unless(err, ipstack.ErrConnTimeout)
			}},
		{"close_with_unread_data", 6000, 10 * time.Second,
			func(p *sim.Proc, c *ipstack.Conn) { c.Write(p, reply); c.Close(); drain(p, c) },
			func(p *sim.Proc, c *ipstack.Conn, _ error) error {
				c.Close()
				for c.State() != "CLOSED" {
					p.Sleep(100 * time.Millisecond)
				}
				if n := pool.Leased(); n != 0 {
					return fmt.Errorf("closed with %d leases out", n)
				}
				got := make([]byte, len(reply)+1)
				n, _ := c.ReadFull(p, got)
				if !bytes.Equal(got[:n], reply) {
					return fmt.Errorf("read back %d bytes after close, want the %d sent", n, len(reply))
				}
				return nil
			}},
	}
	for _, e := range ends {
		serve = e.server
		var resume func()
		if e.name == "syn_timeout" {
			resume = pause()
		}
		var verdict error
		done := false
		w.Eng.Spawn(e.name, func(p *sim.Proc) {
			c, err := src.Dial(p, netsim.Addr{IP: dst.IP(), Port: e.port})
			verdict = e.client(p, c, err)
			done = true
		})
		for end := w.Eng.Now().Add(e.budget); !done && w.Eng.Now() < end; {
			w.Eng.RunFor(100 * time.Millisecond)
		}
		if resume != nil {
			resume()
		}
		if !done || verdict != nil {
			t.Fatalf("%s: finished %v: %v", e.name, done, verdict)
		}
		settleConns(e.name)
	}

	// A connection reset while its out-of-order stash holds segments: a
	// burst of WAN loss opens a hole in a bulk transfer, the segments
	// behind it are stashed, and a partition then freezes that state long
	// enough to see it — two rings out, and the stash's leases on top.
	serve = func(p *sim.Proc, c *ipstack.Conn) { drain(p, c) }
	var bulkErr error
	w.Eng.Spawn("bulk", func(p *sim.Proc) {
		c, err := src.Dial(p, netsim.Addr{IP: dst.IP(), Port: 6000})
		if err != nil {
			bulkErr = err
			return
		}
		c.Write(p, make([]byte, 8<<20))
		_, bulkErr = drain(p, c)
	})
	w.Eng.RunFor(100 * time.Millisecond)
	w.Net.LossRate = 1
	w.Eng.RunFor(200 * time.Microsecond)
	w.Net.LossRate = 0
	w.Eng.RunFor(1500 * time.Microsecond)
	w.Net.Partition(siteA, siteB)
	w.Eng.RunFor(50 * time.Millisecond)
	if n := pool.Leased(); n <= 2 {
		t.Fatalf("out-of-order stash: %d leases out at the freeze, want the two rings and a stash", n)
	}
	accepted.Abort()
	w.Net.Heal(siteA, siteB)
	settleConns("reset with a non-empty out-of-order stash")
	if bulkErr != ipstack.ErrConnReset {
		t.Fatalf("bulk sender saw %v, want %v", bulkErr, ipstack.ErrConnReset)
	}

	// A listener closed over a backlog: two connections established and
	// holding data that nobody will ever accept.
	lis.Close()
	lis2, err := dst.Listen(6002)
	if err != nil {
		t.Fatal(err)
	}
	var orphanErrs [2]error
	for i := range orphanErrs {
		i := i
		w.Eng.Spawn("orphan", func(p *sim.Proc) {
			c, err := src.Dial(p, netsim.Addr{IP: dst.IP(), Port: 6002})
			if err != nil {
				orphanErrs[i] = err
				return
			}
			c.Write(p, reply)
			_, orphanErrs[i] = drain(p, c)
		})
	}
	w.Eng.RunFor(time.Second)
	if len(dst.Conns()) != 2 || pool.Leased() == 0 {
		t.Fatalf("backlog: %d connections queued holding %d leases", len(dst.Conns()), pool.Leased())
	}
	lis2.Close()
	settleConns("listener closed over a backlog")
	for _, err := range orphanErrs {
		if err != ipstack.ErrConnReset {
			t.Fatalf("orphaned client saw %v, want %v", err, ipstack.ErrConnReset)
		}
	}
	overlay(dst.IP(), 1)
	settle("delivery after the connections")
	if delivered < 3 {
		t.Fatal("no delivery after the connection endings were exercised")
	}
}

// unless returns nil when got is the error a case expects.
func unless(got, want error) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("ended with %v, want %v", got, want)
}
