package ipstack

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// poisoned is the configuration every stack in these tests runs with:
// its own buffer pool in poison mode, so a payload read after its last
// Release is 0xDB garbage (the transfer tests check content) and a
// second Release panics.
func poisoned() Config {
	pool := netsim.NewPool()
	pool.SetPoison(true)
	return Config{Pool: pool}
}

// twoStacks wires two stacks over a LinkPipe with the given rate/delay.
func twoStacks(seed int64, rateBps float64, delay sim.Duration) (*sim.Engine, *Stack, *Stack) {
	eng := sim.NewEngine(seed)
	pipe := ether.NewLinkPipe(eng, rateBps, delay, 0)
	a := New(eng, "a", pipe.A, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), poisoned())
	b := New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), poisoned())
	return eng, a, b
}

func TestHeaderRoundTrips(t *testing.T) {
	// Every put* must write each header byte: encode into dirty buffers
	// and look for what is left of the dirt.
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xDB}, n) }
	clean := func(name string, hdr []byte) {
		t.Helper()
		if bytes.IndexByte(hdr, 0xDB) >= 0 {
			t.Fatalf("%s header left dirty bytes: % x", name, hdr)
		}
	}
	ip := &ipv4Header{TotalLen: IPHeaderLen + 4, TTL: 64, Proto: ProtoTCP, Src: netsim.MustParseIP("1.2.3.4"), Dst: netsim.MustParseIP("5.6.7.8")}
	b := dirty(IPHeaderLen + 4)
	putIPv4(b, ip)
	clean("ipv4", b[:IPHeaderLen])
	copy(b[IPHeaderLen:], "data")
	h, payload, err := unmarshalIPv4(b)
	if err != nil || h.Src != ip.Src || h.Dst != ip.Dst || h.Proto != ProtoTCP || string(payload) != "data" {
		t.Fatalf("ipv4 round trip: %+v %q %v", h, payload, err)
	}
	seg := &tcpSegment{SrcPort: 80, DstPort: 8080, Seq: 42, Ack: 17, Flags: flagACK | flagPSH, Wnd: 1 << 20,
		Payload: []byte("xy"), More: []byte("z")}
	seg.addSACK(100, 200)
	b = dirty(seg.wireLen())
	putTCP(b, seg)
	clean("tcp", b)
	var got tcpSegment
	err = unmarshalTCP(&got, b)
	if err != nil || got.SrcPort != 80 || got.Seq != 42 || got.Ack != 17 || !got.has(flagPSH) ||
		got.Wnd != 1<<20 || string(got.Payload) != "xyz" || len(got.SACK()) != 1 || got.SACK()[0] != [2]uint32{100, 200} {
		t.Fatalf("tcp round trip: %+v %v", got, err)
	}
	b = dirty(UDPHeaderLen + 1)
	putUDP(b, 53, 5353, 1)
	clean("udp", b[:UDPHeaderLen])
	b[UDPHeaderLen] = 'q'
	u, data, err := unmarshalUDP(b)
	if err != nil || u.Src != 53 || u.Dst != 5353 || string(data) != "q" {
		t.Fatalf("udp round trip: %+v %v", u, err)
	}
	b = dirty(ICMPHeaderLen + 1)
	putICMP(b, ICMPEchoRequest, 7, 9)
	clean("icmp", b[:ICMPHeaderLen])
	b[ICMPHeaderLen] = 'p'
	ic, err := unmarshalICMP(b)
	if err != nil || ic.ID != 7 || ic.Seq != 9 || string(ic.Data) != "p" {
		t.Fatalf("icmp round trip: %+v %v", ic, err)
	}
}

func TestPropertyCodecsNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		var seg tcpSegment
		unmarshalIPv4(b)
		unmarshalTCP(&seg, b)
		unmarshalUDP(b)
		unmarshalICMP(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xFFFFFFF0, 0x10) {
		t.Fatal("wraparound comparison failed")
	}
	if seqGT(5, 5) || !seqGEQ(5, 5) || !seqLEQ(5, 5) {
		t.Fatal("equality comparisons wrong")
	}
	if seqMax(0xFFFFFFF0, 0x10) != 0x10 {
		t.Fatal("seqMax ignores wraparound")
	}
}

func TestPingRTT(t *testing.T) {
	eng, a, b := twoStacks(1, 0, 10*time.Millisecond)
	_ = b
	var rtt sim.Duration
	var err error
	eng.Spawn("ping", func(p *sim.Proc) {
		rtt, err = a.Ping(p, netsim.MustParseIP("10.0.0.2"), 56, 5*time.Second)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// First ping pays ARP resolution: RTT still equals 2×delay because
	// the queued packet flushes immediately on reply... ARP adds one
	// round trip before the ICMP one.
	if rtt < 20*time.Millisecond || rtt > 45*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
	// Second ping uses the cache: exactly 20ms.
	eng.Spawn("ping2", func(p *sim.Proc) {
		rtt, err = a.Ping(p, netsim.MustParseIP("10.0.0.2"), 56, 5*time.Second)
	})
	eng.Run()
	if err != nil || rtt != 20*time.Millisecond {
		t.Fatalf("cached-ARP rtt = %v err=%v", rtt, err)
	}
}

func TestPingTimeout(t *testing.T) {
	eng, a, _ := twoStacks(2, 0, time.Millisecond)
	var err error
	eng.Spawn("ping", func(p *sim.Proc) {
		_, err = a.Ping(p, netsim.MustParseIP("10.0.0.99"), 56, 100*time.Millisecond)
	})
	eng.Run()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestGratuitousARPUpdatesCache(t *testing.T) {
	eng := sim.NewEngine(3)
	br := ether.NewBridge(eng, "br", time.Microsecond)
	a := New(eng, "a", br.AddPort("p0"), ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), poisoned())
	b := New(eng, "b", br.AddPort("p1"), ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), poisoned())
	eng.Spawn("ping", func(p *sim.Proc) {
		if _, err := a.Ping(p, b.IP(), 8, time.Second); err != nil {
			t.Errorf("ping: %v", err)
		}
	})
	eng.Run()
	// A "new host" claims b's IP with a different MAC via gratuitous ARP.
	c := New(eng, "c", br.AddPort("p2"), ether.SeqMAC(3), netsim.MustParseIP("10.0.0.2"), poisoned())
	_ = c
	c.AnnounceGratuitousARP()
	eng.Run()
	if mac, ok := a.arp.lookup(netsim.MustParseIP("10.0.0.2")); !ok || mac != ether.SeqMAC(3) {
		t.Fatalf("gratuitous ARP did not update cache: %v %v", mac, ok)
	}
}

// TestUDPSendRecv: an echo over two handler sockets, and a socket bound
// without a handler counts what reaches it and drops it.
func TestUDPSendRecv(t *testing.T) {
	eng, a, b := twoStacks(4, 0, 5*time.Millisecond)
	var got, reply string
	var srv *UDPSock
	srv, err := b.BindUDP(9000, func(d Datagram) {
		got = string(d.Payload)
		srv.SendTo(d.From, append([]byte("re:"), d.Payload...))
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := a.BindUDP(0, func(d Datagram) { reply = string(d.Payload) })
	cli.SendTo(netsim.Addr{IP: b.IP(), Port: 9000}, []byte("hello"))
	mute, _ := b.BindUDP(9001, nil)
	cli.SendTo(mute.Addr(), []byte("unread"))
	eng.Run()
	if got != "hello" || reply != "re:hello" {
		t.Fatalf("udp exchange: %q %q", got, reply)
	}
	if cli.In != 1 || srv.In != 1 || mute.In != 1 || b.Drops != 0 {
		t.Fatalf("In: client %d, server %d, handler-less %d, stack drops %d; want 1, 1, 1, 0",
			cli.In, srv.In, mute.In, b.Drops)
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	_, a, _ := twoStacks(5, 0, time.Millisecond)
	s, _ := a.BindUDP(0, nil)
	if err := s.SendTo(netsim.Addr{IP: netsim.MustParseIP("10.0.0.2"), Port: 1}, make([]byte, 5000)); err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestTCPConnectTransferClose(t *testing.T) {
	eng, a, b := twoStacks(6, 0, 5*time.Millisecond)
	msg := []byte("the quick brown fox jumps over the lazy dog")
	var served []byte
	var srvErr error
	eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.Listen(8080)
		if err != nil {
			srvErr = err
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 1024)
		for {
			n, err := c.Read(p, buf)
			served = append(served, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				srvErr = err
				return
			}
		}
		c.Write(p, []byte("ok"))
		c.Close()
	})
	var reply []byte
	var cliErr error
	eng.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 8080})
		if err != nil {
			cliErr = err
			return
		}
		c.Write(p, msg)
		c.Close()
		buf := make([]byte, 64)
		for {
			n, err := c.Read(p, buf)
			reply = append(reply, buf[:n]...)
			if err != nil {
				break
			}
		}
	})
	eng.Run()
	if srvErr != nil || cliErr != nil {
		t.Fatalf("errors: server=%v client=%v", srvErr, cliErr)
	}
	if !bytes.Equal(served, msg) {
		t.Fatalf("server got %q", served)
	}
	if string(reply) != "ok" {
		t.Fatalf("client got %q", reply)
	}
}

func TestTCPRefusedPort(t *testing.T) {
	eng, a, b := twoStacks(7, 0, time.Millisecond)
	var err error
	eng.Spawn("client", func(p *sim.Proc) {
		_, err = a.Dial(p, netsim.Addr{IP: b.IP(), Port: 1234})
	})
	eng.Run()
	if err != ErrRefused {
		t.Fatalf("err = %v, want refused", err)
	}
}

// transfer runs a bulk one-way transfer of total bytes and returns the
// virtual time it took.
func transfer(t *testing.T, seed int64, rateBps float64, delay sim.Duration, total int, lossRate float64) sim.Duration {
	return transferQueued(t, seed, rateBps, delay, total, lossRate, 64<<10)
}

func transferQueued(t *testing.T, seed int64, rateBps float64, delay sim.Duration, total int, lossRate float64, queue int) sim.Duration {
	t.Helper()
	eng := sim.NewEngine(seed)
	pipe := ether.NewLinkPipe(eng, rateBps, delay, queue)
	var nicA ether.NIC = pipe.A
	if lossRate > 0 {
		nicA = ether.Impair(pipe.A, lossRate, eng.Rand())
	}
	a := New(eng, "a", nicA, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), poisoned())
	b := New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), poisoned())

	var done sim.Time
	var rxBytes int
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(5001)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(p, buf)
			rxBytes += n
			if err != nil {
				break
			}
		}
		done = p.Now()
	})
	eng.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 5001})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		chunk := make([]byte, 16384)
		sent := 0
		for sent < total {
			n := total - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			c.Write(p, chunk[:n])
			sent += n
		}
		c.Close()
	})
	eng.Run()
	if rxBytes != total {
		t.Fatalf("received %d of %d bytes", rxBytes, total)
	}
	return done.Sub(0)
}

func TestTCPBulkThroughputNearLineRate(t *testing.T) {
	// 10 Mbps link, 10 ms one-way: 4 MB should take ≈ 3.4 s (goodput
	// ratio ≈ 1416/1498 ≈ 0.95 of line rate).
	total := 4 << 20
	elapsed := transfer(t, 8, 10e6, 10*time.Millisecond, total, 0)
	mbps := float64(total) * 8 / elapsed.Seconds() / 1e6
	if mbps < 8.5 || mbps > 10 {
		t.Fatalf("goodput %.2f Mbps over a 10 Mbps link", mbps)
	}
}

func TestTCPLongFatPipe(t *testing.T) {
	// 50 Mbps with 100 ms one-way (BDP = 1.25 MB) needs a large window;
	// with a BDP-scaled router buffer our 1 MB windows should reach at
	// least half of line rate despite Reno sawtooth dynamics.
	total := 24 << 20
	elapsed := transferQueued(t, 9, 50e6, 100*time.Millisecond, total, 0, 512<<10)
	mbps := float64(total) * 8 / elapsed.Seconds() / 1e6
	if mbps < 25 {
		t.Fatalf("goodput %.2f Mbps over 50 Mbps × 200 ms RTT", mbps)
	}
}

func TestTCPSurvivesLoss(t *testing.T) {
	// 2% frame loss: the transfer must complete correctly (retransmits),
	// at reduced but nonzero throughput.
	total := 1 << 20
	elapsed := transfer(t, 10, 10e6, 5*time.Millisecond, total, 0.02)
	mbps := float64(total) * 8 / elapsed.Seconds() / 1e6
	if mbps < 1 {
		t.Fatalf("goodput %.2f Mbps under 2%% loss", mbps)
	}
}

func TestTCPFlowControlSlowReader(t *testing.T) {
	eng, a, b := twoStacks(11, 0, time.Millisecond)
	total := 3 << 20
	var rx int
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(5001)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 32<<10)
		for {
			// Read slowly: 32 KB every 50 ms ≈ 5.2 Mbps ceiling.
			p.Sleep(50 * time.Millisecond)
			n, err := c.ReadFull(p, buf)
			rx += n
			if err != nil {
				break
			}
		}
	})
	var sendDone sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		c, _ := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 5001})
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			c.Write(p, chunk)
		}
		c.Close()
		sendDone = p.Now()
	})
	eng.Run()
	if rx != total {
		t.Fatalf("reader got %d of %d", rx, total)
	}
	// The writer must have been throttled by flow control: with 2 MB of
	// buffers in the path, a 3 MB send can't finish before the reader
	// has consumed at least ~1 MB (≈ 1.6 s at the reader's pace).
	if sendDone < sim.Time(time.Second) {
		t.Fatalf("writer finished at %v; flow control absent", sendDone)
	}
}

func TestTCPBidirectional(t *testing.T) {
	eng, a, b := twoStacks(12, 100e6, 2*time.Millisecond)
	total := 256 << 10
	check := func(c *Conn, p *sim.Proc, name string) {
		chunk := make([]byte, 8192)
		rx, tx := 0, 0
		buf := make([]byte, 8192)
		for tx < total {
			c.Write(p, chunk)
			tx += len(chunk)
			n, err := c.Read(p, buf)
			rx += n
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
		}
		for rx < total {
			n, err := c.Read(p, buf)
			rx += n
			if err != nil && rx < total {
				t.Errorf("%s rx=%d: %v", name, rx, err)
				return
			}
		}
	}
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(7000)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		check(c, p, "server")
	})
	eng.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 7000})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		check(c, p, "client")
	})
	eng.Run()
}

func TestTCPResetOnAbort(t *testing.T) {
	eng, a, b := twoStacks(13, 0, time.Millisecond)
	var readErr error
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(8000)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		_, readErr = c.Read(p, buf)
	})
	eng.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 8000})
		if err != nil {
			return
		}
		p.Sleep(50 * time.Millisecond)
		c.Abort()
	})
	eng.Run()
	if readErr != ErrConnReset {
		t.Fatalf("read err = %v, want reset", readErr)
	}
}

func TestTCPManyParallelConns(t *testing.T) {
	eng, a, b := twoStacks(14, 100e6, 2*time.Millisecond)
	const n = 20
	perConn := 128 << 10
	got := make([]int, n)
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(80)
		for i := 0; i < n; i++ {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			i := i
			eng.Spawn("srv-conn", func(p *sim.Proc) {
				buf := make([]byte, 32<<10)
				for {
					nn, err := c.Read(p, buf)
					got[i] += nn
					if err != nil {
						return
					}
				}
			})
		}
	})
	for i := 0; i < n; i++ {
		eng.Spawn("client", func(p *sim.Proc) {
			c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 80})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			chunk := make([]byte, 16384)
			for sent := 0; sent < perConn; sent += len(chunk) {
				c.Write(p, chunk)
			}
			c.Close()
		})
	}
	eng.Run()
	for i, g := range got {
		if g != perConn {
			t.Fatalf("conn %d received %d of %d", i, g, perConn)
		}
	}
}

func TestTCPDataIntegrityUnderLoss(t *testing.T) {
	// Patterned payload must arrive intact and in order despite loss.
	eng := sim.NewEngine(15)
	pipe := ether.NewLinkPipe(eng, 20e6, 5*time.Millisecond, 0)
	lossy := ether.Impair(pipe.A, 0.03, eng.Rand())
	a := New(eng, "a", lossy, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), poisoned())
	b := New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), poisoned())
	total := 512 << 10
	pattern := func(i int) byte { return byte(i*31 + i>>8) }
	var bad bool
	var rx int
	eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.Listen(5001)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(p, buf)
			for i := 0; i < n; i++ {
				if buf[i] != pattern(rx+i) {
					bad = true
				}
			}
			rx += n
			if err != nil {
				return
			}
		}
	})
	eng.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 5001})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		chunk := make([]byte, 8192)
		for sent := 0; sent < total; sent += len(chunk) {
			for i := range chunk {
				chunk[i] = pattern(sent + i)
			}
			c.Write(p, chunk)
		}
		c.Close()
	})
	eng.Run()
	if rx != total || bad {
		t.Fatalf("integrity: rx=%d bad=%v", rx, bad)
	}
}

func TestStackDetachDropsTraffic(t *testing.T) {
	eng, a, b := twoStacks(16, 0, time.Millisecond)
	var err1, err2 error
	eng.Spawn("pings", func(p *sim.Proc) {
		_, err1 = a.Ping(p, b.IP(), 8, time.Second)
		b.SetNIC(nil) // detach (VM paused)
		_, err2 = a.Ping(p, b.IP(), 8, 500*time.Millisecond)
	})
	eng.Run()
	if err1 != nil {
		t.Fatalf("pre-detach ping failed: %v", err1)
	}
	if err2 != ErrTimeout {
		t.Fatalf("post-detach ping err = %v, want timeout", err2)
	}
}
