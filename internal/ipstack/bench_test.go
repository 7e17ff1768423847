package ipstack

import (
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// BenchmarkConnChurn is the connection-churn allocation budget
// (ALLOC_BUDGET): eight clients on one stack each open a connection to
// the other, send 16 bytes, read 8 KiB back and close, over and over,
// with a proc spawned per accepted connection. One op is one request.
// What an op may allocate is the two Conns, the serving proc and its
// body; buffers are leases, timers and wait queues are part of the Conn.
func BenchmarkConnChurn(b *testing.B) {
	const clients, reqLen, respLen = 8, 16, 8 << 10
	eng := sim.NewEngine(1)
	defer eng.Stop()
	pipe := ether.NewPipe(eng, 50*time.Microsecond)
	pool := netsim.NewPool()
	cli := New(eng, "cli", pipe.A, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), Config{Pool: pool})
	srv := New(eng, "srv", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), Config{Pool: pool})
	lis, err := srv.Listen(80)
	if err != nil {
		b.Fatal(err)
	}
	resp := make([]byte, respLen)
	done, failed := 0, 0
	eng.Spawn("accept", func(p *sim.Proc) {
		for {
			c, err := lis.Accept(p)
			if err != nil {
				return
			}
			eng.Spawn("serve", func(p *sim.Proc) {
				var req [reqLen]byte
				if _, err := c.ReadFull(p, req[:]); err != nil {
					c.Abort()
					return
				}
				c.Write(p, resp)
				c.Close()
				c.Read(p, req[:1]) // until the client has closed too
			})
		}
	})
	for k := 0; k < clients; k++ {
		stagger := time.Duration(k) * 37 * time.Microsecond
		eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(stagger) // out of step, or every buffer is idle at once between rounds
			req, got := make([]byte, reqLen), make([]byte, respLen)
			for {
				c, err := cli.Dial(p, netsim.Addr{IP: srv.IP(), Port: 80})
				if err != nil {
					failed++
					return
				}
				c.Write(p, req)
				if n, _ := c.ReadFull(p, got); n != respLen {
					failed++
				}
				c.Close()
				done++
			}
		})
	}
	run := func(n int) {
		for target := done + n; done < target && failed == 0; {
			if !eng.Step() {
				b.Fatal("the world ran dry")
			}
		}
	}
	// Past ARP, the first carriers and the free lists' high-water mark,
	// and long enough for TIME_WAIT connections to be expiring as fast as
	// new ones arrive.
	run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if failed != 0 {
		b.Fatalf("%d requests failed", failed)
	}
}
