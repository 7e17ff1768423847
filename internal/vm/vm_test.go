package vm

import (
	"errors"
	"io"
	"testing"
	"time"

	"wavnet/internal/core"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// testWorld: rendezvous + three WAVNet hosts (NATed) fully meshed, with
// dom0 stacks 10.0.0.1-3.
type testWorld struct {
	eng   *sim.Engine
	nw    *netsim.Network
	hosts []*core.Host
}

func buildWorld(t *testing.T, seed int64, rates []float64, rtts []sim.Duration) *testWorld {
	t.Helper()
	w := &testWorld{eng: sim.NewEngine(seed)}
	w.nw = netsim.New(w.eng)
	hub := w.nw.NewSite("hub")
	rdvHost := w.nw.NewPublicHost("rdv", hub, netsim.MustParseIP("50.0.0.1"), 0, time.Millisecond)
	rdv, err := rendezvous.NewServer(rdvHost, netsim.MustParseIP("50.0.0.2"), rendezvous.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rdv.Bootstrap()

	for i := range rates {
		site := w.nw.NewSite("s")
		w.nw.SetRTT(hub, site, rtts[i])
		for j := 1; j <= i; j++ {
			w.nw.SetRTT(w.nw.Sites()[j], site, rtts[i]+rtts[j-1])
		}
		gw := w.nw.NewPublicHost("gw", site, netsim.MakeIP(60, byte(i+1), 0, 1), rates[i], 100*time.Microsecond)
		lan := w.nw.NewLan("lan", site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MustParseIP("192.168.0.1"))
		nat.Attach(gw, nat.FullCone)
		phys := lan.NewHost("pc", netsim.MustParseIP("192.168.0.2"))
		h, err := core.NewHost(phys, "h"+string(rune('0'+i)), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		w.hosts = append(w.hosts, h)
	}
	errs := make([]error, len(w.hosts))
	for i, h := range w.hosts {
		i, h := i, h
		w.eng.Spawn("join", func(p *sim.Proc) {
			if errs[i] = h.Join(p, rdv.Addr()); errs[i] != nil {
				return
			}
			h.CreateDom0(netsim.MakeIP(10, 0, 0, byte(i+1)))
		})
	}
	w.eng.RunFor(30 * time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d join: %v", i, err)
		}
	}
	// Full mesh.
	done := 0
	want := 0
	for i := range w.hosts {
		for j := i + 1; j < len(w.hosts); j++ {
			i, j := i, j
			want++
			w.eng.Spawn("mesh", func(p *sim.Proc) {
				if _, err := w.hosts[i].ConnectTo(p, w.hosts[j].Name()); err != nil {
					t.Errorf("connect %d-%d: %v", i, j, err)
				}
				done++
			})
		}
	}
	w.eng.RunFor(30 * time.Second)
	if done != want {
		t.Fatalf("mesh incomplete: %d/%d", done, want)
	}
	return w
}

func TestMigrationMovesVMAndPreservesConnectivity(t *testing.T) {
	w := buildWorld(t, 1,
		[]float64{100e6, 100e6, 100e6},
		[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
	v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"), Config{MemoryMB: 64})
	var before, after sim.Duration
	var rep *MigrationReport
	var err error
	w.eng.Spawn("driver", func(p *sim.Proc) {
		// Third party pings the VM at its original host.
		obs := w.hosts[2].Dom0()
		obs.Ping(p, v.IP(), 56, 5*time.Second)
		before, err = obs.Ping(p, v.IP(), 56, 5*time.Second)
		if err != nil {
			return
		}
		rep, err = v.Migrate(p, w.hosts[1])
		if err != nil {
			return
		}
		p.Sleep(time.Second)
		// Ping again: must reach the VM at its new host without manual
		// reconfiguration (gratuitous ARP re-pointed the switches).
		after, err = obs.Ping(p, v.IP(), 56, 5*time.Second)
	})
	w.eng.RunFor(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if v.Host() != w.hosts[1] {
		t.Fatal("VM host not updated")
	}
	if rep.Downtime <= 0 || rep.Downtime > 5*time.Second {
		t.Fatalf("downtime = %v", rep.Downtime)
	}
	if rep.Rounds < 2 {
		t.Fatalf("rounds = %d, want pre-copy iterations", rep.Rounds)
	}
	if rep.BytesSent < int64(64<<20) {
		t.Fatalf("bytes sent %d < image size", rep.BytesSent)
	}
	if before <= 0 || after <= 0 {
		t.Fatalf("pings: before=%v after=%v", before, after)
	}
	// Host2 is nearer host1 (8+12? hub spokes: h2->h0 = 12+5=17ms,
	// h2->h1 = 12+8=20ms)... just require both pings sane.
	_ = after
	// The cumulative statistics agree with the report.
	if v.MigrationsDone != 1 || v.Aborts != 0 {
		t.Fatalf("migrations=%d aborts=%d: want 1, 0", v.MigrationsDone, v.Aborts)
	}
	if v.Rounds != uint64(rep.Rounds) {
		t.Fatalf("rounds=%d, report says %d", v.Rounds, rep.Rounds)
	}
	if v.PagesCopied < uint64(64<<20/4096) {
		t.Fatalf("pages_copied=%d < image pages", v.PagesCopied)
	}
	if v.DowntimeUs == 0 {
		t.Fatal("downtime_us=0 after a stop-and-copy")
	}
}

func TestTCPSessionSurvivesMigration(t *testing.T) {
	w := buildWorld(t, 2,
		[]float64{100e6, 100e6, 100e6},
		[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
	v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"), Config{MemoryMB: 32})

	total := 2 << 20
	received := 0
	var srvErr, sendErr, migErr error
	// VM runs a sink server.
	w.eng.Spawn("vm-server", func(p *sim.Proc) {
		l, _ := v.Stack().Listen(5001)
		c, err := l.Accept(p)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(p, buf)
			received += n
			if err == io.EOF {
				return
			}
			if err != nil {
				srvErr = err
				return
			}
		}
	})
	// Client streams to the VM throughout the migration.
	w.eng.Spawn("client", func(p *sim.Proc) {
		c, err := w.hosts[2].Dom0().Dial(p, netsim.Addr{IP: v.IP(), Port: 5001})
		if err != nil {
			sendErr = err
			return
		}
		chunk := make([]byte, 16384)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(p, chunk); err != nil {
				sendErr = err
				return
			}
		}
		c.Close()
	})
	w.eng.Spawn("migrate", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond) // let the stream start
		_, migErr = v.Migrate(p, w.hosts[1])
	})
	w.eng.RunFor(20 * time.Minute)
	if srvErr != nil || sendErr != nil || migErr != nil {
		t.Fatalf("srv=%v send=%v mig=%v", srvErr, sendErr, migErr)
	}
	if received != total {
		t.Fatalf("received %d of %d across migration", received, total)
	}
}

func TestMigrationTimeScalesWithMemoryAndBandwidth(t *testing.T) {
	run := func(memMB int, rate float64) sim.Duration {
		w := buildWorld(t, 3,
			[]float64{rate, rate, rate},
			[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
		v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"), Config{MemoryMB: memMB})
		var rep *MigrationReport
		var err error
		w.eng.Spawn("driver", func(p *sim.Proc) {
			rep, err = v.Migrate(p, w.hosts[1])
		})
		w.eng.RunFor(60 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total()
	}
	small := run(32, 100e6)
	big := run(128, 100e6)
	slow := run(32, 20e6)
	if big <= small {
		t.Fatalf("128 MB (%v) should take longer than 32 MB (%v)", big, small)
	}
	if slow <= small {
		t.Fatalf("20 Mbps (%v) should take longer than 100 Mbps (%v)", slow, small)
	}
}

func TestHigherDirtyRateMoreRounds(t *testing.T) {
	run := func(dirtyRate float64) *MigrationReport {
		w := buildWorld(t, 4,
			[]float64{50e6, 50e6, 50e6},
			[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
		v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"),
			Config{MemoryMB: 64, DirtyRate: dirtyRate})
		var rep *MigrationReport
		var err error
		w.eng.Spawn("driver", func(p *sim.Proc) {
			rep, err = v.Migrate(p, w.hosts[1])
		})
		w.eng.RunFor(60 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	calm := run(200)
	busy := run(5000)
	if busy.BytesSent <= calm.BytesSent {
		t.Fatalf("busy VM resent %d bytes <= calm %d", busy.BytesSent, calm.BytesSent)
	}
	if busy.Downtime <= calm.Downtime {
		t.Fatalf("busy downtime %v <= calm %v", busy.Downtime, calm.Downtime)
	}
}

// TestMigrationAbortsCleanlyWhenDestinationUnreachable severs the WAN
// path between source and destination mid-copy: the stall watchdog must
// abort the transfer within StallTimeout (not TCP's full retransmission
// budget), count the abort, and leave the VM running at the source.
func TestMigrationAbortsCleanlyWhenDestinationUnreachable(t *testing.T) {
	w := buildWorld(t, 6,
		[]float64{50e6, 50e6, 50e6},
		[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
	stall := 5 * time.Second
	v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"),
		Config{MemoryMB: 64, StallTimeout: stall})
	var migErr error
	done := false
	var doneAt sim.Time
	w.eng.Spawn("migrate", func(p *sim.Proc) {
		_, migErr = v.Migrate(p, w.hosts[1])
		done = true
		doneAt = p.Now()
	})
	// 64 MB at 50 Mbps needs ~10 s; cut the source-destination WAN path
	// 2 s in, squarely inside the first pre-copy round.
	srcSite := w.hosts[0].Phys().Site()
	dstSite := w.hosts[1].Phys().Site()
	w.eng.Schedule(2*time.Second, func() { w.nw.Partition(srcSite, dstSite) })
	start := w.eng.Now()
	w.eng.RunFor(10 * time.Minute)
	if !done {
		t.Fatal("migration never returned after the partition")
	}
	if !errors.Is(migErr, ErrStalled) {
		t.Fatalf("migration error = %v, want ErrStalled", migErr)
	}
	// Clean and prompt: abort within partition time + StallTimeout + the
	// watchdog's tick slack, nowhere near TCP's retransmission budget.
	if d := doneAt.Sub(start); d > 2*time.Second+3*stall {
		t.Fatalf("abort took %v, want under %v", d, 2*time.Second+3*stall)
	}
	if v.Host() != w.hosts[0] {
		t.Fatal("aborted migration moved the VM")
	}
	if !v.Running() {
		t.Fatal("VM not running at the source after the abort")
	}
	if v.Aborts != 1 || v.MigrationsDone != 0 {
		t.Fatalf("aborts=%d migrations=%d: want 1, 0", v.Aborts, v.MigrationsDone)
	}
	if len(v.Migrations) != 0 {
		t.Fatalf("aborted migration left %d reports", len(v.Migrations))
	}
	// After healing, the VM still serves traffic from its old home.
	w.nw.Heal(srcSite, dstSite)
	var pingErr error
	pinged := false
	w.eng.Spawn("ping", func(p *sim.Proc) {
		_, pingErr = w.hosts[2].Dom0().Ping(p, v.IP(), 56, 5*time.Second)
		pinged = true
	})
	w.eng.RunFor(30 * time.Second)
	if !pinged || pingErr != nil {
		t.Fatalf("post-abort ping: done=%v err=%v", pinged, pingErr)
	}
}

func TestPauseResume(t *testing.T) {
	w := buildWorld(t, 5,
		[]float64{100e6, 100e6, 100e6},
		[]sim.Duration{5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond})
	v := New(w.hosts[0], "vm1", netsim.MustParseIP("10.0.0.100"), Config{MemoryMB: 16})
	var during, afterResume error
	w.eng.Spawn("driver", func(p *sim.Proc) {
		obs := w.hosts[1].Dom0()
		obs.Ping(p, v.IP(), 56, 5*time.Second) // warm ARP
		v.Pause()
		_, during = obs.Ping(p, v.IP(), 56, time.Second)
		v.Resume()
		_, afterResume = obs.Ping(p, v.IP(), 56, 5*time.Second)
	})
	w.eng.RunFor(5 * time.Minute)
	if during == nil {
		t.Fatal("paused VM answered a ping")
	}
	if afterResume != nil {
		t.Fatalf("resumed VM unreachable: %v", afterResume)
	}
}
