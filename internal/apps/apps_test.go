package apps

import (
	"testing"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

func pipeWorld(seed int64, rateBps float64, delay sim.Duration) (*sim.Engine, *ipstack.Stack, *ipstack.Stack) {
	eng := sim.NewEngine(seed)
	pipe := ether.NewLinkPipe(eng, rateBps, delay, 0)
	a := ipstack.New(eng, "a", pipe.A, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), ipstack.Config{})
	b := ipstack.New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), ipstack.Config{})
	return eng, a, b
}

func TestPinger(t *testing.T) {
	eng, a, b := pipeWorld(1, 0, 10*time.Millisecond)
	run, _ := StartPinger(a, b.IP(), 100*time.Millisecond, 2*time.Second)
	eng.Run()
	if !run.Done {
		t.Fatal("pinger did not finish")
	}
	if run.Sent < 19 || run.Sent > 21 {
		t.Fatalf("sent %d probes, want ~20", run.Sent)
	}
	if len(run.Losses) != 0 {
		t.Fatalf("losses on a clean link: %d", len(run.Losses))
	}
	s := run.RTTms.Summary()
	if s.P50 < 19 || s.P50 > 42 {
		t.Fatalf("median rtt %.1f ms, want ≈20", s.P50)
	}
}

func TestPingerCountsLosses(t *testing.T) {
	eng := sim.NewEngine(2)
	pipe := ether.NewLinkPipe(eng, 0, 5*time.Millisecond, 0)
	lossy := ether.Impair(pipe.A, 0.3, eng.Rand())
	a := ipstack.New(eng, "a", lossy, ether.SeqMAC(1), netsim.MustParseIP("10.0.0.1"), ipstack.Config{})
	b := ipstack.New(eng, "b", pipe.B, ether.SeqMAC(2), netsim.MustParseIP("10.0.0.2"), ipstack.Config{})
	_ = b
	run, _ := StartPinger(a, netsim.MustParseIP("10.0.0.2"), 50*time.Millisecond, 5*time.Second)
	eng.Run()
	if run.LossRate() < 0.1 {
		t.Fatalf("loss rate %.2f too low under 30%% frame loss", run.LossRate())
	}
}

func TestTTCP(t *testing.T) {
	eng, a, b := pipeWorld(3, 10e6, 5*time.Millisecond)
	if err := StartSink(b, 5001); err != nil {
		t.Fatal(err)
	}
	var res *TTCPResult
	var err error
	eng.Spawn("ttcp", func(p *sim.Proc) {
		res, err = TTCP(p, a, netsim.Addr{IP: b.IP(), Port: 5001}, 2<<20, 16384)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 10 Mbps ≈ 1190 KB/s after header overhead.
	if res.KBps < 750 || res.KBps > 1250 {
		t.Fatalf("ttcp rate %.0f KB/s over a 10 Mbps link", res.KBps)
	}
}

func TestNetperf(t *testing.T) {
	eng, a, b := pipeWorld(4, 20e6, 5*time.Millisecond)
	run, err := StartNetperf(a, b, 5001, 10*time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !run.Done || run.Err != nil {
		t.Fatalf("netperf done=%v err=%v", run.Done, run.Err)
	}
	if m := run.Mbps(); m < 16 || m > 20 {
		t.Fatalf("netperf %.2f Mbps over 20 Mbps", m)
	}
	if run.IntervalMbps.Len() < 18 {
		t.Fatalf("only %d interval samples", run.IntervalMbps.Len())
	}
	// Steady state: later intervals near line rate.
	last := run.IntervalMbps.Samples[run.IntervalMbps.Len()-1].Value
	if last < 15 {
		t.Fatalf("final interval %.2f Mbps", last)
	}
}

func TestHTTPAndAB(t *testing.T) {
	eng, a, b := pipeWorld(5, 100e6, 2*time.Millisecond)
	if err := StartHTTPServer(b, 80); err != nil {
		t.Fatal(err)
	}
	res := StartAB(a, netsim.Addr{IP: b.IP(), Port: 80}, 1024, 4, 5*time.Second, 0)
	eng.Run()
	if !res.Done {
		t.Fatal("AB did not finish")
	}
	if res.Failures > 0 {
		t.Fatalf("%d failures", res.Failures)
	}
	if res.Requests < 100 {
		t.Fatalf("only %d requests completed", res.Requests)
	}
	// Connection time ≈ RTT (4 ms).
	if res.ConnMs.Mean < 3 || res.ConnMs.Mean > 10 {
		t.Fatalf("mean connect %.1f ms, want ≈4", res.ConnMs.Mean)
	}
	if res.Bytes != int64(res.Requests)*1024 {
		t.Fatalf("bytes %d for %d requests", res.Bytes, res.Requests)
	}
}

func TestABThroughputTracksFileSize(t *testing.T) {
	rate := func(size int) float64 {
		eng, a, b := pipeWorld(6, 50e6, 2*time.Millisecond)
		StartHTTPServer(b, 80)
		res := StartAB(a, netsim.Addr{IP: b.IP(), Port: 80}, size, 8, 5*time.Second, 0)
		eng.Run()
		return res.ReqPerSec()
	}
	small, large := rate(1024), rate(64<<10)
	if small <= large {
		t.Fatalf("1K req/s (%.0f) should exceed 64K req/s (%.0f)", small, large)
	}
}

func TestBadHTTPRequest(t *testing.T) {
	eng, a, b := pipeWorld(7, 0, time.Millisecond)
	StartHTTPServer(b, 80)
	var reply string
	eng.Spawn("bad", func(p *sim.Proc) {
		c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, []byte("BOGUS\n"))
		buf := make([]byte, 128)
		n, _ := c.Read(p, buf)
		reply = string(buf[:n])
	})
	eng.Run()
	if reply == "" || reply[:3] != "ERR" {
		t.Fatalf("bad request got %q", reply)
	}
}
