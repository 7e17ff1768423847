package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"

	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	bulkBytes    = 256 << 20
	bulkChunk    = 16 << 10
	bulkPort     = 5001
	bulkPingGap  = 100 * sim.Millisecond
	bulkPingWait = 2 * sim.Second
)

// runBulkTagged moves a fixed number of patterned bytes over one TCP
// connection between the two members of a tenant network, with a 10 Hz
// ping between the same members as the latency probe.
func runBulkTagged(r *rep) error {
	total := r.scaled(bulkBytes, 4*bulkChunk)
	total -= total % bulkChunk

	r.beginSetup()
	w, err := r.build(scenario.EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		return err
	}
	if _, err := r.apply(w, vpc.TenantSpec{
		Tenant: "bench",
		Networks: []vpc.NetworkSpec{{
			Name: "bulk", CIDR: "10.60.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01"},
		}},
	}); err != nil {
		return err
	}
	n, _ := w.VPC().Get("bulk")
	src, dst := n.Members()[0], n.Members()[1]
	if err := warmPairs(w, [][2]*vpc.Member{{src, dst}, {dst, src}}); err != nil {
		return err
	}
	lis, err := dst.Stack.Listen(bulkPort)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	chunk := make([]byte, bulkChunk)
	rng.Read(chunk)
	if r.endSetup() {
		return nil
	}

	ph := r.beginMeasure(w)
	var (
		sentCRC, gotCRC uint32
		gotBytes        int
		firstByte       sim.Time
		sinkDone        bool
		srcErr, sinkErr error
		rtts            []float64
		pingLost        uint64
	)
	w.Eng.Spawn("bulk-sink", func(p *sim.Proc) {
		defer func() { sinkDone, ph.doneAt = true, p.Now() }()
		conn, err := lis.Accept(p)
		if err != nil {
			sinkErr = err
			return
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(p, buf)
			if n > 0 {
				if gotBytes == 0 {
					firstByte = p.Now()
				}
				gotBytes += n
				gotCRC = crc32.Update(gotCRC, castagnoli, buf[:n])
			}
			if err != nil {
				if err != io.EOF {
					sinkErr = err
				}
				conn.Close()
				ph.tcp.add(conn)
				return
			}
		}
	})
	w.Eng.Spawn("bulk-source", func(p *sim.Proc) {
		conn, err := src.Stack.Dial(p, netsim.Addr{IP: dst.IP, Port: bulkPort})
		if err != nil {
			srcErr = err
			return
		}
		for sent := 0; sent < total; sent += bulkChunk {
			binary.BigEndian.PutUint64(chunk, uint64(sent))
			sentCRC = crc32.Update(sentCRC, castagnoli, chunk)
			if _, err := conn.Write(p, chunk); err != nil {
				srcErr = err
				return
			}
		}
		conn.Close()
		for !sinkDone && conn.Err() == nil {
			p.Sleep(sim.Millisecond)
		}
		ph.tcp.add(conn)
	})
	w.Eng.Spawn("bulk-ping", func(p *sim.Proc) {
		for next := p.Now(); !sinkDone; {
			rtt, err := src.Stack.Ping(p, dst.IP, 56, bulkPingWait)
			if err != nil {
				// A probe the full queue dropped still is a sample: one
				// that missed every latency limit.
				pingLost++
				rtt = bulkPingWait
			}
			rtts = append(rtts, rtt.Seconds()*1e3)
			next = next.Add(bulkPingGap)
			if d := next.Sub(p.Now()); d > 0 {
				p.Sleep(d)
			}
		}
	})
	// 1 Mbps would still finish inside this budget.
	budget := sim.Duration(total/100+60) * sim.Millisecond * 10
	if err := ph.drive(10*sim.Millisecond, budget, func() bool { return sinkDone || srcErr != nil }); err != nil {
		return err
	}
	ph.end()
	r.Counts["harness.probe_lost"] = float64(pingLost)

	r.spans.begin("verify", "rep")
	defer r.spans.end("verify")
	if srcErr != nil {
		return fmt.Errorf("source: %w", srcErr)
	}
	if sinkErr != nil {
		return fmt.Errorf("sink: %w", sinkErr)
	}
	r.SimSetupS = firstByte.Sub(r.applyT0).Seconds()
	r.PayloadBytes = uint64(gotBytes)
	r.Ops = uint64(r.Counts["ipstack.frames_in"])
	if gotBytes != total || gotCRC != sentCRC {
		// The whole transfer is the unit of content verification.
		r.fail(r.Ops, "sink got %d bytes crc %08x, source sent %d bytes crc %08x", gotBytes, gotCRC, total, sentCRC)
		r.Ops = 0
	}
	r.Attempted = r.Ops + r.Failed
	r.finish(rtts)
	return nil
}

// warmPairs resolves ARP and teaches the switches each pair's MACs: two
// pings a pair, the first of which pays for resolution.
func warmPairs(w *scenario.World, pairs [][2]*vpc.Member) error {
	pending := len(pairs)
	var firstErr error
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		w.Eng.Spawn("warm-"+a.Host.Name(), func(p *sim.Proc) {
			defer func() { pending-- }()
			for i := 0; i < 2; i++ {
				if _, err := a.Stack.Ping(p, b.IP, 56, 5*sim.Second); err != nil && i == 1 && firstErr == nil {
					firstErr = fmt.Errorf("warm-up ping %s -> %s: %w", a.Host.Name(), b.Host.Name(), err)
				}
			}
		})
	}
	for spent := 0; pending > 0 && spent < 3000; spent++ {
		w.Eng.RunFor(10 * sim.Millisecond)
	}
	if firstErr != nil {
		return firstErr
	}
	if pending > 0 {
		return fmt.Errorf("warm-up pings still pending")
	}
	return nil
}
