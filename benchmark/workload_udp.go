package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

const (
	udpHosts     = 4
	udpBurst     = 8
	udpPayload   = 64
	udpPeriod    = 200 * sim.Microsecond
	udpVirtualMs = 20000
	udpPort      = 7000
)

// runUDPSmallBurst has every member of a four-host ring send bursts of
// small datagrams to its successor on a fixed virtual-time schedule. The
// generators are Engine callbacks, so the measured phase runs no Proc of
// the harness. Each datagram carries its sequence number and due time;
// the receiver checks in-order exactly-once delivery and the pattern.
func runUDPSmallBurst(r *rep) error {
	bursts := r.scaled(udpVirtualMs, 50) * int(sim.Millisecond/udpPeriod)

	r.beginSetup()
	w, err := r.build(scenario.EmulatedWANSpecs(udpHosts, 100e6), nil)
	if err != nil {
		return err
	}
	keys := make([]string, udpHosts)
	for i := range keys {
		keys[i] = fmt.Sprintf("pc%02d", i)
	}
	if _, err := r.apply(w, vpc.TenantSpec{
		Tenant: "bench",
		Networks: []vpc.NetworkSpec{{
			Name: "ring", CIDR: "10.61.0.0/24", StaticAddressing: true, Members: keys,
		}},
	}); err != nil {
		return err
	}
	n, _ := w.VPC().Get("ring")
	members := n.Members()
	var pairs [][2]*vpc.Member
	for i, m := range members {
		pairs = append(pairs, [2]*vpc.Member{m, members[(i+1)%udpHosts]})
	}
	if err := warmPairs(w, pairs); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.seed))
	pattern := make([]byte, udpPayload)
	rng.Read(pattern)
	type rx struct {
		next      uint64
		ok, wrong uint64
	}
	recv := make([]rx, udpHosts)
	// One int32 of virtual nanoseconds per datagram, allocated before the
	// phase so the samples do not count as the system's allocations.
	delays := make([]int32, 0, bursts*udpBurst*udpHosts)
	var firstByte sim.Time
	var ph *phase
	socks := make([]*ipstack.UDPSock, udpHosts)
	for i, m := range members {
		st := &recv[i]
		socks[i], err = m.Stack.BindUDP(udpPort, func(d ipstack.Datagram) {
			p := d.Payload
			if len(p) != udpPayload || binary.BigEndian.Uint64(p) != st.next || !bytes.Equal(p[16:], pattern[16:]) {
				st.wrong++
				return
			}
			if firstByte == 0 {
				firstByte = w.Eng.Now()
			}
			st.next++
			st.ok++
			ph.doneAt = w.Eng.Now()
			delays = append(delays, int32(int64(w.Eng.Now())-int64(binary.BigEndian.Uint64(p[8:]))))
		})
		if err != nil {
			return err
		}
	}
	if r.endSetup() {
		return nil
	}

	ph = r.beginMeasure(w)
	sent := uint64(0)
	var sendErr error
	start := w.Eng.Now()
	running := udpHosts
	for i := range members {
		i := i
		dst := netsim.Addr{IP: members[(i+1)%udpHosts].IP, Port: udpPort}
		// A seeded phase per sender keeps the four generators off one
		// another's instants without changing the rate.
		t0 := start.Add(sim.Duration(rng.Int63n(int64(udpPeriod))))
		seq := uint64(0)
		k := 0
		buf := make([]byte, udpPayload)
		copy(buf, pattern)
		var burst func()
		burst = func() {
			due := uint64(w.Eng.Now())
			for j := 0; j < udpBurst; j++ {
				binary.BigEndian.PutUint64(buf, seq)
				binary.BigEndian.PutUint64(buf[8:], due)
				if err := socks[i].SendTo(dst, buf); err != nil && sendErr == nil {
					sendErr = err
				}
				seq++
				sent++
			}
			if k++; k < bursts {
				w.Eng.At(t0.Add(sim.Duration(k)*udpPeriod), burst)
			} else {
				running--
			}
		}
		w.Eng.At(t0, burst)
	}
	budget := sim.Duration(bursts)*udpPeriod + sim.Second
	if err := ph.drive(10*sim.Millisecond, budget, func() bool { return running == 0 }); err != nil {
		return err
	}
	// Let the last bursts cross the WAN.
	w.Eng.RunFor(50 * sim.Millisecond)
	ph.sample()
	ph.end()

	r.spans.begin("verify", "rep")
	defer r.spans.end("verify")
	if sendErr != nil {
		return fmt.Errorf("send: %w", sendErr)
	}
	r.SimSetupS = firstByte.Sub(r.applyT0).Seconds()
	r.Attempted = sent
	for i := range recv {
		r.Ops += recv[i].ok
	}
	r.PayloadBytes = r.Ops * udpPayload
	if r.Ops != sent {
		wrong := uint64(0)
		for i := range recv {
			wrong += recv[i].wrong
		}
		r.fail(sent-r.Ops, "%d datagrams sent, %d delivered once and in order, %d out of order, duplicated or corrupt", sent, r.Ops, wrong)
	}
	lat := make([]float64, len(delays))
	for i, d := range delays {
		lat[i] = float64(d) / 1e6
	}
	r.finish(lat)
	return nil
}
