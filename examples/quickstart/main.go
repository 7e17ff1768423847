// Quickstart: two NATed desktops join WAVNet through a rendezvous
// server, punch a direct tunnel, and exchange traffic on the virtual
// LAN — ping first, then a TCP transfer — all inside the deterministic
// simulation.
package main

import (
	"fmt"
	"log"
	"time"

	"wavnet"
)

func main() {
	// The paper's emulated WAN: NATed PCs with 100 Mbps access.
	world, err := wavnet.NewEmulatedWAN(42, 2, 100e6)
	if err != nil {
		log.Fatal(err)
	}
	// Join both machines, punch the tunnel, create their virtual stacks.
	if err := world.WAVNetUp(); err != nil {
		log.Fatal(err)
	}
	a, b := world.Machines[0], world.Machines[1]
	fmt.Printf("%s: NAT=%v, external mapping %v\n", a.Key, a.WAV.NATClass(), a.WAV.Mapped())
	fmt.Printf("%s: NAT=%v, external mapping %v\n", b.Key, b.WAV.NATClass(), b.WAV.Mapped())

	world.Eng.Spawn("demo", func(p *wavnet.Proc) {
		// ICMP across the tunnel (the first ping also resolves ARP).
		a.Dom0().Ping(p, b.VIP, 56, 5e9)
		rtt, err := a.Dom0().Ping(p, b.VIP, 56, 5e9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("virtual LAN ping %s -> %s: %v\n", a.Key, b.Key, rtt)

		// A TCP transfer through the same tunnel.
		if err := wavnet.StartSink(b.Dom0(), 5001); err != nil {
			log.Fatal(err)
		}
		res, err := wavnet.TTCP(p, a.Dom0(), wavnet.Addr{IP: b.VIP, Port: 5001}, 8<<20, 16384)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ttcp: %d bytes in %v = %.0f KB/s\n", res.Bytes, res.Elapsed, res.KBps)
	})
	world.Eng.RunFor(2 * time.Minute)

	tun, _ := a.WAV.Tunnel(b.Key)
	fmt.Printf("tunnel stats: %d frames out, %d frames in, %d keepalive pulses\n",
		tun.FramesOut, tun.FramesIn, tun.PulsesOut)
}
