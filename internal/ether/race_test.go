package ether

import (
	"sync"
	"testing"

	"wavnet/internal/sim"
)

// TestTableRaceForwardingVsLearning drives concurrent forwarding
// lookups, refresh learns, new-MAC learns and port flushes against the
// copy-on-write MACTable/VNITable. The simulation proper is
// single-threaded, but the COW design's contract is that lookups never
// contend with learning — this is the race-detector proof (the CI race
// job's `./...` runs it under the detector).
func TestTableRaceForwardingVsLearning(t *testing.T) {
	eng := sim.NewEngine(1)
	table := NewVNITable[int](eng, 0)
	const vnis = 4
	const macs = 64
	for v := 0; v < vnis; v++ {
		for m := 0; m < macs; m++ {
			table.Learn(uint32(v), SeqMAC(uint32(m)), m)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	// Forwarders: pure lookups.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20000; i++ {
				table.Lookup(uint32(i%vnis), SeqMAC(uint32((i+g)%macs)))
			}
		}(g)
	}
	// Learners: refresh known MACs and keep inventing new ones (the
	// slow path that rebuilds and republishes the map).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 10000; i++ {
				table.Learn(uint32(i%vnis), SeqMAC(uint32(i%macs)), g)
				if i%100 == 0 {
					table.Learn(uint32(i%vnis), SeqMAC(uint32(macs+i)), g)
				}
			}
		}(g)
	}
	// Control plane: port flushes and VNI drops/recreates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 500; i++ {
			table.ForgetPort(i % 4)
			table.Forget(uint32(i%vnis), SeqMAC(uint32(i%macs)))
			if i%50 == 0 {
				table.DropVNI(uint32(vnis + 1))
				table.Learn(uint32(vnis+1), SeqMAC(1), 1)
			}
		}
	}()
	close(start)
	wg.Wait()
	// Sanity: the table still answers and rebuild reclaims nothing live.
	table.Learn(0, SeqMAC(3), 9)
	if p, ok := table.Lookup(0, SeqMAC(3)); !ok || p != 9 {
		t.Fatalf("post-race lookup = %v %v, want 9 true", p, ok)
	}
}
