package scenario

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// lookupRoundTripAllocs is the bound on what one host→broker→host lookup
// allocates, everything counted: the host's proc and timer, both
// encodes into leased buffers, the broker's decode into its reused
// message, the host's fresh decode of the reply and the records it
// hands back, and every event and packet in between. The JSON codec
// and the per-lookup expiry sweep cost 31 on the same world.
const lookupRoundTripAllocs = 10

func TestLookupRoundTripAllocs(t *testing.T) {
	w, err := Build(3, EmulatedWANSpecs(2, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Eng.Stop()
	w.Net.Pool().SetPoison(false) // a poisoned pool never recycles
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	h, target := w.Machines[0].WAV, w.Machines[1].Key
	done, bad := 0, 0
	w.Eng.Spawn("lookups", func(p *sim.Proc) {
		for {
			if recs, err := h.Lookup(p, target); err != nil || len(recs) != 1 || recs[0].Name != target {
				bad++
			}
			done++
		}
	})
	one := func() {
		for before := done; done == before; {
			w.Eng.RunFor(time.Millisecond)
		}
	}
	for i := 0; i < 100; i++ {
		one() // free lists, maps and the proc's stack reach their steady size
	}
	got := testing.AllocsPerRun(500, one)
	if bad != 0 {
		t.Fatalf("%d of %d lookups failed", bad, done)
	}
	t.Logf("%.1f allocations per lookup round trip", got)
	if got > lookupRoundTripAllocs {
		t.Fatalf("a lookup round trip allocates %.1f times, bound %d", got, lookupRoundTripAllocs)
	}
}

// deliveryDigest builds a two-tenant world on two brokers (a third
// joins later), runs it across a
// refresh tick (every session republished and re-replicated) and an
// expiry (four sessions of both tenants and both brokers time out in
// one sweep and are withdrawn), and hashes (sim time, src, dst, wire
// bytes, payload) of every packet the network delivered.
func deliveryDigest(t *testing.T, seed int64) (digest uint64, delivered int) {
	t.Helper()
	w, err := Build(seed, EmulatedWANSpecs(12, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Eng.Stop()
	// b1 batches its replication: joins wait for its flush ticker.
	b1, err := w.AddBroker("b1", rendezvous.Config{ReplicateInterval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddBroker("b2", rendezvous.Config{}); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	w.Net.SetDeliverHook(func(pkt *netsim.Packet) {
		delivered++
		fmt.Fprintln(h, int64(w.Eng.Now()), pkt.Src, pkt.Dst, pkt.Wire)
		h.Write(pkt.Payload) // same-size packets swapped in a burst differ only here
	})
	for i, m := range w.Machines {
		if i%2 == 1 {
			if err := w.SetHome(m.Key, "b1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for t2, tenant := range []string{"acme", "globex"} {
		var members []string
		for _, m := range w.Machines[t2*6 : t2*6+6] {
			members = append(members, m.Key)
		}
		spec := vpc.TenantSpec{Tenant: tenant, Networks: []vpc.NetworkSpec{{
			Name: tenant + "-net", CIDR: fmt.Sprintf("10.%d.0.0/24", 80+t2), StaticAddressing: true,
			ServicePool: fmt.Sprintf("10.%d.0.192/28", 80+t2),
			Members:     members, Brokers: []string{PrimaryBroker, "b1"},
		}}, Services: []vpc.ServiceSpec{{
			// Three VIP records on the anchor's broker: its refresh tick
			// re-replicates them one packet each.
			Name: tenant + "-web", Network: tenant + "-net", VIP: fmt.Sprintf("10.%d.0.200", 80+t2),
			Policy:   "failover-ordered",
			Backends: []vpc.BackendSpec{{Member: members[2]}, {Member: members[3]}, {Member: members[4]}},
			Interval: time.Second, Timeout: 300 * time.Millisecond, Fall: 2, Rise: 2,
		}}}
		if _, err := w.ApplySync(spec); err != nil {
			t.Fatal(err)
		}
		// A third broker joins the network's set: the two that hold its
		// sessions replicate every one of them to the newcomer at once.
		spec.Networks[0].Brokers = append(spec.Networks[0].Brokers, "b2")
		if _, err := w.ApplySync(spec); err != nil {
			t.Fatal(err)
		}
	}
	// A host that already holds its tenant's five tunnels announces a
	// new segment on all of them at once.
	w.Machines[2].WAV.JoinVNI(4001)
	w.Machines[9].WAV.JoinVNI(4002)
	refreshed := w.Rdv.ReplicationsOut + b1.ReplicationsOut
	w.Eng.RunFor(40 * time.Second) // past the brokers' first refresh tick
	if got := w.Rdv.ReplicationsOut + b1.ReplicationsOut; got < refreshed+12 || w.Rdv.VIPReplicationsOut+b1.VIPReplicationsOut < 12 {
		t.Fatalf("no refresh tick: %d replications before, %d after, %d VIP replications", refreshed, got,
			w.Rdv.VIPReplicationsOut+b1.VIPReplicationsOut)
	}
	// Two hosts of each tenant, one per broker, vanish without a word.
	for _, i := range []int{0, 1, 6, 7} {
		w.Machines[i].WAV.Leave()
	}
	w.Eng.RunFor(2 * time.Minute)
	if got := w.Rdv.SessionExpiries + b1.SessionExpiries; got != 4 || w.Rdv.WithdrawalsOut+b1.WithdrawalsOut < 4 {
		t.Fatalf("%d sessions expired, %d withdrawals", got, w.Rdv.WithdrawalsOut+b1.WithdrawalsOut)
	}
	return h.Sum64(), delivered
}

// TestSameSeedSameDeliveries: no walk that sends follows Go's map order
// — the refresh tick, expiry's withdrawals, SetNetBrokers, the VIP
// refresh and the hosts' VNI announcements all go in the order of the
// structure they walk — so two worlds of one seed deliver the same
// packets at the same instants.
func TestSameSeedSameDeliveries(t *testing.T) {
	want, n := deliveryDigest(t, 5)
	t.Logf("digest %#x over %d deliveries", want, n)
	for rep := 0; rep < 4; rep++ {
		if got, m := deliveryDigest(t, 5); got != want || m != n {
			t.Fatalf("repetition %d: digest %#x over %d deliveries, first run %#x over %d", rep, got, m, want, n)
		}
	}
}
