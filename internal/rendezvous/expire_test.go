package rendezvous

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// model is a broker's expirable state as plain maps, with expire as it
// was before the tables were aged: a full sweep of every map on every
// call. It is the oracle TestExpireMatchesFullSweep holds the ordered
// walk to.
type model struct {
	sessions, replicas map[string]aging[HostRecord]
	intros             map[uint64]sim.Time
	peerSeen           map[netsim.Addr]sim.Time // the federated peers

	sessionExpiries, replicaExpiries, deadBrokerReplicaDrops, withdrawalsOut uint64
}

type aging[V any] struct {
	rec      V
	lastSeen sim.Time
}

func tableOf[K comparable, V any](t *testing.T, a *aged[K, V]) map[K]aging[V] {
	out := make(map[K]aging[V])
	var prev *entry[K, V]
	for e := a.head; e != nil; prev, e = e, e.next {
		if e.prev != prev || (prev != nil && e.lastSeen < prev.lastSeen) || a.byKey[e.key] != e {
			t.Fatalf("aged table out of order or mislinked at %v", e.key)
		}
		out[e.key] = aging[V]{e.rec, e.lastSeen}
	}
	if a.tail != prev || len(out) != a.len() {
		t.Fatalf("aged table: list holds %d entries ending at %p, map %d ending at %p", len(out), prev, a.len(), a.tail)
	}
	return out
}

func snapshot(t *testing.T, s *Server) *model {
	m := &model{
		sessions: tableOf(t, &s.sessions), replicas: tableOf(t, &s.replicas),
		intros: make(map[uint64]sim.Time), peerSeen: make(map[netsim.Addr]sim.Time),
		sessionExpiries: s.SessionExpiries, replicaExpiries: s.ReplicaExpiries,
		deadBrokerReplicaDrops: s.DeadBrokerReplicaDrops, withdrawalsOut: s.WithdrawalsOut,
	}
	for id, pi := range tableOf(t, &s.pendingIntro) {
		m.intros[id] = pi.lastSeen
	}
	for addr, p := range tableOf(t, &s.peers) {
		m.peerSeen[addr] = p.lastSeen
	}
	return m
}

func (m *model) expire(s *Server) {
	now := s.eng.Now()
	cutoff, deadCutoff := now.Add(-s.cfg.SessionTTL), now.Add(-s.cfg.BrokerTTL)
	dead := func(server netsim.Addr) bool {
		seen, federated := m.peerSeen[server]
		return federated && seen < deadCutoff
	}
	for name, ses := range m.sessions {
		if ses.lastSeen < cutoff {
			delete(m.sessions, name)
			m.sessionExpiries++
			m.withdrawalsOut += uint64(len(s.netBrokers[ses.rec.Net]))
		}
	}
	for name, rep := range m.replicas {
		if rep.lastSeen < cutoff {
			delete(m.replicas, name)
			m.replicaExpiries++
		}
	}
	for name, rep := range m.replicas {
		if dead(rep.rec.Server) {
			delete(m.replicas, name)
			m.deadBrokerReplicaDrops++
		}
	}
	for id, created := range m.intros {
		if created < cutoff {
			delete(m.intros, id)
		}
	}
}

// TestExpireMatchesFullSweep drives a broker with random joins, pulses,
// replications, withdrawals, forwarded connects, lookups, peer
// keepalives and silences, re-federations and clock advances, and after
// every step holds expire to the full-sweep model: the same tables and
// the same counters.
func TestExpireMatchesFullSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { expireModelRun(t, seed) })
	}
}

func expireModelRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng, nw, s := newServer(t)
	if seed%2 == 0 {
		// Without the refresh tick only the test's own calls expire:
		// due entries pile up at the heads of their tables.
		s.refreshTick.Stop()
	}
	peers := []netsim.Addr{newBroker(t, eng, nw, 1, Config{}).Addr(), newBroker(t, eng, nw, 2, Config{}).Addr(),
		{IP: netsim.MustParseIP("50.0.9.1"), Port: DefaultPort}} // the third never speaks unless the test makes it
	for _, p := range peers {
		s.Federate(p)
	}
	nets := []string{"red", "blue"}
	s.SetNetBrokers("red", peers[:2])
	s.SetNetBrokers("blue", peers[1:])
	names := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	hostAddr := func(name string) netsim.Addr {
		return netsim.Addr{IP: netsim.MustParseIP("60.0.0.1") + netsim.IP(name[1]-'0'), Port: 4500}
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	server := func() netsim.Addr { // a record's home broker: usually a peer, sometimes us or a stranger
		switch n := rng.Intn(8); {
		case n < len(peers):
			return peers[n]
		case n == 3:
			return s.Addr()
		case n == 4:
			return netsim.Addr{IP: 1, Port: 1}
		}
		return peers[rng.Intn(2)]
	}
	deliver := func(src netsim.Addr, m *Msg) { s.onPacket(netsim.Packet{Src: src, Dst: s.Addr(), Payload: Encode(m)}) }

	for step := 0; step < 600; step++ {
		name, peer := pick(names), peers[rng.Intn(len(peers))]
		switch op := rng.Intn(11); op {
		case 0, 1:
			deliver(hostAddr(name), &Msg{Kind: KindJoin, ID: 1, Rec: &HostRecord{Name: name, Net: pick(nets)}})
		case 2, 3:
			deliver(hostAddr(name), &Msg{Kind: KindPulse, Name: name})
		case 4, 5:
			deliver(peer, &Msg{Kind: KindReplicate, Rec: &HostRecord{Name: name, Net: pick(nets), Server: server()}})
		case 6:
			deliver(peer, &Msg{Kind: KindWithdraw, Name: name, Net: pick(nets)})
		case 7:
			deliver(hostAddr(name), &Msg{Kind: KindConnect, ID: 2, Name: name, Peer: &HostRecord{Name: pick(names)}})
		case 8:
			deliver(peer, &Msg{Kind: KindBrokerPulse})
		case 9:
			if rng.Intn(4) == 0 {
				s.Federate(peer)
			} else {
				deliver(hostAddr(name), &Msg{Kind: KindLookup, ID: 3, Name: pick(names), Net: pick(nets)})
			}
		case 10:
			// Up to 1.2 TTL at once, so whole tables and peers time out.
			eng.RunFor(time.Duration(rng.Int63n(int64(s.cfg.SessionTTL) * 6 / 5)))
		}
		want := snapshot(t, s)
		want.expire(s)
		s.expire()
		if got := snapshot(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d at %v: expire left\n %+v\nthe full sweep\n %+v", step, eng.Now(), got, want)
		}
	}
	if s.SessionExpiries == 0 || s.ReplicaExpiries == 0 || s.DeadBrokerReplicaDrops == 0 {
		t.Logf("seed %d left a path unvisited: %d session, %d replica, %d dead-broker expiries",
			seed, s.SessionExpiries, s.ReplicaExpiries, s.DeadBrokerReplicaDrops)
	}
}
