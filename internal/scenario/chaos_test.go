package scenario

import (
	"testing"
	"time"

	"wavnet/internal/can"
	"wavnet/internal/core"
	"wavnet/internal/nat"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// chaosHostCfg shortens the host-side keepalive machinery so failures
// are detected within seconds of simulated time instead of minutes.
func chaosHostCfg() core.Config {
	return core.Config{
		RendezvousPulsePeriod: 2 * time.Second,
		BrokerTimeout:         6 * time.Second,
	}
}

// chaosBrokerCfg shortens the broker-side TTLs to match.
func chaosBrokerCfg() rendezvous.Config {
	return rendezvous.Config{
		SessionTTL: 30 * time.Second, // liveness TTL: re-homing must finish within this
	}
}

// TestChaosBrokerFailoverMidTraffic is the acceptance chaos test: a
// tenant network spans two brokers with live cross-broker traffic; the
// fault schedule kills one home broker. Every host homed there must
// re-home onto the surviving declared broker within the liveness TTL,
// a fresh ConnectTo between the tenant's hosts must succeed afterwards,
// and the witness broker the spec never named must still hold zero of
// the tenant's records.
func TestChaosBrokerFailoverMidTraffic(t *testing.T) {
	w, err := Build(41, EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if _, err := w.AddBroker("b1", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	b2, err := w.AddBroker("b2", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	witness, err := w.AddBroker("witness", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{
		"pc00": "b1", "pc01": "b1", "pc02": "b2", "pc03": "b2",
	} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "fed", CIDR: "10.80.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02", "pc03"},
			Brokers: []string{"b1", "b2"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	// The reconciler pushed the declared broker set as failover
	// candidates to every member.
	if got := len(w.M("pc00").WAV.BrokerCandidates()); got != 2 {
		t.Fatalf("pc00 has %d broker candidates, want 2", got)
	}

	// Continuous cross-broker traffic: pc00 (b1) pings pc03 (b2)
	// throughout the failover; the data plane must never notice.
	net, _ := w.VPC().Get("fed")
	var src, dst *vpc.Member
	for _, m := range net.Members() {
		switch m.Host.Name() {
		case "pc00":
			src = m
		case "pc03":
			dst = m
		}
	}
	pings, pingFails := 0, 0
	stop := false
	w.Eng.Spawn("traffic", func(p *sim.Proc) {
		for !stop {
			if _, err := src.Stack.Ping(p, dst.IP, 56, 2*time.Second); err != nil {
				pingFails++
			}
			pings++
			p.Sleep(time.Second)
		}
	})

	// Kill b1 two seconds in; track when each affected host re-homes.
	killAt := 2 * time.Second
	fi := w.Inject(KillBrokerAt(killAt, "b1"))
	killTime := w.Eng.Now().Add(killAt)
	rehomed := map[string]sim.Time{}
	probe := sim.NewTicker(w.Eng, 100*time.Millisecond, func() {
		for _, key := range []string{"pc00", "pc01"} {
			if _, ok := rehomed[key]; !ok && b2.HasSession(key) {
				rehomed[key] = w.Eng.Now()
			}
		}
	})
	ttl := chaosBrokerCfg().SessionTTL
	w.Eng.RunFor(ttl + 10*time.Second)
	probe.Stop()
	stop = true

	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if !fi.Done() {
		t.Fatal("fault schedule did not finish")
	}
	for _, key := range []string{"pc00", "pc01"} {
		at, ok := rehomed[key]
		if !ok {
			t.Fatalf("%s never re-homed onto b2", key)
		}
		if d := at.Sub(killTime); d > ttl {
			t.Fatalf("%s re-homed %v after the kill, beyond the %v liveness TTL", key, d, ttl)
		}
		if home, ok := w.CurrentHome(key); !ok || home != "b2" {
			t.Fatalf("%s homed on %q, want b2", key, home)
		}
		if w.M(key).WAV.Rehomes != 1 {
			t.Fatalf("%s counted %d rehomes, want 1", key, w.M(key).WAV.Rehomes)
		}
	}
	// The survivor holds all four records as sessions: the replicas that
	// named dead b1 as home were superseded when their hosts re-homed.
	if got := b2.RecordsFor("fed"); got != 4 {
		t.Fatalf("b2 holds %d fed records, want 4", got)
	}
	if got := b2.ReplicaCount(); got != 0 {
		t.Fatalf("b2 still holds %d replicas naming the dead broker", got)
	}
	if b2.ReplicaAdoptions == 0 {
		t.Fatal("no replica was superseded by a re-homing session")
	}
	// Mid-traffic: the data plane rode out the control-plane failure.
	if pings == 0 || pingFails > 0 {
		t.Fatalf("traffic suffered: %d/%d pings failed", pingFails, pings)
	}
	// Fresh connects work post-failover (brokered by the survivor).
	w.M("pc01").WAV.Disconnect("pc02")
	w.M("pc02").WAV.Disconnect("pc01")
	var connErr error
	w.Eng.Spawn("reconnect", func(p *sim.Proc) {
		_, connErr = w.M("pc01").WAV.ConnectTo(p, "pc02")
	})
	w.Eng.RunFor(30 * time.Second)
	if connErr != nil {
		t.Fatalf("post-failover connect: %v", connErr)
	}
	// The unnamed witness learned nothing through the whole episode.
	if got := witness.RecordsFor("fed"); got != 0 || witness.ReplicaCount() != 0 {
		t.Fatalf("witness broker holds %d fed records, %d replicas; want 0",
			got, witness.ReplicaCount())
	}
}

// TestChaosKillRestartSchedule scripts a kill and a delayed restart:
// the dead broker must come back empty, be re-federated, and reconverge
// to holding replicas of every record once home brokers re-replicate on
// their refresh tick. Hosts that re-homed away stay with their new home.
func TestChaosKillRestartSchedule(t *testing.T) {
	w, err := Build(42, EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	if _, err := w.AddBroker("b1", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddBroker("b2", chaosBrokerCfg()); err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{
		"pc00": "b1", "pc01": "b1", "pc02": "b2", "pc03": "b2",
	} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "fed", CIDR: "10.81.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02", "pc03"},
			Brokers: []string{"b1", "b2"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}

	fi := w.Inject(
		KillBrokerAt(2*time.Second, "b1"),
		RestartBrokerAt(40*time.Second, "b1"),
	)
	w.Eng.RunFor(90 * time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	log := fi.Log()
	if len(log) != 2 || log[0].Name != "kill-broker b1" || log[1].Name != "restart-broker b1" {
		t.Fatalf("unexpected fault log: %v", log)
	}

	b1, _ := w.Broker("b1")
	if b1.Closed() {
		t.Fatal("Broker() still resolves the killed instance after restart")
	}
	// pc00/pc01 re-homed to b2 during the outage and stay there.
	for _, key := range []string{"pc00", "pc01"} {
		if home, _ := w.CurrentHome(key); home != "b2" {
			t.Fatalf("%s homed on %q after restart, want b2", key, home)
		}
	}
	// The restarted broker reconverged: b2 re-replicates every session
	// on its refresh tick, so b1 holds all four records as replicas.
	if got := b1.RecordsFor("fed"); got != 4 {
		t.Fatalf("restarted b1 holds %d fed records, want 4", got)
	}
	if got := b1.Sessions(); got != 0 {
		t.Fatalf("restarted b1 holds %d sessions, want 0 (hosts re-homed away)", got)
	}
}

// TestChaosReplicaExpiryOnDeadBroker covers the silent-withdrawal fix:
// when a home broker dies and its hosts cannot re-home (no surviving
// candidate), the surviving broker must (1) refuse to forward fresh
// connects toward the dead broker once past the liveness TTL and (2)
// withdraw the dead broker's replicas — both visible through the
// replica_expired / replica_dead_broker / stale_fwd_rejects counters.
func TestChaosReplicaExpiryOnDeadBroker(t *testing.T) {
	w, err := Build(43, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	// A long session TTL (late refresh tick) keeps the stale replica
	// around well past broker-death detection, so the fwd-connect
	// rejection window is wide and deterministic.
	cfg := rendezvous.Config{
		SessionTTL:          40 * time.Second,
		BrokerPulseInterval: 2 * time.Second,
		BrokerTTL:           6 * time.Second,
	}
	b1, err := w.AddBroker("b1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w.AddBroker("b2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Federate the default network manually (no reconciler => no
	// candidate push => the b1-homed hosts can NOT re-home; their
	// replicas on b2 must be cleaned up instead of lingering).
	if err := w.ConfigureNetFederation("", []string{"b1", "b2"}); err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{"pc00": "b1", "pc01": "b1", "pc02": "b2"} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	if !b2.HasReplica("pc00") {
		t.Fatal("b2 never received pc00's replica")
	}

	// Align the schedule to just after one of b2's refresh ticks (every
	// SessionTTL/2 since creation), so detection (+~7s) and the stale
	// connect (+~13s) both land before the next sweep (+20s) —
	// deterministically, whatever WAVNetUp's duration was.
	period := sim.Time(cfg.SessionTTL / 2)
	w.Eng.RunUntil((w.Eng.Now()/period + 1) * period)
	w.Eng.RunFor(100 * time.Millisecond)

	fi := w.Inject(KillBrokerAt(time.Second, "b1"))
	// Past the broker liveness TTL but inside the replica TTL: b2 has
	// declared b1 dead.
	w.Eng.RunFor(12 * time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if !b2.PeerDead(b1.Addr()) {
		t.Fatal("b2 did not declare b1 dead after the liveness TTL")
	}
	if !b2.HasReplica("pc00") {
		t.Fatal("replica swept before the stale-forward window; adjust test timing")
	}
	// A fresh connect toward a target homed on the dead broker must be
	// refused as a transient not-found, not forwarded into a black hole.
	w.M("pc02").WAV.Disconnect("pc00")
	w.M("pc00").WAV.Disconnect("pc02")
	var connErr error
	w.Eng.Spawn("stale-connect", func(p *sim.Proc) {
		_, connErr = w.M("pc02").WAV.ConnectTo(p, "pc00")
	})
	w.Eng.RunFor(30 * time.Second)
	if connErr == nil {
		t.Fatal("connect toward a dead broker's host succeeded unexpectedly")
	}
	if b2.StaleFwdRejects == 0 {
		t.Fatal("no stale fwd-connect was rejected")
	}
	// Replica cleanup is no longer silent: the dead broker's replicas
	// were withdrawn and the counters prove it.
	w.Eng.RunFor(30 * time.Second)
	if b2.HasReplica("pc00") || b2.HasReplica("pc01") {
		t.Fatal("b2 still holds replicas of the dead broker's hosts")
	}
	if b2.DeadBrokerReplicaDrops+b2.ReplicaExpiries == 0 {
		t.Fatal("replica cleanup left no counter trace")
	}
}

// TestChaosPartitionHealReconverges partitions the two brokers of a
// federated network: during the partition each side withdraws the
// other's replicas (dead-broker sweep), and after healing the refresh
// tick re-replicates everything.
func TestChaosPartitionHealReconverges(t *testing.T) {
	w, err := Build(44, EmulatedWANSpecs(4, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	cfg := rendezvous.Config{
		SessionTTL:          20 * time.Second,
		BrokerPulseInterval: 2 * time.Second,
		BrokerTTL:           8 * time.Second,
	}
	b1, err := w.AddBroker("b1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w.AddBroker("b2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{
		"pc00": "b1", "pc01": "b1", "pc02": "b2", "pc03": "b2",
	} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "fed", CIDR: "10.82.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02", "pc03"},
			Brokers: []string{"b1", "b2"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}
	if b1.ReplicaCount() != 2 || b2.ReplicaCount() != 2 {
		t.Fatalf("pre-partition replicas: b1=%d b2=%d, want 2 each",
			b1.ReplicaCount(), b2.ReplicaCount())
	}

	fi := w.Inject(
		PartitionAt(time.Second, "b1", "b2"),
		HealAt(31*time.Second, "b1", "b2"),
	)
	// Mid-partition: both sides see a silent peer and withdraw.
	w.Eng.RunFor(20 * time.Second)
	if !b1.PeerDead(b2.Addr()) || !b2.PeerDead(b1.Addr()) {
		t.Fatal("partitioned brokers did not declare each other dead")
	}
	if b1.ReplicaCount() != 0 || b2.ReplicaCount() != 0 {
		t.Fatalf("mid-partition replicas: b1=%d b2=%d, want 0 each",
			b1.ReplicaCount(), b2.ReplicaCount())
	}
	// Healed: the refresh tick re-replicates, scope intact.
	w.Eng.RunFor(40 * time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if b1.ReplicaCount() != 2 || b2.ReplicaCount() != 2 {
		t.Fatalf("post-heal replicas: b1=%d b2=%d, want 2 each",
			b1.ReplicaCount(), b2.ReplicaCount())
	}
	if b1.PeerDead(b2.Addr()) || b2.PeerDead(b1.Addr()) {
		t.Fatal("healed brokers still considered dead")
	}
	if w.Net.PartitionDrops == 0 {
		t.Fatal("the partition dropped no packets")
	}
}

// TestChaosHostBrokerPartitionSupersedesStaleSession: the home broker
// stays alive but is partitioned from its host, so the host re-homes
// while the old broker keeps a stale session. The peer's replication of
// the fresh record must supersede that session (it would otherwise
// shadow the replica in lookups and connects for a full TTL), after
// which connects brokered via the old home forward correctly.
func TestChaosHostBrokerPartitionSupersedesStaleSession(t *testing.T) {
	w, err := Build(46, EmulatedWANSpecs(3, 100e6), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	cfg := rendezvous.Config{SessionTTL: 20 * time.Second}
	b1, err := w.AddBroker("b1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddBroker("b2", cfg); err != nil {
		t.Fatal(err)
	}
	for key, broker := range map[string]string{"pc00": "b1", "pc01": "b1", "pc02": "b2"} {
		if err := w.SetHome(key, broker); err != nil {
			t.Fatal(err)
		}
	}
	spec := vpc.TenantSpec{
		Tenant: "acme",
		Networks: []vpc.NetworkSpec{{
			Name: "fed", CIDR: "10.83.0.0/24", StaticAddressing: true,
			Members: []string{"pc00", "pc01", "pc02"},
			Brokers: []string{"b1", "b2"},
		}},
	}
	if _, err := w.ApplySync(spec); err != nil {
		t.Fatal(err)
	}

	// Sever pc00 from its home broker only; b1 itself stays alive and
	// federated (b1<->b2 and every other path keep flowing).
	fi := w.Inject(PartitionAt(time.Second, "pc00", "b1"))
	w.Eng.RunFor(cfg.SessionTTL + 20*time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if home, _ := w.CurrentHome("pc00"); home != "b2" {
		t.Fatalf("pc00 homed on %q, want b2", home)
	}
	// b1's stale session was superseded by b2's replication of the
	// fresh record — not left to shadow it until TTL expiry.
	if b1.HasSession("pc00") {
		t.Fatal("b1 still holds pc00's stale session")
	}
	if !b1.HasReplica("pc00") {
		t.Fatal("b1 holds no replica of re-homed pc00")
	}
	if b1.SessionsSuperseded == 0 {
		t.Fatal("no session was superseded on the old home broker")
	}
	// The host that stayed on b1 keeps its live session (its constant
	// pulsing makes it ineligible for superseding).
	if !b1.HasSession("pc01") {
		t.Fatal("b1 lost pc01's live session")
	}
	// A connect brokered via b1 now forwards to pc00's real home.
	w.M("pc01").WAV.Disconnect("pc00")
	w.M("pc00").WAV.Disconnect("pc01")
	var connErr error
	w.Eng.Spawn("via-old-home", func(p *sim.Proc) {
		_, connErr = w.M("pc01").WAV.ConnectTo(p, "pc00")
	})
	w.Eng.RunFor(30 * time.Second)
	if connErr != nil {
		t.Fatalf("connect via the old home broker: %v", connErr)
	}
}

// TestChaosRestartedBrokerNoStaleAttrPoints is the CAN-path regression
// guard: a restarted broker starts with an empty CAN, so attribute
// lookups must not resolve records of hosts that never re-registered —
// only the re-registered ones, exactly once.
func TestChaosRestartedBrokerNoStaleAttrPoints(t *testing.T) {
	specs := []Spec{
		{Key: "alpha", RTTToHub: 2 * time.Millisecond, AccessBps: 100e6,
			NAT: nat.FullCone, Attrs: can.Point{0.2, 0.2}},
		{Key: "beta", RTTToHub: 2 * time.Millisecond, AccessBps: 100e6,
			NAT: nat.RestrictedCone, Attrs: can.Point{0.8, 0.8}},
	}
	w, err := Build(45, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.HostCfg = chaosHostCfg()
	b1, err := w.AddBroker("b1", chaosBrokerCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"alpha", "beta"} {
		if err := w.SetHome(key, "b1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WAVNetUp(); err != nil {
		t.Fatal(err)
	}
	lookup := func(from string, at can.Point) []rendezvous.HostRecord {
		t.Helper()
		var recs []rendezvous.HostRecord
		var err error
		done := false
		w.Eng.Spawn("lookup", func(p *sim.Proc) {
			recs, err = w.M(from).WAV.LookupAttrs(p, at)
			done = true
		})
		w.Eng.RunFor(15 * time.Second)
		if !done || err != nil {
			t.Fatalf("LookupAttrs from %s: done=%v err=%v", from, done, err)
		}
		return recs
	}
	// Attribute lookups return every record in the queried point's CAN
	// zone; with a single broker that zone is the whole space, so alpha
	// must be among them pre-restart.
	has := func(recs []rendezvous.HostRecord, name string) bool {
		for _, r := range recs {
			if r.Name == name {
				return true
			}
		}
		return false
	}
	if recs := lookup("beta", can.Point{0.2, 0.2}); !has(recs, "alpha") {
		t.Fatalf("pre-restart lookup = %+v, want alpha present", recs)
	}

	// alpha leaves for good; the broker crashes and restarts empty.
	w.M("alpha").WAV.Leave()
	fi := w.Inject(
		KillBrokerAt(time.Second, "b1"),
		RestartBrokerAt(3*time.Second, "b1"),
	)
	// beta keeps pulsing, gets the unknown-session ack from the fresh
	// broker, and re-registers (republishing its attribute point).
	w.Eng.RunFor(30 * time.Second)
	if fails := fi.Failures(); len(fails) != 0 {
		t.Fatalf("fault schedule failed: %v", fails)
	}
	if w.M("beta").WAV.Reregisters == 0 {
		t.Fatal("beta never re-registered with the restarted broker")
	}
	b1, _ = w.Broker("b1")
	if !b1.HasSession("beta") {
		t.Fatal("restarted broker has no session for beta")
	}
	// The dead host's attribute point must be gone; beta's must resolve
	// exactly once (no duplicate or stale CAN entries).
	if recs := lookup("beta", can.Point{0.2, 0.2}); has(recs, "alpha") {
		t.Fatalf("restarted broker served stale attribute records: %+v", recs)
	}
	if recs := lookup("beta", can.Point{0.8, 0.8}); len(recs) != 1 || recs[0].Name != "beta" {
		t.Fatalf("post-restart lookup for beta = %+v, want exactly beta", recs)
	}
}
