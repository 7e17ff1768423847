package rendezvous

import (
	"sort"

	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// Federated rendezvous: brokers peer with each other and replicate host
// records *scoped by network*. A record for tenant network N is copied
// only to the brokers N's tenant spec names (the reconciled replication
// set), so a broker never learns about tenants it does not serve — the
// PIP/VNP-style partition of virtual-network state across mutually
// distrusting providers. Cross-broker lookups answer from the local
// replica store (no extra hop); cross-broker connects forward the punch
// orchestration to the target's home broker, which holds the only live
// NAT session to the target; peering allowances propagate so inter-VNI
// gateway connects keep working across the federation.

// fedPeer is the state kept per trusted peer broker beside its liveness
// clock (the entry's lastSeen). swept says the peer was found dead, the
// replicas and VIP records homed on it were dropped, and none naming it
// has been stored since (homedOn): nothing to look for when it is found
// dead again.
type fedPeer struct{ swept bool }

// Federate registers a trusted peer broker. Broker-to-broker messages
// (replication, withdrawal, forwarded connects, peering propagation)
// from addresses that were never federated are rejected and counted.
// Federating (or re-federating) a peer also resets its liveness clock,
// granting a fresh BrokerTTL of grace before it can be declared dead.
func (s *Server) Federate(peer netsim.Addr) {
	s.peers.put(peer, fedPeer{}, s.eng.Now())
}

// Federated reports whether the address is a trusted peer broker.
func (s *Server) Federated(peer netsim.Addr) bool { return s.peers.get(peer) != nil }

// SetNetBrokers installs the replication set of one virtual network:
// the federated brokers (excluding this one) that must hold replicas of
// the network's records. Installing a set also marks the network as
// served here, which is what admits inbound replicas for it. Records of
// current sessions are replicated to newly added peers immediately and
// withdrawn from removed ones, so reconfiguration converges without
// waiting for the refresh ticker.
func (s *Server) SetNetBrokers(net string, peers []netsim.Addr) {
	old := s.netBrokers[net]
	s.netBrokers[net] = append([]netsim.Addr(nil), peers...)
	oldSet := make(map[netsim.Addr]bool, len(old))
	for _, a := range old {
		oldSet[a] = true
	}
	newSet := make(map[netsim.Addr]bool, len(peers))
	for _, a := range peers {
		newSet[a] = true
	}
	for ses := s.sessions.head; ses != nil; ses = ses.next {
		if ses.rec.Net != net {
			continue
		}
		for _, a := range peers {
			if !oldSet[a] {
				s.sendReplicate(a, ses.rec)
			}
		}
		for _, a := range old {
			if !newSet[a] {
				s.sendWithdraw(a, ses.rec)
			}
		}
	}
}

// ClearNetBrokers removes a network from this broker's serve set:
// replicas held for it are dropped, sessions homed here are withdrawn
// from the old peers, and future replicas for it are rejected.
func (s *Server) ClearNetBrokers(net string) {
	s.SetNetBrokers(net, nil)
	delete(s.netBrokers, net)
	for rep := s.replicas.head; rep != nil; rep = rep.next {
		if rep.rec.Net == net {
			s.dropReplica(rep)
		}
	}
}

// ServesNet reports whether the network was configured on this broker
// (a replication set was installed, possibly empty).
func (s *Server) ServesNet(net string) bool {
	_, ok := s.netBrokers[net]
	return ok
}

// replicate copies a session record to the network's replication set —
// immediately, or batched onto the flush ticker when the server is
// configured with a replication interval.
func (s *Server) replicate(rec HostRecord) {
	if len(s.netBrokers[rec.Net]) == 0 {
		return
	}
	if s.cfg.ReplicateInterval > 0 {
		s.dirty[rec.Name] = true
		return
	}
	for _, peer := range s.netBrokers[rec.Net] {
		s.sendReplicate(peer, rec)
	}
}

// flushReplication sends every batched record (the replication-lag knob
// of the federation experiment).
func (s *Server) flushReplication() {
	if len(s.dirty) == 0 {
		return
	}
	for ses := s.sessions.head; ses != nil; ses = ses.next {
		if s.dirty[ses.key] {
			for _, peer := range s.netBrokers[ses.rec.Net] {
				s.sendReplicate(peer, ses.rec)
			}
		}
	}
	clear(s.dirty)
}

func (s *Server) sendReplicate(peer netsim.Addr, rec HostRecord) {
	s.ReplicationsOut++
	s.send(peer, &Msg{Kind: KindReplicate, Rec: &rec})
}

// withdraw retracts a record from the network's replication set
// (session expiry, rescope to another network, teardown). Withdrawals
// are never batched: a stale replica is a correctness hazard, a late
// replica only a slower connect.
func (s *Server) withdraw(rec HostRecord) {
	delete(s.dirty, rec.Name)
	for _, peer := range s.netBrokers[rec.Net] {
		s.sendWithdraw(peer, rec)
	}
}

func (s *Server) sendWithdraw(peer netsim.Addr, rec HostRecord) {
	s.WithdrawalsOut++
	s.send(peer, &Msg{Kind: KindWithdraw, Name: rec.Name, Net: rec.Net})
}

// brokerOfNet reports whether src is one of the brokers this server
// was configured to share the network with — the per-message trust
// check behind "mutually distrusting providers": being federated at
// all is not enough, the sender must be in the network's own set.
func (s *Server) brokerOfNet(net string, src netsim.Addr) bool {
	for _, peer := range s.netBrokers[net] {
		if peer == src {
			return true
		}
	}
	return false
}

// onReplicate stores a record received from a federated peer. The scope
// check is the trust boundary: replicas are accepted only for networks
// this broker was explicitly configured to serve, and only from the
// brokers of that network's own replication set.
func (s *Server) onReplicate(src netsim.Addr, m *Msg) {
	if m.Rec == nil || m.Rec.Name == "" || !s.Federated(src) ||
		!s.ServesNet(m.Rec.Net) || !s.brokerOfNet(m.Rec.Net, src) {
		s.RejectedFederation++
		return
	}
	// A broker trusted for one network must not overwrite another
	// network's replica of the same name: the old network's home broker
	// withdraws (or lets expire) its record first; until then the
	// existing replica stands.
	if rep := s.replicas.get(m.Rec.Name); rep != nil && rep.rec.Net != m.Rec.Net {
		s.RejectedFederation++
		return
	}
	// The mirror of onJoin's replica adoption: a federated peer claiming
	// the host homes with IT supersedes our stale session of the same
	// name — without this, a host that re-homed away (e.g. partitioned
	// from us but not from the federation) would keep being answered
	// with the dead-end session for a full TTL, shadowing the fresh
	// replica in lookups and connects. Only a session quiet for more
	// than the refresh interval is superseded: a host truly homed here
	// pulses far more often, so a live session can never be evicted by
	// a peer's (possibly stale) refresh replication.
	if ses := s.sessions.get(m.Rec.Name); ses != nil && ses.rec.Net == m.Rec.Net &&
		m.Rec.Server != s.Addr() &&
		ses.lastSeen < s.eng.Now().Add(-s.cfg.SessionTTL/2) {
		s.dropSession(ses)
		s.SessionsSuperseded++
	}
	s.ReplicationsIn++
	s.replicas.put(m.Rec.Name, m.Rec.clone(), s.eng.Now())
	s.homedOn(m.Rec.Server)
}

// homedOn notes that a record naming home as its broker was just stored:
// if that peer is dead and already swept, the next expiry sweeps again.
func (s *Server) homedOn(home netsim.Addr) {
	if p := s.peers.get(home); p != nil {
		p.rec.swept = false
	}
}

// onWithdraw drops a replica at its home broker's request.
func (s *Server) onWithdraw(src netsim.Addr, m *Msg) {
	rep := s.replicas.get(m.Name)
	if rep == nil || rep.rec.Net != m.Net {
		return
	}
	if !s.Federated(src) || !s.brokerOfNet(m.Net, src) {
		s.RejectedFederation++
		return
	}
	s.WithdrawalsIn++
	s.dropReplica(rep)
}

// expireReplicas drops replicas that stopped being refreshed — the
// home broker re-replicates live sessions at half the TTL, so a replica
// older than a full TTL belongs to a dead host or a dead broker.
func (s *Server) expireReplicas(cutoff sim.Time) {
	for rep := s.replicas.head; rep != nil && rep.lastSeen < cutoff; rep = rep.next {
		s.dropReplica(rep)
		s.ReplicaExpiries++
	}
}

// ---- broker liveness ----

// pulsePeers sends the broker liveness keepalive to every federated
// peer (the sender side of dead-broker detection).
func (s *Server) pulsePeers() {
	for _, peer := range s.FederatedPeers() {
		s.BrokerPulsesOut++
		s.send(peer, &Msg{Kind: KindBrokerPulse})
	}
}

// onBrokerPulse counts an inbound keepalive; the liveness clock itself
// was already bumped centrally in onPacket for any federated source.
func (s *Server) onBrokerPulse(src netsim.Addr) {
	if !s.Federated(src) {
		s.RejectedFederation++
		return
	}
	s.BrokerPulsesIn++
}

// brokerDead reports whether a federated peer has been silent past the
// liveness TTL. Addresses that were never federated (including this
// broker's own) are never "dead": staleness only makes sense for peers
// we expect keepalives from.
func (s *Server) brokerDead(peer netsim.Addr) bool {
	p := s.peers.get(peer)
	return p != nil && p.lastSeen < s.eng.Now().Add(-s.cfg.BrokerTTL)
}

// expireDeadBrokers withdraws the replicas of federated peers that went
// silent past the liveness TTL: their hosts are re-homing onto the
// survivors, and a record naming a dead home broker would keep steering
// forwarded connects into a black hole. The peer stays federated — if
// it restarts at the same address it is trusted (and pulsing) again.
// Dead peers are the head of the peer table; the replicas are walked
// only when one of them has not been swept since it died, and sweep
// tells expireVIPs to do the same for its records.
func (s *Server) expireDeadBrokers() (sweep bool) {
	cutoff := s.eng.Now().Add(-s.cfg.BrokerTTL)
	for p := s.peers.head; p != nil && p.lastSeen < cutoff; p = p.next {
		if !p.rec.swept {
			p.rec.swept, sweep = true, true
		}
	}
	if !sweep {
		return false
	}
	for rep := s.replicas.head; rep != nil; rep = rep.next {
		if s.brokerDead(rep.rec.Server) {
			s.dropReplica(rep)
			s.DeadBrokerReplicaDrops++
		}
	}
	return true
}

// onFwdConnect serves a forwarded connect at the target's home broker:
// a federated peer holds the requester's session, we hold the target's.
// Validation and punch/relay orchestration are shared with the CAN
// introduction path. The forwarding broker must be in the replication
// set of the requester's network or the target's — any other federated
// broker has no business brokering between these tenants.
func (s *Server) onFwdConnect(src netsim.Addr, m *Msg) {
	reqNet := ""
	if m.Rec != nil {
		reqNet = m.Rec.Net
	}
	targetNet := ""
	if ses := s.sessions.get(m.Name); ses != nil {
		targetNet = ses.rec.Net
	}
	if !s.Federated(src) || !(s.brokerOfNet(reqNet, src) || s.brokerOfNet(targetNet, src)) {
		s.RejectedFederation++
		return
	}
	s.FwdConnectsIn++
	s.introduceLocal(src, m, KindFwdConnectAck)
}

// propagatePeering pushes a peering allowance (or revocation) to every
// federated broker serving either network.
func (s *Server) propagatePeering(kind Kind, netA, netB string) {
	sent := make(map[netsim.Addr]bool)
	for _, net := range []string{netA, netB} {
		for _, peer := range s.netBrokers[net] {
			if sent[peer] {
				continue
			}
			sent[peer] = true
			if kind == KindPeerAllow {
				s.PeerAllowsOut++
			} else {
				s.PeerRevokesOut++
			}
			s.send(peer, &Msg{Kind: kind, Nets: []string{netA, netB}})
		}
	}
}

// onPeerPropagation applies a propagated allowance. It deliberately does
// not re-propagate: the origin broker fans out to every serving peer
// itself, which keeps the exchange loop-free. The sender must be in a
// replication set of one of the two networks.
func (s *Server) onPeerPropagation(src netsim.Addr, m *Msg) {
	if !s.Federated(src) || len(m.Nets) != 2 ||
		!(s.brokerOfNet(m.Nets[0], src) || s.brokerOfNet(m.Nets[1], src)) {
		s.RejectedFederation++
		return
	}
	key := peerKey(m.Nets[0], m.Nets[1])
	if m.Kind == KindPeerAllow {
		s.PeerAllowsIn++
		s.peered[key] = true
	} else {
		s.PeerRevokesIn++
		delete(s.peered, key)
	}
}

// PeeringAllowed reports whether brokered connects between the two
// networks are currently permitted here.
func (s *Server) PeeringAllowed(netA, netB string) bool { return s.netsLinked(netA, netB) }

// HasSession reports whether the named host is homed on this broker.
func (s *Server) HasSession(name string) bool { return s.sessions.get(name) != nil }

// HasReplica reports whether this broker holds a federated replica of
// the named host.
func (s *Server) HasReplica(name string) bool { return s.replicas.get(name) != nil }

// ReplicaCount reports the number of replicas held (after expiry).
func (s *Server) ReplicaCount() int {
	s.expire()
	return s.replicas.len()
}

// RecordsFor counts every record of one virtual network this broker
// holds, homed sessions and replicas alike. The federation's scope
// invariant is RecordsFor(n) == 0 on any broker n's tenant spec does
// not name.
func (s *Server) RecordsFor(net string) int {
	s.expire()
	count := 0
	for ses := s.sessions.head; ses != nil; ses = ses.next {
		if ses.rec.Net == net {
			count++
		}
	}
	for rep := s.replicas.head; rep != nil; rep = rep.next {
		if rep.rec.Net == net {
			count++
		}
	}
	return count
}

// ScrapeInto copies the broker's control-plane counters into r under l:
// session traffic, relay usage, and the federation's replication,
// forwarding and expiry activity.
func (s *Server) ScrapeInto(r *obs.Registry, l obs.Labels) {
	add := func(name string, v uint64) { r.Counter(name, l).Add(v) }
	add("joins", s.Joins)
	add("pulses", s.Pulses)
	add("lookups", s.Lookups)
	add("connects", s.Connects)
	add("relayed_introductions", s.RelayedIntroductions)
	add("relay_channels", s.RelayChannels)
	add("relay_frames", s.RelayFrames)
	add("replications_out", s.ReplicationsOut)
	add("replications_in", s.ReplicationsIn)
	add("withdrawals_out", s.WithdrawalsOut)
	add("withdrawals_in", s.WithdrawalsIn)
	add("fwd_connects_out", s.FwdConnectsOut)
	add("fwd_connects_in", s.FwdConnectsIn)
	add("peer_allows_out", s.PeerAllowsOut)
	add("peer_allows_in", s.PeerAllowsIn)
	add("peer_revokes_out", s.PeerRevokesOut)
	add("peer_revokes_in", s.PeerRevokesIn)
	add("session_expiries", s.SessionExpiries)
	add("replica_expired", s.ReplicaExpiries)
	add("rejected_federation", s.RejectedFederation)
	add("broker_pulses_out", s.BrokerPulsesOut)
	add("broker_pulses_in", s.BrokerPulsesIn)
	add("replica_dead_broker", s.DeadBrokerReplicaDrops)
	add("replica_adopted", s.ReplicaAdoptions)
	add("session_superseded", s.SessionsSuperseded)
	add("stale_fwd_rejects", s.StaleFwdRejects)
	add("vip_announces_in", s.VIPAnnouncesIn)
	add("vip_withdrawals_in", s.VIPWithdrawalsIn)
	add("vip_replications_out", s.VIPReplicationsOut)
	add("vip_replications_in", s.VIPReplicationsIn)
	add("vip_retracts_out", s.VIPRetractsOut)
	add("vip_retracts_in", s.VIPRetractsIn)
	add("vip_lookups", s.VIPLookups)
	add("vip_expiries", s.VIPExpiries)
	add("vip_dead_broker", s.DeadBrokerVIPDrops)
	add("vip_rejected", s.RejectedVIP)
}

// PeerDead reports whether a federated peer broker has been silent past
// the liveness TTL (diagnostics and chaos assertions).
func (s *Server) PeerDead(peer netsim.Addr) bool { return s.brokerDead(peer) }

// FederatedPeers lists the trusted peer brokers, sorted for stable
// iteration in tests and diagnostics.
func (s *Server) FederatedPeers() []netsim.Addr {
	out := make([]netsim.Addr, 0, s.peers.len())
	for p := s.peers.head; p != nil; p = p.next {
		out = append(out, p.key)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].IP < out[j].IP || (out[i].IP == out[j].IP && out[i].Port < out[j].Port)
	})
	return out
}
