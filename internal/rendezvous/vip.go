package rendezvous

import (
	"sort"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Tenant service VIPs at the rendezvous layer: the service controller
// announces a VIP record per healthy backend through the backend's (or
// the service anchor's) home broker, and the record is replicated
// strictly within the network's declared broker set — the same trust
// boundary as host-record replication. Cross-broker lookups of a VIP
// then resolve fabric-wide: any broker of the set can answer "who backs
// service S" sorted by the requester's policy (declared order for
// failover-ordered, locator distance for anycast-nearest). Withdrawal
// is immediate and never batched, exactly like host-record withdrawal:
// a stale VIP record steers new connections into a dead backend.

// Steering policies a VIPRecord may carry.
const (
	PolicyAnycastNearest  = "anycast-nearest"
	PolicyFailoverOrdered = "failover-ordered"
)

// VIPRecord advertises one healthy backend of a tenant service.
type VIPRecord struct {
	Service string
	Net     string
	VIP     netsim.IP
	Backend string      // backend name within the service
	Host    string      // WAVNet host carrying the backend
	Order   int         // failover-ordered rank
	Policy  string      // steering policy of the service
	Server  netsim.Addr // home broker of the record
}

// key identifies a record: one entry per (network, service, backend).
func (r VIPRecord) key() string { return r.Net + "/" + r.Service + "/" + r.Backend }

// onVIPAnnounce stores (or refreshes) a VIP record announced by a host
// homed here and replicates it within the network's broker set. The
// sender must hold a live session scoped to the record's network — a
// VIP record is tenant state and rides the same trust the host's own
// registration earned.
func (s *Server) onVIPAnnounce(src netsim.Addr, m *Msg) {
	if m.VIP == nil || m.VIP.Service == "" || m.VIP.Backend == "" {
		return
	}
	ses := s.sessions.get(m.Name)
	if ses == nil || ses.rec.Net != m.VIP.Net || ses.rec.Mapped != src {
		s.RejectedVIP++
		return
	}
	s.VIPAnnouncesIn++
	rec := *m.VIP
	rec.Server = s.Addr()
	s.putVIP(rec)
	for _, peer := range s.netBrokers[rec.Net] {
		s.VIPReplicationsOut++
		s.send(peer, &Msg{Kind: KindVIPReplicate, VIP: &rec})
	}
}

// onVIPWithdraw drops a record at its announcer's request and retracts
// it from the network's broker set. Withdrawal is validated like the
// announcement, but a session that just expired may still withdraw — a
// dying backend must be able to clean up after itself.
func (s *Server) onVIPWithdraw(src netsim.Addr, m *Msg) {
	if m.VIP == nil {
		return
	}
	e := s.vipRecs.get(m.VIP.key())
	if e == nil {
		return
	}
	if ses := s.sessions.get(m.Name); ses != nil && ses.rec.Mapped != src {
		s.RejectedVIP++
		return
	}
	s.VIPWithdrawalsIn++
	s.vipRecs.drop(e)
	for _, peer := range s.netBrokers[e.rec.Net] {
		s.VIPRetractsOut++
		s.send(peer, &Msg{Kind: KindVIPRetract, VIP: &e.rec})
	}
}

// onVIPReplicate stores a record received from a federated peer, under
// the same scope check as host-record replication: only for networks
// configured here, only from brokers of that network's own set.
func (s *Server) onVIPReplicate(src netsim.Addr, m *Msg) {
	if m.VIP == nil || !s.Federated(src) ||
		!s.ServesNet(m.VIP.Net) || !s.brokerOfNet(m.VIP.Net, src) {
		s.RejectedFederation++
		return
	}
	s.VIPReplicationsIn++
	s.putVIP(*m.VIP)
}

// putVIP stores a record as seen now, and notes what expiry must look at
// again because of it: a local record whose host is unknown here, or a
// replica homed on a peer already swept (homedOn).
func (s *Server) putVIP(rec VIPRecord) {
	s.vipRecs.put(rec.key(), rec, s.eng.Now())
	if rec.Server == s.Addr() && !s.hostKnown(rec.Host, rec.Net) {
		s.vipsUngrounded = true
	}
	s.homedOn(rec.Server)
}

// onVIPRetract drops a replicated record at its home broker's request.
func (s *Server) onVIPRetract(src netsim.Addr, m *Msg) {
	if m.VIP == nil {
		return
	}
	e := s.vipRecs.get(m.VIP.key())
	if e == nil {
		return
	}
	if !s.Federated(src) || !s.brokerOfNet(e.rec.Net, src) {
		s.RejectedFederation++
		return
	}
	s.VIPRetractsIn++
	s.vipRecs.drop(e)
}

// onVIPLookup answers "who backs service S in network N" from the local
// VIP record store, sorted for the requester: failover-ordered services
// by their declared rank, anycast services by the locator's distance
// between the requester and each backend's host (unknown distances
// last). The requester gets healthy backends only — withdrawal already
// removed the dead ones.
func (s *Server) onVIPLookup(src netsim.Addr, m *Msg) {
	s.VIPLookups++
	recs := s.VIPRecords(m.Net, m.Service)
	if len(recs) == 0 {
		s.send(src, &Msg{Kind: KindError, ID: m.ID,
			Error: "no such service: " + m.Service, Code: CodeNotFound})
		return
	}
	anycast := recs[0].Policy != PolicyFailoverOrdered
	sort.SliceStable(recs, func(i, j int) bool {
		if anycast {
			di, iok := s.locator.RTT(m.Name, recs[i].Host)
			dj, jok := s.locator.RTT(m.Name, recs[j].Host)
			if iok != jok {
				return iok
			}
			if iok && jok && di != dj {
				return di < dj
			}
			return recs[i].Backend < recs[j].Backend
		}
		if recs[i].Order != recs[j].Order {
			return recs[i].Order < recs[j].Order
		}
		return recs[i].Backend < recs[j].Backend
	})
	s.send(src, &Msg{Kind: KindVIPReply, ID: m.ID, VIPs: recs})
}

// refreshVIPs re-replicates locally announced VIP records at the
// refresh tick (records travel with sessions: half the TTL), so a
// replica outlives its initial copy as long as the home broker lives.
func (s *Server) refreshVIPs() {
	// Touching moves a record to the tail, so the walk ends at the
	// record that was last when it began.
	last := s.vipRecs.tail
	for next := s.vipRecs.head; next != nil; {
		e := next
		if next = e.next; e == last {
			next = nil
		}
		if e.rec.Server != s.Addr() {
			continue
		}
		s.vipRecs.touch(e, s.eng.Now())
		for _, peer := range s.netBrokers[e.rec.Net] {
			s.VIPReplicationsOut++
			s.send(peer, &Msg{Kind: KindVIPReplicate, VIP: &e.rec})
		}
	}
}

// expireVIPs drops VIP records that lost their ground: replicas no
// longer refreshed (dead home broker), replicas homed on a federated
// peer that went silent past the liveness TTL, and local records whose
// backing host vanished from the network entirely (neither session nor
// replica — the backend's host died without withdrawing). The first is
// the head of the table; the second is looked for only when sweepDead
// says a dead peer has not been swept yet, the third only when a host
// record went away since the last look.
func (s *Server) expireVIPs(cutoff sim.Time, sweepDead bool) {
	self := s.Addr()
	for e := s.vipRecs.head; e != nil && e.lastSeen < cutoff; e = e.next {
		// A local record is kept fresh by refreshVIPs and never ages out.
		if e.rec.Server != self {
			s.vipRecs.drop(e)
			s.VIPExpiries++
		}
	}
	if !sweepDead && !s.vipsUngrounded {
		return
	}
	for e := s.vipRecs.head; e != nil; e = e.next {
		switch {
		case e.rec.Server != self:
			if sweepDead && s.brokerDead(e.rec.Server) {
				s.vipRecs.drop(e)
				s.DeadBrokerVIPDrops++
			}
		case !s.hostKnown(e.rec.Host, e.rec.Net):
			s.vipRecs.drop(e)
			s.VIPExpiries++
		}
	}
	s.vipsUngrounded = false
}

// hostKnown reports whether the named host is visible in the network
// here, as a homed session or a federated replica.
func (s *Server) hostKnown(name, net string) bool {
	if ses := s.sessions.get(name); ses != nil && ses.rec.Net == net {
		return true
	}
	rep := s.replicas.get(name)
	return rep != nil && rep.rec.Net == net
}

// VIPRecords returns the stored records of one service (all services of
// the network when service is empty), sorted by key for determinism.
func (s *Server) VIPRecords(net, service string) []VIPRecord {
	var es []*entry[string, VIPRecord]
	for e := s.vipRecs.head; e != nil; e = e.next {
		if e.rec.Net == net && (service == "" || e.rec.Service == service) {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	out := make([]VIPRecord, len(es))
	for i, e := range es {
		out[i] = e.rec
	}
	return out
}

// VIPRecordsFor counts every VIP record held for one network. The
// federation's scope invariant extends to services: VIPRecordsFor(n)
// == 0 on any broker n's tenant spec does not name.
func (s *Server) VIPRecordsFor(net string) int {
	s.expire()
	return len(s.VIPRecords(net, ""))
}

// RTT reports the locator's stored distance between two named hosts
// (false when either is unknown or no measurement was ever reported).
func (l *Locator) RTT(a, b string) (sim.Duration, bool) {
	i, iok := l.names[a]
	j, jok := l.names[b]
	if !iok || !jok || l.rtts[i][j] == 0 {
		return 0, false
	}
	return l.rtts[i][j], true
}
