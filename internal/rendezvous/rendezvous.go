// Package rendezvous implements WAVNet's rendezvous servers: publicly
// addressable nodes that (1) register NATed hosts and keep a session
// alive with them so connection requests can be relayed inward, (2)
// organize themselves in a CAN overlay that indexes host resource
// records, (3) broker UDP hole punching between pairs of hosts, and (4)
// run the distance locator feeding the locality-sensitive grouping
// strategy.
package rendezvous

import (
	"fmt"
	"sort"

	"wavnet/internal/can"
	"wavnet/internal/grouping"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// DefaultPort is the well-known broker port.
const DefaultPort = 4342

// relayIdle expires relay channels with no traffic.
const relayIdle = 120 * sim.Second

// CodeNotFound marks an error reply whose cause may be transient in a
// federation — the name may exist on a broker whose record replication
// has not converged here yet — so clients may back off and retry.
const CodeNotFound = "not-found"

// CodeUnknownSession marks a pulse-ack from a broker that holds no
// session for the pulsing host: the broker restarted (or the session
// expired) and the host must re-register to become reachable again.
const CodeUnknownSession = "unknown-session"

// HostRecord is what the rendezvous layer knows about a registered host.
// It has one encoding, the control codec's, in messages and in the CAN
// index alike (publish).
type HostRecord struct {
	Name   string
	Mapped netsim.Addr // NAT external address of the host's WAVNet socket
	NAT    nat.Type
	// Attrs is the host's resource state (e.g. normalized CPU, memory),
	// mapped to a CAN point for attribute queries.
	Attrs can.Point
	// Server is the broker responsible for this host (where connection
	// requests must be relayed through).
	Server netsim.Addr
	// Net and VNI scope the host to one virtual network (tenant).
	// Discovery and brokered connects never cross networks; the empty
	// name is the default network every legacy host lives in.
	Net string
	VNI uint32
}

// PeerRTT is one measured round trip in an rtt-report.
type PeerRTT struct {
	Peer string
	NS   int64
}

// clone copies the record with an Attrs array of its own.
func (r *HostRecord) clone() HostRecord {
	c := *r
	c.Attrs = append(can.Point(nil), r.Attrs...)
	return c
}

// Msg is every control message: one wide struct whose Kind says which
// fields mean something (the kinds table in codec.go says which may be
// set at all).
type Msg struct {
	Kind  Kind
	ID    uint64
	Name  string
	Error string
	// Code machine-classifies an error ("not-found" marks the transient
	// ones a federated fabric may retry: the target may exist on another
	// broker whose replication has not converged yet).
	Code string
	Rec  *HostRecord
	Peer *HostRecord

	// Net scopes lookups and group queries to the requester's virtual
	// network ("" = the default network).
	Net string

	// Nets carries the two virtual networks of a propagated peering
	// allowance (peer-allow / peer-revoke).
	Nets []string

	// Lookup / grouping.
	Attrs   can.Point
	Records []HostRecord
	K       int
	Group   []string
	RTTs    []PeerRTT // ascending by peer

	// Relay fallback (unpunchable NAT pairs).
	RelayChan uint64
	RelayAddr netsim.Addr
}

// Config tunes a rendezvous server.
type Config struct {
	Port       uint16       // broker port (default 4342)
	CANPort    uint16       // CAN overlay port (default 4343)
	STUNPort   uint16       // primary STUN port (default 3478)
	SessionTTL sim.Duration // host records expire without pulses (default 60 s)

	// DisableRelay turns off the relay fallback for unpunchable NAT
	// pairs, restoring the paper's connect-refused behaviour.
	DisableRelay bool

	// ReplicateInterval batches federated record replication: joins mark
	// the record dirty and a ticker flushes the batch every interval.
	// Zero replicates immediately on join (no added lag). Withdrawals are
	// always immediate. The federation experiment sweeps this to measure
	// how replication lag delays cross-broker visibility.
	ReplicateInterval sim.Duration

	// BrokerPulseInterval spaces the liveness keepalives this broker
	// sends to its federated peers (default SessionTTL/4). Any message
	// from a peer counts as liveness; the pulse only covers idle links.
	BrokerPulseInterval sim.Duration
	// BrokerTTL is the federation's liveness TTL: a federated peer
	// silent for longer is considered dead — its replicas are withdrawn
	// here and forwarded connects toward it are refused as transient
	// not-found so requesters retry after the targets re-home (default
	// SessionTTL).
	BrokerTTL sim.Duration

	// Name labels this broker's spans and scraped series (defaults to
	// the broker's dial address); Tracer records the punch-orchestration
	// spans (request → fwd-connect → ack), nil disables tracing.
	Name   string
	Tracer *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = DefaultPort
	}
	if c.CANPort == 0 {
		c.CANPort = 4343
	}
	if c.STUNPort == 0 {
		c.STUNPort = 3478
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 60 * sim.Second
	}
	if c.BrokerPulseInterval <= 0 {
		c.BrokerPulseInterval = c.SessionTTL / 4
	}
	if c.BrokerTTL <= 0 {
		c.BrokerTTL = c.SessionTTL
	}
	return c
}

// pendingIntro is one connect forwarded to the target's home broker
// (fwd-connect), awaiting its ack. Entries are swept a session TTL after
// they were made: a remote broker that died mid-introduction must not
// leak them forever (the requesting host gave up long before).
type pendingIntro struct {
	host   netsim.Addr // requesting host
	hostID uint64      // the host's connect request ID
	remote netsim.Addr // the broker the connect was forwarded to; only it may resolve
	span   *obs.Span   // the punch span, closed when the forward resolves
}

// Server is one rendezvous server.
type Server struct {
	host *netsim.Host
	eng  *sim.Engine
	cfg  Config
	sock *netsim.UDPSocket
	dec  Decoder // onPacket's reused message

	can  *can.Node
	stun *stun.Server

	// sessions are the hosts homed here, by name, aged by their pulses.
	sessions aged[string, HostRecord]
	locator  *Locator
	relays   map[uint64]*relayChannel

	// pendingIntro correlates forwarded connects back to the requesting
	// host: the reply must go to its address carrying its original
	// request ID, not the forward's.
	pendingIntro aged[uint64, pendingIntro]

	// peered holds the network pairs the control plane may introduce
	// hosts across (VPC peering); lookups stay strictly scoped.
	peered map[[2]string]bool

	// Federation state (federation.go): trusted peer brokers aged by
	// their liveness clock — bumped by any message from the peer (broker
	// pulses cover idle links), silent past BrokerTTL is dead, see
	// expireDeadBrokers — the per-network replication sets, the replicas
	// received from peers (by host name, each naming its home broker in
	// rec.Server), and the dirty set pending a batched replication flush.
	peers      aged[netsim.Addr, fedPeer]
	netBrokers map[string][]netsim.Addr
	replicas   aged[string, HostRecord]
	dirty      map[string]bool

	// Tickers, kept so Close can stop them (a closed broker must not
	// keep publishing or pulsing from beyond the grave).
	refreshTick *sim.Ticker
	replTick    *sim.Ticker
	brokerTick  *sim.Ticker
	closed      bool

	nextID uint64

	// Stats.
	Joins, Pulses, Connects, Lookups uint64
	RelayChannels                    uint64 // channels ever created
	RelayFrames, RelayBytes          uint64 // data-plane relay traffic
	// Federation stats.
	ReplicationsOut, ReplicationsIn  uint64
	WithdrawalsOut, WithdrawalsIn    uint64
	FwdConnectsOut, FwdConnectsIn    uint64
	PeerAllowsOut, PeerAllowsIn      uint64
	PeerRevokesOut, PeerRevokesIn    uint64
	SessionExpiries, ReplicaExpiries uint64
	// Broker-failover stats: liveness keepalives exchanged, replicas
	// dropped because their home broker went silent past the liveness
	// TTL, replicas superseded by the host re-homing HERE, stale local
	// sessions superseded by a peer's replica of a host that re-homed
	// AWAY, and forwarded connects refused because the target's home
	// broker is dead.
	BrokerPulsesOut, BrokerPulsesIn uint64
	DeadBrokerReplicaDrops          uint64
	ReplicaAdoptions                uint64
	SessionsSuperseded              uint64
	StaleFwdRejects                 uint64
	// RejectedFederation counts broker-to-broker messages refused because
	// the source is not a federated peer or the record's network is not
	// served here (the scope check).
	RejectedFederation uint64
}

// NewServer starts a rendezvous server on a public host. stunAltIP must
// be an unused public IP at the same host for the STUN alternate address.
func NewServer(host *netsim.Host, stunAltIP netsim.IP, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		host:       host,
		eng:        host.Engine(),
		cfg:        cfg,
		relays:     make(map[uint64]*relayChannel),
		peered:     make(map[[2]string]bool),
		netBrokers: make(map[string][]netsim.Addr),
		dirty:      make(map[string]bool),
		locator:    NewLocator(),
	}
	if s.cfg.Name == "" {
		s.cfg.Name = s.Addr().String()
	}
	sock, err := host.BindUDP(cfg.Port, s.onPacket)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	node, err := can.NewNode(host, cfg.CANPort)
	if err != nil {
		return nil, err
	}
	s.can = node
	srv, err := stun.NewServer(host, stunAltIP, cfg.STUNPort, cfg.STUNPort+1)
	if err != nil {
		return nil, err
	}
	s.stun = srv
	// Republish live session records into the CAN (and re-replicate them
	// to federated brokers) at half the TTL so they outlive their initial
	// put as long as the host keeps pulsing.
	s.refreshTick = sim.NewTicker(s.eng, cfg.SessionTTL/2, func() {
		s.expire()
		for ses := s.sessions.head; ses != nil; ses = ses.next {
			s.publish(ses.rec)
			s.replicate(ses.rec)
		}
	})
	if cfg.ReplicateInterval > 0 {
		s.replTick = sim.NewTicker(s.eng, cfg.ReplicateInterval, func() { s.flushReplication() })
	}
	// Broker-to-broker liveness keepalives: cover idle federation links
	// so peer death is detected even with no replication traffic.
	s.brokerTick = sim.NewTicker(s.eng, cfg.BrokerPulseInterval, func() { s.pulsePeers() })
	return s, nil
}

// publish writes a host record into the CAN index.
func (s *Server) publish(rec HostRecord) {
	if !s.can.Active() {
		return
	}
	res := can.Resource{
		ID:    rec.Name,
		Key:   s.recordPoint(rec),
		Value: appendRecord(nil, &rec),
	}
	s.can.Put(res, 2*s.cfg.SessionTTL, func(error) {})
}

// Bootstrap makes this server the first CAN member.
func (s *Server) Bootstrap() { s.can.Bootstrap() }

// JoinOverlay joins the CAN via another server's overlay address.
func (s *Server) JoinOverlay(seed netsim.Addr, cb func(error)) { s.can.Join(seed, cb) }

// Addr returns the broker address hosts should contact.
func (s *Server) Addr() netsim.Addr { return netsim.Addr{IP: s.host.IP(), Port: s.cfg.Port} }

// OverlayAddr returns the CAN overlay address for other servers.
func (s *Server) OverlayAddr() netsim.Addr { return s.can.Addr() }

// STUNAddr returns the primary STUN address.
func (s *Server) STUNAddr() netsim.Addr {
	return netsim.Addr{IP: s.host.IP(), Port: s.cfg.STUNPort}
}

// Locator exposes the server's distance locator.
func (s *Server) Locator() *Locator { return s.locator }

// Shutdown closes the broker socket abruptly — a crash, not a graceful
// leave. Registered sessions, pending introductions and relay channels
// all become unreachable; established direct tunnels are unaffected
// because the data plane never touches the broker.
func (s *Server) Shutdown() { s.sock.Close() }

// Close crashes the whole broker machine's service set: the broker
// socket, the STUN service, the CAN overlay node and every ticker stop.
// All session, replica and CAN state is lost; a fresh Server may rebind
// the same host and ports afterwards (scenario.World.RestartBroker).
// The chaos harness uses this as the kill primitive: unlike Shutdown,
// nothing keeps answering STUN or republishing from the dead broker.
func (s *Server) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.refreshTick.Stop()
	if s.replTick != nil {
		s.replTick.Stop()
	}
	s.brokerTick.Stop()
	s.sock.Close()
	s.can.Close()
	s.stun.Close()
}

// Closed reports whether the broker was killed via Close.
func (s *Server) Closed() bool { return s.closed }

// Sessions reports the number of live host sessions.
func (s *Server) Sessions() int {
	s.expire()
	return s.sessions.len()
}

// expire drops what timed out. Every table is aged, so it looks at the
// head of each and walks on only past entries that are due.
func (s *Server) expire() {
	cutoff := s.eng.Now().Add(-s.cfg.SessionTTL)
	for ses := s.sessions.head; ses != nil && ses.lastSeen < cutoff; ses = ses.next {
		s.sessions.drop(ses)
		s.SessionExpiries++
		// The federation must not keep advertising a dead host.
		s.withdraw(ses.rec)
	}
	s.expireReplicas(cutoff)
	s.expireDeadBrokers()
	for pi := s.pendingIntro.head; pi != nil && pi.lastSeen < cutoff; pi = pi.next {
		pi.rec.span.Event("expired: fwd-connect never acked")
		pi.rec.span.End()
		s.pendingIntro.drop(pi)
	}
}

func (s *Server) send(to netsim.Addr, m *Msg) { Send(s.sock, to, m) }

func (s *Server) onPacket(pkt netsim.Packet) {
	if id, _, ok := OpenRelay(pkt.Payload); ok {
		s.onRelay(id, pkt)
		return
	}
	// m is the server's one reused message, valid until this handler
	// returns: a handler copies what it keeps (HostRecord.clone, the
	// fields a later callback reads).
	m, err := s.dec.Decode(pkt.Payload)
	if err != nil {
		return
	}
	// Any message from a federated peer proves it alive; the dedicated
	// broker-pulse only covers otherwise idle links.
	if p := s.peers.get(pkt.Src); p != nil {
		s.peers.touch(p, s.eng.Now())
	}
	switch m.Kind {
	case KindJoin:
		s.onJoin(pkt.Src, m)
	case KindPulse:
		s.onPulse(pkt.Src, m)
	case KindLookup:
		s.onLookup(pkt.Src, m)
	case KindConnect:
		s.onConnect(pkt.Src, m)
	case KindGroupQuery:
		s.onGroupQuery(pkt.Src, m)
	case KindRTTReport:
		s.onRTTReport(m)
	case KindReplicate:
		s.onReplicate(pkt.Src, m)
	case KindWithdraw:
		s.onWithdraw(pkt.Src, m)
	case KindFwdConnect:
		s.onFwdConnect(pkt.Src, m)
	case KindFwdConnectAck:
		s.onFwdConnectAck(pkt.Src, m)
	case KindPeerAllow, KindPeerRevoke:
		s.onPeerPropagation(pkt.Src, m)
	case KindBrokerPulse:
		s.onBrokerPulse(pkt.Src)
	case KindError:
		// A fwd-connect refused at the target's home broker: resolve it so
		// the requesting host fails fast instead of waiting out its
		// timeout. Hosts never send errors to brokers; stray IDs are
		// ignored.
		s.onFwdConnectAck(pkt.Src, m)
	}
	if s.host.Network().Pool().Poisoned() {
		s.dec.Poison()
	}
}

// onJoin registers a host and publishes its record into the CAN.
func (s *Server) onJoin(src netsim.Addr, m *Msg) {
	if m.Rec == nil || m.Rec.Name == "" {
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "bad join"})
		return
	}
	s.Joins++
	rec := m.Rec.clone()
	// The observed source is authoritative for the host's reachable
	// address (it is the NAT mapping of the host's WAVNet socket).
	rec.Mapped = src
	rec.Server = s.Addr()
	// A re-registration that rescopes the host to another network must
	// pull the stale record out of the old network's federation.
	if prev := s.sessions.get(rec.Name); prev != nil && prev.rec.Net != rec.Net {
		s.withdraw(prev.rec)
	}
	// A host re-homing HERE supersedes the replica its old broker pushed:
	// the live session is authoritative, and keeping the replica would
	// leave a record naming the (likely dead) old home as forwarding
	// target.
	if rep := s.replicas.get(rec.Name); rep != nil && rep.rec.Net == rec.Net {
		s.replicas.drop(rep)
		s.ReplicaAdoptions++
	}
	s.sessions.put(rec.Name, rec, s.eng.Now())
	s.publish(rec)
	s.replicate(rec)
	s.send(src, &Msg{Kind: KindJoinAck, ID: m.ID, Rec: &rec})
}

// recordPoint maps a host record to its CAN key: the attribute vector,
// or a name hash when no attributes are given.
func (s *Server) recordPoint(rec HostRecord) can.Point {
	if len(rec.Attrs) == can.Dims && rec.Attrs.Valid() {
		return rec.Attrs
	}
	return namePoint(rec.Name, can.Dims)
}

// namePoint hashes a name into a CAN point (FNV-1a per dimension).
func namePoint(name string, dims int) can.Point {
	p := make(can.Point, dims)
	var h uint64 = 14695981039346656037
	for d := 0; d < dims; d++ {
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= 1099511628211
		}
		h ^= uint64(d+1) * 0x9E3779B97F4A7C15
		h *= 1099511628211
		p[d] = float64(h%1_000_000) / 1_000_000
	}
	return p
}

// onPulse refreshes the session and acknowledges, so hosts can tell a
// live broker from a dead one (home-broker silence triggers re-homing).
// A pulse for a session this broker does not hold is answered with
// CodeUnknownSession: the broker restarted and lost its state, and the
// host must re-register to become reachable again.
func (s *Server) onPulse(src netsim.Addr, m *Msg) {
	s.Pulses++
	ses := s.sessions.get(m.Name)
	if ses == nil {
		s.send(src, &Msg{Kind: KindPulseAck, Name: m.Name, Code: CodeUnknownSession})
		return
	}
	s.sessions.touch(ses, s.eng.Now())
	ses.rec.Mapped = src
	s.send(src, &Msg{Kind: KindPulseAck, Name: m.Name})
}

func (s *Server) onRTTReport(m *Msg) {
	for _, r := range m.RTTs {
		s.locator.Report(m.Name, r.Peer, sim.Duration(r.NS))
	}
}

// locate finds the record of the host called name and hands it, with
// q, to then: its session here, else a federated replica, both at once,
// else the copy its home broker put in the CAN. A CAN copy naming this
// broker is skipped: it outlived its session, since the CAN keeps
// records for two session TTLs. then gets nil when no one knows the
// name, or the CAN lookup's error. The caller's state travels as q to a
// method rather than in a closure, so answering from a session or a
// replica allocates nothing: lookups by name are a hot path.
func locate[Q any](s *Server, name string, q Q, then func(*Server, Q, *HostRecord, error)) {
	if ses := s.sessions.get(name); ses != nil {
		then(s, q, &ses.rec, nil)
		return
	}
	if rep := s.replicas.get(name); rep != nil {
		then(s, q, &rep.rec, nil)
		return
	}
	s.can.Lookup(namePoint(name, can.Dims), func(res can.LookupResult, err error) {
		if err != nil {
			then(s, q, nil, err)
			return
		}
		for _, r := range res.Resources {
			var rec HostRecord
			if r.ID == name && readRecord(r.Value, &rec) && rec.Server != s.Addr() {
				then(s, q, &rec, nil)
				return
			}
		}
		then(s, q, nil, nil)
	})
}

// lookupQuery is a lookup by name waiting on locate.
type lookupQuery struct {
	src netsim.Addr
	id  uint64
	net string
}

// answerLookup replies with the record locate found when it is in the
// requester's network: a record of another network is invisible, not
// an error.
func (s *Server) answerLookup(q lookupQuery, rec *HostRecord, err error) {
	if err != nil {
		s.send(q.src, &Msg{Kind: KindError, ID: q.id, Error: err.Error()})
		return
	}
	reply := Msg{Kind: KindLookupReply, ID: q.id}
	if rec != nil && rec.Net == q.net {
		reply.Records = []HostRecord{*rec}
	}
	s.send(q.src, &reply)
}

// onLookup serves resource queries: by name (locate), or by attribute
// point (CAN owner's records). Every path is scoped to the requester's
// virtual network: records from other tenants are simply invisible, so
// a lookup that only matches foreign hosts returns an empty record set
// rather than an error.
func (s *Server) onLookup(src netsim.Addr, m *Msg) {
	s.Lookups++
	s.expire()
	if m.Name != "" {
		locate(s, m.Name, lookupQuery{src: src, id: m.ID, net: m.Net}, (*Server).answerLookup)
		return
	}
	if len(m.Attrs) > 0 {
		id, net := m.ID, m.Net
		s.can.Lookup(append(can.Point(nil), m.Attrs...), func(res can.LookupResult, err error) {
			if err != nil {
				s.send(src, &Msg{Kind: KindError, ID: id, Error: err.Error()})
				return
			}
			var recs []HostRecord
			for _, r := range res.Resources {
				var rec HostRecord
				if readRecord(r.Value, &rec) && rec.Net == net {
					recs = append(recs, rec)
				}
			}
			sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
			s.send(src, &Msg{Kind: KindLookupReply, ID: id, Records: recs})
		})
		return
	}
	// No criteria: all co-tenant records this broker holds, homed and
	// replicated alike (diagnostics).
	var recs []HostRecord
	for ses := s.sessions.head; ses != nil; ses = ses.next {
		if ses.rec.Net == m.Net {
			recs = append(recs, ses.rec)
		}
	}
	for rep := s.replicas.head; rep != nil; rep = rep.next {
		if s.sessions.get(rep.key) == nil && rep.rec.Net == m.Net {
			recs = append(recs, rep.rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	s.send(src, &Msg{Kind: KindLookupReply, ID: m.ID, Records: recs})
}

// peerKey normalizes an unordered network pair.
func peerKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AllowPeering permits brokered connects between hosts of the two named
// virtual networks (VPC peering). Lookup and group queries remain
// strictly scoped — peering opens introductions, not discovery. The
// allowance is propagated to every federated broker serving either
// network, so inter-VNI gateway connects keep working when the two
// endpoints are homed on different brokers.
func (s *Server) AllowPeering(netA, netB string) {
	s.peered[peerKey(netA, netB)] = true
	s.propagatePeering(KindPeerAllow, netA, netB)
}

// RevokePeering withdraws a peering allowance (also federation-wide).
func (s *Server) RevokePeering(netA, netB string) {
	delete(s.peered, peerKey(netA, netB))
	s.propagatePeering(KindPeerRevoke, netA, netB)
}

// netsLinked reports whether hosts of the two networks may be
// introduced to each other: same network, or an explicit peering.
func (s *Server) netsLinked(a, b string) bool {
	return a == b || s.peered[peerKey(a, b)]
}

// connectQuery is a connect waiting on locate: the requester's address,
// request ID and record, the target's name and the punch span.
type connectQuery struct {
	src    netsim.Addr
	id     uint64
	req    HostRecord
	target string
	span   *obs.Span
}

// onConnect brokers a connection: locate the target, then have both
// hosts told to punch simultaneously (answerConnect).
func (s *Server) onConnect(src netsim.Addr, m *Msg) {
	s.Connects++
	requester := s.sessions.get(m.Name)
	if requester == nil {
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "requester not registered"})
		return
	}
	if m.Peer == nil {
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "bad connect"})
		return
	}
	q := connectQuery{src: src, id: m.ID, req: requester.rec, target: m.Peer.Name,
		span: s.cfg.Tracer.Start(nil, "punch", obs.Labels{Broker: s.cfg.Name, Net: requester.rec.Net})}
	q.span.Event("connect %s -> %s", m.Name, q.target)
	locate(s, q.target, q, (*Server).answerConnect)
}

// answerConnect brokers a connect to the record locate found: this
// broker orders both hosts to punch when the target is homed here too,
// else the target's home broker does (fwd-connect), which holds the
// live NAT session to it.
func (s *Server) answerConnect(q connectQuery, rec *HostRecord, err error) {
	sp := q.span
	switch {
	case err != nil:
		sp.Event("refused: CAN lookup failed: %v", err)
		sp.End()
		s.send(q.src, &Msg{Kind: KindError, ID: q.id, Error: "target lookup: " + err.Error()})
	case rec == nil:
		sp.Event("refused: target not found")
		sp.End()
		s.send(q.src, &Msg{Kind: KindError, ID: q.id, Code: CodeNotFound,
			Error: "target not found: " + q.target})
	case !s.netsLinked(rec.Net, q.req.Net):
		// Tenant isolation: the broker never introduces hosts across
		// virtual networks unless an explicit peering allows it.
		sp.Event("refused: cross-tenant")
		sp.End()
		s.send(q.src, &Msg{Kind: KindError, ID: q.id, Error: "cross-tenant connect refused"})
	case rec.Server == s.Addr():
		// Both hosts are ours: order both to punch.
		sp.Event("local punch order")
		sp.End()
		s.orderPunch(q.req, *rec, q.id, q.src)
	case s.brokerDead(rec.Server):
		// The record is stale: its home broker stopped answering.
		// Refuse rather than forward into a black hole — as a
		// transient not-found, because the target re-homes onto a
		// surviving broker and the retry will find the fresh record.
		s.StaleFwdRejects++
		sp.Event("refused: stale record, home broker %v dead", rec.Server)
		sp.End()
		s.send(q.src, &Msg{Kind: KindError, ID: q.id, Code: CodeNotFound,
			Error: "home broker of " + q.target + " unresponsive"})
	default:
		s.FwdConnectsOut++
		s.nextID++
		sp.Event("fwd-connect to home broker %v", rec.Server)
		s.pendingIntro.put(s.nextID, pendingIntro{host: q.src, hostID: q.id,
			remote: rec.Server, span: sp}, s.eng.Now())
		s.send(rec.Server, &Msg{Kind: KindFwdConnect, ID: s.nextID, Name: q.target, Rec: &q.req})
	}
}

// orderPunch tells both hosts about each other; pairs hole punching
// cannot traverse fall back to a relay channel through this broker.
func (s *Server) orderPunch(a, b HostRecord, id uint64, requester netsim.Addr) {
	if !nat.Punchable(a.NAT, b.NAT) {
		if s.cfg.DisableRelay {
			s.send(requester, &Msg{Kind: KindError, ID: id,
				Error: fmt.Sprintf("unpunchable NAT pair %v/%v", a.NAT, b.NAT)})
			return
		}
		s.orderRelay(a, b, id, requester)
		return
	}
	s.send(a.Mapped, &Msg{Kind: KindPunchOrder, ID: id, Peer: &b})
	s.send(b.Mapped, &Msg{Kind: KindPunchOrder, Peer: &a})
}

// onFwdConnectAck (back at the requester's server) resolves a forwarded
// connect with the ack or error of the target's home broker: order our
// host to punch, or to use the relay channel that broker allocated.
// Replies carry the host's own request ID so its RPC waiters correlate.
// Only the broker the connect was forwarded to may resolve it — forward
// IDs are sequential and guessable, so an unauthenticated ack could
// otherwise steer the requester toward an attacker-chosen address.
func (s *Server) onFwdConnectAck(src netsim.Addr, m *Msg) {
	e := s.pendingIntro.get(m.ID)
	if e == nil {
		return
	}
	pi := e.rec
	if src != pi.remote {
		s.RejectedFederation++
		return
	}
	s.pendingIntro.drop(e)
	if m.Error != "" || m.Rec == nil {
		pi.span.Event("fwd-connect error: %s", m.Error)
		pi.span.End()
		s.send(pi.host, &Msg{Kind: KindError, ID: pi.hostID, Error: m.Error, Code: m.Code})
		return
	}
	if m.RelayChan != 0 {
		pi.span.Event("fwd-connect-ack: relay order")
		pi.span.End()
		s.send(pi.host, &Msg{Kind: KindRelayOrder, ID: pi.hostID, Peer: m.Rec,
			RelayChan: m.RelayChan, RelayAddr: m.RelayAddr})
		return
	}
	pi.span.Event("fwd-connect-ack: punch order")
	pi.span.End()
	s.send(pi.host, &Msg{Kind: KindPunchOrder, ID: pi.hostID, Peer: m.Rec})
}

// onGroupQuery runs the locality-sensitive grouping over the locator's
// latency matrix. Queries from a virtual network only ever select
// co-tenant hosts. Default-network queries skip hosts whose session is
// scoped to a tenant (a brokered connect to them would be refused) but
// still admit hosts that report RTTs without maintaining a broker
// session.
func (s *Server) onGroupQuery(src netsim.Addr, m *Msg) {
	var names []string
	var err error
	s.expire()
	if m.Net == "" {
		names, err = s.locator.GroupAmong(m.K, func(name string) bool {
			ses := s.sessions.get(name)
			return ses == nil || ses.rec.Net == ""
		})
	} else {
		allowed := make(map[string]bool)
		for ses := s.sessions.head; ses != nil; ses = ses.next {
			if ses.rec.Net == m.Net {
				allowed[ses.key] = true
			}
		}
		// Federated replicas are co-tenants too: their RTTs enter the
		// locator whenever a local host reports a measurement to them.
		for rep := s.replicas.head; rep != nil; rep = rep.next {
			if rep.rec.Net == m.Net {
				allowed[rep.key] = true
			}
		}
		names, err = s.locator.GroupAmong(m.K, func(name string) bool { return allowed[name] })
	}
	if err != nil {
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: err.Error()})
		return
	}
	s.send(src, &Msg{Kind: KindGroupReply, ID: m.ID, Group: names})
}

// Locator is the distance locator: it accumulates pairwise RTT
// observations between named hosts and answers k-group queries with the
// paper's O(N·k) locality-sensitive algorithm.
type Locator struct {
	names map[string]int
	order []string
	rtts  [][]sim.Duration
}

// NewLocator returns an empty locator.
func NewLocator() *Locator {
	return &Locator{names: make(map[string]int)}
}

func (l *Locator) idx(name string) int {
	if i, ok := l.names[name]; ok {
		return i
	}
	i := len(l.order)
	l.names[name] = i
	l.order = append(l.order, name)
	for r := range l.rtts {
		l.rtts[r] = append(l.rtts[r], 0)
	}
	l.rtts = append(l.rtts, make([]sim.Duration, i+1))
	return i
}

// Report records a measured RTT between two hosts (stored symmetrically,
// per the paper's symmetry assumption).
func (l *Locator) Report(a, b string, rtt sim.Duration) {
	if a == b {
		return
	}
	i, j := l.idx(a), l.idx(b)
	l.rtts[i][j] = rtt
	l.rtts[j][i] = rtt
}

// Hosts returns the known host names.
func (l *Locator) Hosts() []string { return append([]string(nil), l.order...) }

// Matrix exposes the accumulated RTT matrix (rows indexed like Hosts).
func (l *Locator) Matrix() [][]sim.Duration { return l.rtts }

// GroupAmong is Group restricted to the hosts allowed() admits: the
// grouping runs on the sub-matrix of permitted rows/columns, which is
// how group queries stay inside one tenant.
func (l *Locator) GroupAmong(k int, allowed func(string) bool) ([]string, error) {
	var idxs []int
	for i, name := range l.order {
		if allowed(name) {
			idxs = append(idxs, i)
		}
	}
	sub := make([][]sim.Duration, len(idxs))
	for r, i := range idxs {
		sub[r] = make([]sim.Duration, len(idxs))
		for c, j := range idxs {
			sub[r][c] = l.rtts[i][j]
		}
	}
	sel, err := grouping.LocalitySensitive(sub, k)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(sel))
	for i, s := range sel {
		names[i] = l.order[idxs[s]]
	}
	return names, nil
}
