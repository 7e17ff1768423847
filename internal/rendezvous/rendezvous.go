// Package rendezvous implements WAVNet's rendezvous servers: publicly
// addressable nodes that (1) register NATed hosts and keep a session
// alive with them so connection requests can be relayed inward, (2)
// organize themselves in a CAN overlay that indexes host resource
// records, (3) broker UDP hole punching between pairs of hosts, and (4)
// run the distance locator feeding the locality-sensitive grouping
// strategy.
package rendezvous

import (
	"encoding/json"
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

// CodeNotFound marks an error reply whose cause may be transient in a
// federation — the name may exist on a broker whose record replication
// has not converged here yet — so clients may back off and retry.
const CodeNotFound = "not-found"

// CodeUnknownSession marks a pulse-ack from a broker that holds no
// session for the pulsing host: the broker restarted (or the session
// expired) and the host must re-register to become reachable again.
const CodeUnknownSession = "unknown-session"

// HostRecord is what the rendezvous layer knows about a registered host.
// The JSON tags are for the CAN index, which stores records as JSON
// resource values (publish); control messages do not use them.
type HostRecord struct {
	Name   string      `json:"name"`
	Mapped netsim.Addr `json:"mapped"` // NAT external address of the host's WAVNet socket
	NAT    nat.Type    `json:"nat"`
	// Attrs is the host's resource state (e.g. normalized CPU, memory),
	// mapped to a CAN point for attribute queries.
	Attrs can.Point `json:"attrs"`
	// Server is the broker responsible for this host (where connection
	// requests must be relayed through).
	Server netsim.Addr `json:"server"`
	// Net and VNI scope the host to one virtual network (tenant).
	// Discovery and brokered connects never cross networks; the empty
	// name is the default network every legacy host lives in.
	Net string `json:"net,omitempty"`
	VNI uint32 `json:"vni,omitempty"`
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

	// Tenant service VIPs (vip.go): one record on announce/withdraw/
	// replicate, the sorted backend list on a vip-lookup reply, and the
	// service name a lookup asks for.
	VIP     *VIPRecord
	VIPs    []VIPRecord
	Service string
}

// Config tunes a rendezvous server.
type Config struct {
	Port       uint16       // broker port (default 4342)
	CANPort    uint16       // CAN overlay port (default 4343)
	STUNPort   uint16       // primary STUN port (default 3478)
	SessionTTL sim.Duration // host records expire without pulses (default 60 s)
	CANDims    int          // CAN dimensionality (default 2)

	// DisableRelay turns off the relay fallback for unpunchable NAT
	// pairs, restoring the paper's connect-refused behaviour.
	DisableRelay bool
	// RelayIdle expires relay channels with no traffic (default 120 s).
	RelayIdle sim.Duration

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
	if c.CANDims <= 0 {
		c.CANDims = 2
	}
	if c.RelayIdle <= 0 {
		c.RelayIdle = 120 * sim.Second
	}
	if c.BrokerPulseInterval <= 0 {
		c.BrokerPulseInterval = c.SessionTTL / 4
	}
	if c.BrokerTTL <= 0 {
		c.BrokerTTL = c.SessionTTL
	}
	return c
}

// pendingIntro is one in-flight cross-broker introduction. Entries are
// swept a session TTL after they were made: a remote broker that died
// mid-introduction must not leak them forever (the requesting host gave
// up long before).
type pendingIntro struct {
	host   netsim.Addr // requesting host
	hostID uint64      // the host's connect request ID
	remote netsim.Addr // the broker the intro was forwarded to; only it may resolve
	span   *obs.Span   // the punch span, closed when the intro resolves
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

	// pendingIntro correlates broker-to-broker introductions (CAN and
	// federated alike) back to the requesting host: the reply must go to
	// its address carrying its original request ID, not the intro's.
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
	// vipRecs holds the tenant-service VIP records (vip.go), locally
	// announced and federated replicas alike, keyed net/service/backend.
	// vipsUngrounded is set by whatever can take a local record's host
	// away (a session or replica dropped or rescoped, a record announced
	// for a host unknown here); expireVIPs re-checks the local records
	// only then.
	vipRecs        aged[string, VIPRecord]
	vipsUngrounded bool

	// Tickers, kept so Close can stop them (a closed broker must not
	// keep publishing or pulsing from beyond the grave).
	refreshTick *sim.Ticker
	replTick    *sim.Ticker
	brokerTick  *sim.Ticker
	closed      bool

	nextID uint64

	// Stats.
	Joins, Pulses, Connects, Lookups uint64
	RelayedIntroductions             uint64
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
	// Tenant-service VIP stats (vip.go): announcement/withdrawal traffic
	// from hosts, replication within the network's broker set, lookups
	// answered, records expired or dropped with their dead home broker,
	// and announcements refused by the session/scope check.
	VIPAnnouncesIn, VIPWithdrawalsIn      uint64
	VIPReplicationsOut, VIPReplicationsIn uint64
	VIPRetractsOut, VIPRetractsIn         uint64
	VIPLookups, VIPExpiries               uint64
	DeadBrokerVIPDrops, RejectedVIP       uint64
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
	node, err := can.NewNode(host, cfg.CANPort, can.Config{Dims: cfg.CANDims})
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
		s.refreshVIPs()
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
		Value: can.MarshalValue(rec),
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
		s.dropSession(ses)
		s.SessionExpiries++
		// The federation must not keep advertising a dead host.
		s.withdraw(ses.rec)
	}
	s.expireReplicas(cutoff)
	sweep := s.expireDeadBrokers()
	s.expireVIPs(cutoff, sweep)
	for pi := s.pendingIntro.head; pi != nil && pi.lastSeen < cutoff; pi = pi.next {
		pi.rec.span.Event("expired: intro never acked")
		pi.rec.span.End()
		s.pendingIntro.drop(pi)
	}
}

// dropSession and dropReplica remove a host record; either may leave a
// local VIP record without its host.
func (s *Server) dropSession(ses *entry[string, HostRecord]) {
	s.sessions.drop(ses)
	s.vipsUngrounded = true
}

func (s *Server) dropReplica(rep *entry[string, HostRecord]) {
	s.replicas.drop(rep)
	s.vipsUngrounded = true
}

func (s *Server) send(to netsim.Addr, m *Msg) { Send(s.sock, to, m) }

func (s *Server) onPacket(pkt netsim.Packet) {
	if len(pkt.Payload) > 0 && pkt.Payload[0] == RelayMagic {
		s.onRelay(pkt)
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
	case KindIntroduce:
		s.onIntroduce(pkt.Src, m)
	case KindIntroAck:
		s.onIntroAck(pkt.Src, m)
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
		s.onIntroAck(pkt.Src, m) // same resolution path as a CAN introduction
	case KindPeerAllow, KindPeerRevoke:
		s.onPeerPropagation(pkt.Src, m)
	case KindBrokerPulse:
		s.onBrokerPulse(pkt.Src)
	case KindVIPAnnounce:
		s.onVIPAnnounce(pkt.Src, m)
	case KindVIPWithdraw:
		s.onVIPWithdraw(pkt.Src, m)
	case KindVIPLookup:
		s.onVIPLookup(pkt.Src, m)
	case KindVIPReplicate:
		s.onVIPReplicate(pkt.Src, m)
	case KindVIPRetract:
		s.onVIPRetract(pkt.Src, m)
	case KindError:
		// A broker-to-broker failure (introduce or fwd-connect refused at
		// the remote end): resolve the pending introduction so the
		// requesting host fails fast instead of waiting out its timeout.
		// Hosts never send errors to brokers; stray IDs are ignored.
		s.onIntroAck(pkt.Src, m)
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
		s.vipsUngrounded = true
	}
	// A host re-homing HERE supersedes the replica its old broker pushed:
	// the live session is authoritative, and keeping the replica would
	// leave a record naming the (likely dead) old home as forwarding
	// target.
	if rep := s.replicas.get(rec.Name); rep != nil && rep.rec.Net == rec.Net {
		s.dropReplica(rep)
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
	if len(rec.Attrs) == s.cfg.CANDims && rec.Attrs.Valid() {
		return rec.Attrs
	}
	return namePoint(rec.Name, s.cfg.CANDims)
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

// onLookup serves resource queries: by name (local, then CAN), or by
// attribute point (CAN owner's records). Every path is scoped to the
// requester's virtual network: records from other tenants are simply
// invisible, so a lookup that only matches foreign hosts returns an
// empty record set rather than an error.
func (s *Server) onLookup(src netsim.Addr, m *Msg) {
	s.Lookups++
	s.expire()
	if m.Name != "" {
		// A session answers, else a federated replica does, locally:
		// cross-broker names resolve without an extra hop. Both are scoped
		// alike — a record from another network is invisible, not an error.
		held := s.sessions.get(m.Name)
		if held == nil {
			held = s.replicas.get(m.Name)
		}
		if held != nil {
			reply := Msg{Kind: KindLookupReply, ID: m.ID}
			if held.rec.Net == m.Net {
				reply.Records = []HostRecord{held.rec}
			}
			s.send(src, &reply)
			return
		}
		// Route through the CAN by name hash.
		id, name, net := m.ID, m.Name, m.Net
		s.can.Lookup(namePoint(name, s.cfg.CANDims), func(res can.LookupResult, err error) {
			if err != nil {
				s.send(src, &Msg{Kind: KindError, ID: id, Error: err.Error()})
				return
			}
			var recs []HostRecord
			for _, r := range res.Resources {
				if r.ID != name {
					continue
				}
				var rec HostRecord
				if json.Unmarshal(r.Value, &rec) == nil && rec.Net == net {
					recs = append(recs, rec)
				}
			}
			s.send(src, &Msg{Kind: KindLookupReply, ID: id, Records: recs})
		})
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
				if json.Unmarshal(r.Value, &rec) == nil && rec.Net == net {
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

// onConnect brokers a connection: find the target (locally or via its
// own server), have both sides told to punch simultaneously.
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
	reqRec := requester.rec
	target := m.Peer.Name
	sp := s.cfg.Tracer.Start(nil, "punch", obs.Labels{Broker: s.cfg.Name, Net: reqRec.Net})
	sp.Event("connect %s -> %s", m.Name, target)

	if ses := s.sessions.get(target); ses != nil {
		if !s.netsLinked(ses.rec.Net, reqRec.Net) {
			// Tenant isolation: the broker never introduces hosts across
			// virtual networks unless an explicit peering allows it.
			sp.Event("refused: cross-tenant")
			sp.End()
			s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "cross-tenant connect refused"})
			return
		}
		// Both hosts are ours: order both to punch.
		sp.Event("local punch order")
		sp.End()
		s.orderPunch(reqRec, ses.rec, m.ID, src)
		return
	}
	// A federated replica names the target's home broker directly:
	// forward the punch orchestration there (the home broker holds the
	// live NAT session to the target).
	if rep := s.replicas.get(target); rep != nil {
		if !s.netsLinked(rep.rec.Net, reqRec.Net) {
			sp.Event("refused: cross-tenant")
			sp.End()
			s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "cross-tenant connect refused"})
			return
		}
		if s.brokerDead(rep.rec.Server) {
			// The replica is stale: its home broker stopped answering.
			// Refuse rather than forward into a black hole — as a
			// transient not-found, because the target re-homes onto a
			// surviving broker and the retry will find the fresh record.
			s.StaleFwdRejects++
			sp.Event("refused: stale replica, home broker %v dead", rep.rec.Server)
			sp.End()
			s.send(src, &Msg{Kind: KindError, ID: m.ID, Code: CodeNotFound,
				Error: "home broker of " + target + " unresponsive"})
			return
		}
		s.FwdConnectsOut++
		s.nextID++
		introID := s.nextID
		sp.Event("fwd-connect to home broker %v", rep.rec.Server)
		s.pendingIntro.put(introID, pendingIntro{host: src, hostID: m.ID,
			remote: rep.rec.Server, span: sp}, s.eng.Now())
		s.send(rep.rec.Server, &Msg{Kind: KindFwdConnect, ID: introID, Name: target, Rec: &reqRec})
		return
	}
	// Find the target's record through the CAN, then ask its server.
	id := m.ID
	s.can.Lookup(namePoint(target, s.cfg.CANDims), func(res can.LookupResult, err error) {
		if err != nil {
			sp.Event("refused: CAN lookup failed: %v", err)
			sp.End()
			s.send(src, &Msg{Kind: KindError, ID: id, Error: "target lookup: " + err.Error()})
			return
		}
		for _, r := range res.Resources {
			if r.ID != target {
				continue
			}
			var rec HostRecord
			if json.Unmarshal(r.Value, &rec) != nil {
				continue
			}
			if !s.netsLinked(rec.Net, reqRec.Net) {
				sp.Event("refused: cross-tenant")
				sp.End()
				s.send(src, &Msg{Kind: KindError, ID: id, Error: "cross-tenant connect refused"})
				return
			}
			// Relay through the target's own broker so it can notify the
			// target over the maintained NAT session.
			s.RelayedIntroductions++
			s.nextID++
			introID := s.nextID
			sp.Event("CAN introduce via broker %v", rec.Server)
			s.pendingIntro.put(introID, pendingIntro{host: src, hostID: id,
				remote: rec.Server, span: sp}, s.eng.Now())
			s.send(rec.Server, &Msg{Kind: KindIntroduce, ID: introID, Name: target, Rec: &reqRec})
			return
		}
		sp.Event("refused: target not found")
		sp.End()
		s.send(src, &Msg{Kind: KindError, ID: id, Code: CodeNotFound,
			Error: "target not found: " + target})
	})
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

// onIntroduce (at the target's server): notify our host and ack with its
// record.
func (s *Server) onIntroduce(src netsim.Addr, m *Msg) {
	s.introduceLocal(src, m, KindIntroAck)
}

// introduceLocal brokers a connect whose requester lives on another
// server (a CAN introduction or a federated forwarded connect): notify
// our host and ack with its record. Unpunchable pairs get a relay
// channel hosted *here* (the target's broker), because only this server
// has a live NAT session to the target; the requester reaches any
// public address on its own.
func (s *Server) introduceLocal(src netsim.Addr, m *Msg, ackKind Kind) {
	ses := s.sessions.get(m.Name)
	if ses == nil {
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Code: CodeNotFound,
			Error: "unknown host " + m.Name})
		return
	}
	if m.Rec != nil && !s.netsLinked(m.Rec.Net, ses.rec.Net) {
		// The requester's broker should have refused already; enforce
		// tenant isolation here too in case records were stale.
		s.send(src, &Msg{Kind: KindError, ID: m.ID, Error: "cross-tenant connect refused"})
		return
	}
	if m.Rec != nil && !nat.Punchable(m.Rec.NAT, ses.rec.NAT) {
		if s.cfg.DisableRelay {
			s.send(src, &Msg{Kind: KindError, ID: m.ID,
				Error: fmt.Sprintf("unpunchable NAT pair %v/%v", m.Rec.NAT, ses.rec.NAT)})
			return
		}
		// The requester's relay endpoint cannot be predicted (it may sit
		// behind a symmetric NAT); it is learned from its first envelope.
		ch := s.newRelayChannel(ses.rec.Name, m.Rec.Name, ses.rec.Mapped, netsim.Addr{})
		s.send(ses.rec.Mapped, &Msg{Kind: KindRelayOrder, Peer: m.Rec,
			RelayChan: ch.id, RelayAddr: s.Addr()})
		s.send(src, &Msg{Kind: ackKind, ID: m.ID, Rec: &ses.rec,
			RelayChan: ch.id, RelayAddr: s.Addr()})
		return
	}
	// Tell our host to punch toward the requester.
	s.send(ses.rec.Mapped, &Msg{Kind: KindPunchOrder, Peer: m.Rec})
	// Hand the record back to the requester's server.
	s.send(src, &Msg{Kind: ackKind, ID: m.ID, Rec: &ses.rec})
}

// onIntroAck (back at the requester's server): order our host to punch,
// or to use the relay channel the target's server allocated. Replies
// carry the host's own request ID so its RPC waiters correlate. Only
// the broker the introduction was forwarded to may resolve it — intro
// IDs are sequential and guessable, so an unauthenticated ack could
// otherwise steer the requester toward an attacker-chosen address.
func (s *Server) onIntroAck(src netsim.Addr, m *Msg) {
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
		pi.span.Event("intro-ack error: %s", m.Error)
		pi.span.End()
		s.send(pi.host, &Msg{Kind: KindError, ID: pi.hostID, Error: m.Error, Code: m.Code})
		return
	}
	if m.RelayChan != 0 {
		pi.span.Event("intro-ack: relay order")
		pi.span.End()
		s.send(pi.host, &Msg{Kind: KindRelayOrder, ID: pi.hostID, Peer: m.Rec,
			RelayChan: m.RelayChan, RelayAddr: m.RelayAddr})
		return
	}
	pi.span.Event("intro-ack: punch order")
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

// Group selects k mutually-near hosts using the locality-sensitive
// approximation and returns their names.
func (l *Locator) Group(k int) ([]string, error) {
	sel, err := grouping.LocalitySensitive(l.rtts, k)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(sel))
	for i, idx := range sel {
		names[i] = l.order[idx]
	}
	return names, nil
}

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
