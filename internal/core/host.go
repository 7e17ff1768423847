// Package core implements the WAVNet host: the paper's primary
// contribution. A Host owns one physical UDP socket over which it
// multiplexes (1) rendezvous-layer control traffic, (2) STUN binding
// requests, (3) UDP hole punching, and (4) the Packet Assembler's
// encapsulated Ethernet frames and CONNECT_PULSE keepalives.
//
// Locally the host runs a software bridge; WAVNet attaches to it through
// a tap port. Frames leaving the bridge through the tap are encapsulated
// and switched onto direct host-to-host tunnels by the WAV-Switch (a MAC
// learning table whose ports are wide-area tunnels); frames arriving
// from tunnels are injected back through the tap. VMs and the host's own
// virtual stack plug into the same bridge, which is what makes gratuitous
// ARP after live migration propagate to every connected host.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"wavnet/internal/can"
	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
	"wavnet/internal/stun"
)

// Packet Assembler type identifiers (first payload byte). STUN's first
// byte is 0x00/0x01; 0x16 is rendezvous.RelayMagic and 0x1B
// rendezvous.Magic, the control messages — the three protocols share
// this number space so one socket can carry everything.
const (
	paPulse       = 0x10 // CONNECT_PULSE: 2-byte keepalive
	paFrame       = 0x11 // encapsulated Ethernet frame
	paPunch       = 0x12 // hole punching probe
	paPunchAck    = 0x13 // hole punching acknowledgement
	paEcho        = 0x14 // tunnel RTT probe
	paEchoResp    = 0x15 // tunnel RTT response
	paFrameVNI    = 0x17 // VNI-tagged encapsulated Ethernet frame (multi-tenant; 0x16 is rendezvous.RelayMagic)
	paVNISet      = 0x18 // VNI membership announcement (flood suppression)
	paVIPAnnounce = 0x19 // service VIP backend health transition (vip.go)
	paFrameBatch  = 0x1A // aggregated egress batch: [0x1A]([len:2][frame image])* (batch.go)
)

// Errors returned by Host operations.
var (
	ErrNotJoined    = errors.New("core: host has not joined a rendezvous server")
	ErrPunchFailed  = errors.New("core: hole punching failed")
	ErrTimeout      = errors.New("core: operation timed out")
	ErrUnreachable  = errors.New("core: rendezvous server unreachable")
	ErrNoSuchTunnel = errors.New("core: no tunnel to peer")
	ErrInterrupted  = errors.New("core: operation interrupted")
)

// Config tunes a WAVNet host.
type Config struct {
	Port uint16 // WAVNet UDP port (default 4500)

	// PulsePeriod is the CONNECT_PULSE interval on established tunnels;
	// the paper uses 5 s against NAT timeouts of minutes.
	PulsePeriod sim.Duration
	// TunnelTimeout declares a tunnel dead with no inbound traffic.
	TunnelTimeout sim.Duration
	// RendezvousPulsePeriod keeps the broker session (and its NAT
	// mapping) alive.
	RendezvousPulsePeriod sim.Duration
	// BrokerTimeout declares the home broker dead when nothing has been
	// heard from it (pulse acks, RPC replies, punch orders) for this
	// long; the host then re-homes onto another broker of its candidate
	// set (default 3 × RendezvousPulsePeriod).
	BrokerTimeout sim.Duration

	PunchTries    int
	PunchInterval sim.Duration

	// RPCTimeout bounds control-plane waits (join, lookup, connect).
	RPCTimeout sim.Duration

	// Attrs is the host's resource state vector for CAN-indexed queries.
	Attrs can.Point

	// BridgeLatency is the software bridge's per-frame forwarding cost.
	BridgeLatency sim.Duration
	// PacketCost is the Packet Assembler's per-packet processing time on
	// both encapsulation and decapsulation (user-level tap handling).
	PacketCost sim.Duration

	// BatchMaxBytes / BatchMaxFrames cap one egress batch (batch.go): a
	// destination's queue is flushed early once its batched payload
	// would exceed BatchMaxBytes or holds BatchMaxFrames frames.
	// BatchMaxBytes defaults to the classic 1500-byte path-MTU budget:
	// a UDP datagram above it would IP-fragment on a real path, and a
	// fragmented batch dies whole when any fragment drops — measured
	// here as multi-segment TCP holes that stall recovery into RTOs.
	// Under the MTU budget a full-size data frame rides alone (legacy
	// single-frame format, bit-identical to the unbatched wire), while
	// same-instant small frames — ACK trains, ARP, control chatter —
	// coalesce. BatchMaxFrames = 1 disables coalescing entirely.
	BatchMaxBytes  int
	BatchMaxFrames int

	// Tracer records sim-time spans for the host's multi-step control
	// flows (tunnel establishment, broker re-home elections); nil
	// disables tracing.
	Tracer *obs.Trace

	// FlowSlots bounds the flow accounting table (flow.go), which grows
	// on demand up to it, rounded up to a power of two (default 1024).
	// FlowSweepPeriod and FlowIdle drive the off-path eviction sweep: a
	// flow with no activity for FlowIdle is closed and emitted to
	// FlowLog on the next sweep tick. FlowLog is the shared flow-log
	// sink (nil discards closed-flow records; live flows stay
	// scrapeable either way).
	FlowSlots       int
	FlowSweepPeriod sim.Duration
	FlowIdle        sim.Duration
	FlowLog         *obs.FlowLog
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = 4500
	}
	if c.PulsePeriod <= 0 {
		c.PulsePeriod = 5 * sim.Second
	}
	if c.TunnelTimeout <= 0 {
		c.TunnelTimeout = 30 * sim.Second
	}
	if c.RendezvousPulsePeriod <= 0 {
		c.RendezvousPulsePeriod = 15 * sim.Second
	}
	if c.BrokerTimeout <= 0 {
		c.BrokerTimeout = 3 * c.RendezvousPulsePeriod
	}
	if c.PunchTries <= 0 {
		c.PunchTries = 10
	}
	if c.PunchInterval <= 0 {
		c.PunchInterval = 200 * sim.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * sim.Second
	}
	if c.BridgeLatency <= 0 {
		c.BridgeLatency = 10 * sim.Microsecond
	}
	if c.PacketCost <= 0 {
		c.PacketCost = 15 * sim.Microsecond
	}
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 1500
	}
	if c.BatchMaxFrames <= 0 {
		c.BatchMaxFrames = 32
	}
	if c.FlowSlots <= 0 {
		c.FlowSlots = defaultFlowSlots
	}
	if c.FlowSweepPeriod <= 0 {
		c.FlowSweepPeriod = 10 * sim.Second
	}
	if c.FlowIdle <= 0 {
		c.FlowIdle = 30 * sim.Second
	}
	return c
}

// connWaiter is one pending tunnel-establishment callback.
type connWaiter struct {
	id uint64
	fn func()
}

// Tunnel is one host-to-host connection: usually a direct punched path,
// or — for NAT pairs hole punching cannot traverse — a channel relayed
// through the rendezvous server.
type Tunnel struct {
	host        *Host
	Peer        string
	Remote      netsim.Addr
	established bool
	lastHeard   sim.Time
	pulser      *sim.Ticker

	// Relayed marks a broker-relayed tunnel; Remote is then the relay
	// address and every packet carries the relay envelope.
	Relayed   bool
	relayChan uint64

	// remoteVNIs is the far end's announced segment set; vniKnown marks
	// that at least one announcement arrived (until then the host floods
	// conservatively). Used by VNI-aware flood suppression.
	remoteVNIs map[uint32]bool
	vniKnown   bool
	// announcedGen / sinceAnnounce gate re-announcing OUR segment set on
	// this tunnel: immediately when the set changed, else only as a slow
	// periodic refresh against lost announcements.
	announcedGen  uint64
	sinceAnnounce int

	// quotas are the per-tenant token buckets metering this tunnel.
	quotas map[string]*tokenBucket

	// egress is this destination's pending batch (batch.go): relay
	// headroom, the paFrameBatch type byte, then length-prefixed frame
	// images appended in admission order, all inside the leased
	// egressBuf. egressFrames counts them; egressQueued marks the tunnel
	// as already on the host's flush list. The tunnel's reference on
	// the lease is released at flush, or when the tunnel is dropped.
	egressBuf    *netsim.Buf
	egress       []byte
	egressFrames int
	egressQueued bool

	// Stats.
	FramesOut, FramesIn   uint64
	BytesOut, BytesIn     uint64
	PulsesOut, PulsesIn   uint64
	QuotaDrops            uint64
	BatchesOut, BatchesIn uint64
}

// CarriesVNI reports whether the far end announced a segment for vni
// (false also when no announcement has arrived yet).
func (t *Tunnel) CarriesVNI(vni uint32) bool { return t.vniKnown && t.remoteVNIs[vni] }

// Established reports whether hole punching (or relay setup) completed.
func (t *Tunnel) Established() bool { return t.established }

// segment is one virtual network's local attachment point: a dedicated
// software bridge plus the tap through which the WAV-Switch picks up
// and injects that network's frames. Segment 0 is the default (legacy,
// untagged) virtual LAN; every VPC a host participates in gets its own
// segment, so broadcast and ARP flooding is scoped per tenant.
type segment struct {
	host   *Host
	vni    uint32
	bridge *ether.Bridge
	tap    *ether.BridgePort
	dom0   *ipstack.Stack
	// stat is the pre-resolved pointer to the host's record for this
	// VNI, so the flood path bumps it with no name and no map lookup.
	stat *vniStat
}

// vniStat is one virtual network's flood / suppression totals and the
// series names ScrapeInto exports them under. The record belongs to the
// host, not the segment: it outlives LeaveVNI and a later JoinVNI of
// the same VNI resumes it.
type vniStat struct {
	flood, suppress         uint64
	floodName, suppressName string
}

// Host is a WAVNet participant.
type Host struct {
	name string
	phys *netsim.Host
	eng  *sim.Engine
	cfg  Config
	// pa holds the frames waiting out the Packet Assembler's
	// processing time (cfg.PacketCost), outbound and inbound.
	pa *sim.Lane

	sock *netsim.UDPSocket
	// pool is the world's buffer pool: batch buffers and control
	// packets are leased from it.
	pool *netsim.Pool

	// segments are the per-VNI virtual LAN attachments (bridge + tap);
	// segment 0 always exists and is the default network.
	segments map[uint32]*segment
	// network/vni scope the host's rendezvous registration and
	// discovery to one tenant (empty/0 = the default network).
	network string
	vni     uint32

	wswitch *ether.VNITable[*Tunnel]
	tunnels map[string]*Tunnel
	byAddr  map[netsim.Addr]*Tunnel
	byChan  map[uint64]*Tunnel // relayed tunnels keyed by channel id

	// peering is the inter-VNI gateway policy: which foreign tags may be
	// re-injected into which local segments, for which destinations.
	peering *ether.PeeringTable
	// floodAll disables VNI-aware flood suppression (the seed behaviour:
	// tagged broadcast floods every tunnel and dies at the receiver's
	// isolation check). Tests and experiments use it to exercise the
	// receiver-side check in isolation.
	floodAll bool

	// vniTenant / tenantQuota configure per-tenant send-rate metering
	// (see quota.go); buckets live on the tunnels.
	vniTenant   map[uint32]string
	tenantQuota map[string]QuotaConfig

	// vniGen counts segment-set changes; tunnels compare it against
	// their announcedGen to decide whether a refresh is due.
	vniGen uint64

	// vips is the per-VNI service steering table (vip.go): VIP →
	// preference-ordered backend list, consulted by the proxy-ARP
	// responder on the tap path. vipRecords remembers the rendezvous
	// VIP records this host announced, re-asserted after re-home and
	// re-registration.
	vips       map[uint32]map[netsim.IP]*vipTableEntry
	vipRecords map[string]rendezvous.VIPRecord

	rdv      netsim.Addr
	joined   bool
	natClass stun.NATClass
	mapped   netsim.Addr
	rdvTick  *sim.Ticker

	// Broker failover state: the candidate broker set kept from join
	// time (JoinAny) or pushed by the reconciler (NetworkSpec.Brokers),
	// the brokers the last JoinAny-style election actually attempted,
	// when the home broker was last heard, and whether a re-home or
	// re-register is already in flight.
	candidates   []netsim.Addr
	joinAttempts []netsim.Addr
	brokerSeen   sim.Time
	recovering   bool

	nextID  uint64
	waiters map[uint64]func(*rendezvous.Msg)
	// ctl decodes the broker's unsolicited messages, which onControl
	// handles on the spot; a reply is decoded afresh for its waiter.
	ctl      rendezvous.Decoder
	stunWait func(*stun.Message)
	// connWaiters fire when a tunnel to the named peer establishes;
	// entries carry an ID so a ConnectTo that gives up can remove
	// exactly its own waiter.
	connWaiters map[string][]connWaiter
	echoWaiters map[uint64]func(sim.Duration)
	nextEcho    uint64

	vifSeq uint32
	macSeq uint32

	// Stats.
	FramesSent, FramesRecv   uint64
	FloodedFrames            uint64
	PunchesSent, PunchesRecv uint64
	// CrossVNIDrops counts frames that arrived tagged with a VNI this
	// host has no segment for — traffic from another tenant that the
	// isolation check discarded.
	CrossVNIDrops uint64
	// SuppressedFloods counts flooded frames NOT sent because the far
	// end announced it has no segment (and no peering route) for the tag.
	SuppressedFloods uint64
	// PeeredForwards / PeerPolicyDrops count the inter-VNI gateway's
	// decisions: foreign-tagged frames re-injected into a peered local
	// segment, and frames a peering existed for but whose destination
	// the policy refused.
	PeeredForwards  uint64
	PeerPolicyDrops uint64
	// QuotaDrops counts outbound frames dropped by per-tenant metering.
	QuotaDrops uint64
	// Rehomes counts successful migrations to another broker after the
	// home broker went silent; RehomeFailures counts elections that
	// found no live candidate (retried on the next pulse tick);
	// Reregisters counts re-joins to the SAME broker after it answered
	// a pulse with "unknown session" (broker restarted, state lost).
	Rehomes        uint64
	RehomeFailures uint64
	Reregisters    uint64
	// Service-VIP stats (vip.go): ARP requests answered from the
	// steering table, gratuitous ARPs injected on a choice change, and
	// 0x19 health announcements flooded/applied.
	VIPARPProxied   uint64
	VIPSteers       uint64
	VIPAnnouncesOut uint64
	VIPAnnouncesIn  uint64
	// vniStats breaks floods and suppressions down per virtual network
	// (scraped as "flood.vni<N>" / "suppress.vni<N>"); the data path
	// bumps the pointer cached on each segment (see segment).
	vniStats map[uint32]*vniStat
	// floodScratch is the reusable tunnel ordering of sortedTunnels.
	floodScratch []*Tunnel

	// Egress batcher state (batch.go): destinations with pending
	// frames in enqueue order (= deterministic flood order), whether
	// the end-of-timestamp flush hook is already registered for the
	// current instant, and the cached hook closure (allocated once).
	pendingFlush []*Tunnel
	flushHooked  bool
	flushFn      func()
	// BatchFlushes counts flushed batches, BatchCapFlushes the subset
	// forced early by a byte/frame cap, BatchedFrames the frames they
	// carried; batchSizes is the frames-per-batch distribution.
	BatchFlushes    uint64
	BatchCapFlushes uint64
	BatchedFrames   uint64
	batchSizes      *obs.Histogram

	// Flow accounting (flow.go): the fixed-size table the encap/decap/
	// drop sites charge inline, a reused key scratch (single writer: the
	// sim event loop), a reused decode frame for wire-drop attribution,
	// and the self-arming eviction sweep's state.
	flows       *FlowTable
	flowScratch FlowKey
	dropScratch ether.Frame
	flowSweepOn bool
	flowSweepFn func()
}

// NewHost creates a WAVNet host on a physical machine. The bridge, tap
// and WAV-Switch are wired immediately; Join connects the control plane.
func NewHost(phys *netsim.Host, name string, cfg Config) (*Host, error) {
	cfg = cfg.withDefaults()
	h := &Host{
		name:        name,
		phys:        phys,
		eng:         phys.Engine(),
		cfg:         cfg,
		pa:          phys.Engine().Lane(cfg.PacketCost),
		pool:        phys.Network().Pool(),
		segments:    make(map[uint32]*segment),
		tunnels:     make(map[string]*Tunnel),
		byAddr:      make(map[netsim.Addr]*Tunnel),
		byChan:      make(map[uint64]*Tunnel),
		waiters:     make(map[uint64]func(*rendezvous.Msg)),
		connWaiters: make(map[string][]connWaiter),
		echoWaiters: make(map[uint64]func(sim.Duration)),
		peering:     ether.NewPeeringTable(),
		vniTenant:   make(map[uint32]string),
		tenantQuota: make(map[string]QuotaConfig),
		vniStats:    make(map[uint32]*vniStat),
		vips:        make(map[uint32]map[netsim.IP]*vipTableEntry),
		vipRecords:  make(map[string]rendezvous.VIPRecord),
		batchSizes:  obs.NewHistogram(),
	}
	h.flushFn = h.flushEgress
	h.flows = NewFlowTable(cfg.FlowSlots)
	h.flowSweepFn = h.flowSweep
	sock, err := phys.BindUDP(cfg.Port, h.onPacket)
	if err != nil {
		return nil, err
	}
	h.sock = sock
	h.wswitch = ether.NewVNITable[*Tunnel](h.eng, 0)
	h.addSegment(0)
	return h, nil
}

// addSegment wires the bridge and tap of one virtual network.
func (h *Host) addSegment(vni uint32) *segment {
	suffix := ""
	if vni != 0 {
		suffix = fmt.Sprintf(".%d", vni)
	}
	st := h.vniStats[vni]
	if st == nil {
		n := strconv.FormatUint(uint64(vni), 10)
		st = &vniStat{floodName: "flood.vni" + n, suppressName: "suppress.vni" + n}
		h.vniStats[vni] = st
	}
	seg := &segment{host: h, vni: vni, stat: st}
	seg.bridge = ether.NewBridge(h.eng, h.name+"-br0"+suffix, h.cfg.BridgeLatency)
	seg.tap = seg.bridge.AddPort("wav0" + suffix)
	seg.tap.SetRecv(func(f *ether.Frame) { h.onTapFrame(seg, f) })
	h.segments[vni] = seg
	return seg
}

// JoinVNI attaches the host to a virtual network's data plane: it
// creates the VNI's local bridge segment (idempotently) so tagged
// frames for that network are accepted and switched. Rendezvous-layer
// scoping is handled separately by JoinVPC.
func (h *Host) JoinVNI(vni uint32) *ether.Bridge {
	seg, ok := h.segments[vni]
	if !ok {
		seg = h.addSegment(vni)
		h.announceVNIs()
	}
	return seg.bridge
}

// LeaveVNI detaches the host from a non-default virtual network: the
// segment is dropped, its switch state is flushed, and subsequent
// frames tagged with the VNI are discarded by the isolation check.
func (h *Host) LeaveVNI(vni uint32) {
	if vni == 0 {
		return // the default segment is permanent
	}
	delete(h.segments, vni)
	h.wswitch.DropVNI(vni)
	h.announceVNIs()
}

// SegmentBridge returns the bridge of one virtual network segment.
func (h *Host) SegmentBridge(vni uint32) (*ether.Bridge, bool) {
	seg, ok := h.segments[vni]
	if !ok {
		return nil, false
	}
	return seg.bridge, true
}

// VNIs returns the virtual networks this host has segments for, sorted.
func (h *Host) VNIs() []uint32 {
	out := make([]uint32, 0, len(h.segments))
	for vni := range h.segments {
		out = append(out, vni)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Name returns the host's WAVNet name.
func (h *Host) Name() string { return h.name }

// Phys returns the underlying physical machine.
func (h *Host) Phys() *netsim.Host { return h.phys }

// Pool returns the world's buffer pool, for stacks attached to this
// host's bridges.
func (h *Host) Pool() *netsim.Pool { return h.pool }

// Bridge returns the host's default-network software bridge.
func (h *Host) Bridge() *ether.Bridge { return h.segments[0].bridge }

// Network reports the host's tenant scope: the virtual network name
// and VNI its rendezvous registration is scoped to ("" and 0 before
// JoinVPC).
func (h *Host) Network() (string, uint32) { return h.network, h.vni }

// Joined reports whether the host currently holds a rendezvous session.
func (h *Host) Joined() bool { return h.joined }

// RendezvousAddr reports the home broker this host registered with. A
// host homes on exactly one broker of a federation — its record is
// replicated to the other brokers its network names, and connects to
// hosts homed elsewhere are forwarded broker-to-broker.
func (h *Host) RendezvousAddr() netsim.Addr { return h.rdv }

// NATClass reports the STUN classification from Join.
func (h *Host) NATClass() stun.NATClass { return h.natClass }

// Mapped reports the external address of the WAVNet socket as observed
// during Join.
func (h *Host) Mapped() netsim.Addr { return h.mapped }

// Tunnels returns the current tunnel set keyed by peer name.
func (h *Host) Tunnels() map[string]*Tunnel {
	out := make(map[string]*Tunnel, len(h.tunnels))
	for k, v := range h.tunnels {
		out[k] = v
	}
	return out
}

// TunnelCount reports the size of the tunnel set without copying it.
func (h *Host) TunnelCount() int { return len(h.tunnels) }

// Tunnel returns the tunnel to a peer, if established.
func (h *Host) Tunnel(peer string) (*Tunnel, bool) {
	t, ok := h.tunnels[peer]
	return t, ok
}

// VirtualMTU is the MTU usable on the default virtual LAN: the physical
// UDP payload budget minus Packet Assembler, relay envelope and Ethernet
// header overhead. The relay envelope is reserved even on direct
// tunnels so every host on a virtual LAN agrees on one MTU.
func (h *Host) VirtualMTU() int {
	return 1472 - 1 - rendezvous.RelayHeaderLen - ether.HeaderLen
}

// SegmentMTU is the MTU usable within one virtual network: tagged
// segments pay the VNI tag on the wire, so every member of a VPC
// agrees on a slightly smaller MTU than the default network's.
func (h *Host) SegmentMTU(vni uint32) int {
	if vni == 0 {
		return h.VirtualMTU()
	}
	return h.VirtualMTU() - VNITagLen
}

// ---- NIC plumbing for stacks and VMs ----

// AttachVIF adds a port to the host's default-network bridge (for a
// VM's virtual NIC or an extra local stack) and returns it.
func (h *Host) AttachVIF(name string) ether.NIC {
	return h.segments[0].bridge.AddPort(name)
}

// AttachVIFOn adds a port to the bridge of one virtual network segment
// (the host must have joined the VNI first).
func (h *Host) AttachVIFOn(vni uint32, name string) (ether.NIC, error) {
	seg, ok := h.segments[vni]
	if !ok {
		return nil, fmt.Errorf("core: %s has no segment for VNI %d", h.name, vni)
	}
	return seg.bridge.AddPort(name), nil
}

// DetachVIF unplugs a previously attached port from whichever bridge
// holds it.
func (h *Host) DetachVIF(nic ether.NIC) {
	if p, ok := nic.(*ether.BridgePort); ok {
		p.Bridge().RemovePort(p)
	}
}

// CreateDom0 attaches the host's own virtual stack (the management
// domain of Figure 5) to the default bridge with the given virtual IP.
func (h *Host) CreateDom0(ip netsim.IP) *ipstack.Stack {
	st, _ := h.CreateDom0On(0, ip)
	return st
}

// CreateDom0On attaches a per-network management stack to the given
// VNI's segment. Each segment holds at most one dom0.
func (h *Host) CreateDom0On(vni uint32, ip netsim.IP) (*ipstack.Stack, error) {
	seg, ok := h.segments[vni]
	if !ok {
		return nil, fmt.Errorf("core: %s has no segment for VNI %d", h.name, vni)
	}
	name := "vnet0"
	stackName := h.name + "-dom0"
	if vni != 0 {
		name = fmt.Sprintf("vnet0.%d", vni)
		stackName = fmt.Sprintf("%s-dom0.%d", h.name, vni)
	}
	h.macSeq++
	nic := seg.bridge.AddPort(name)
	seg.dom0 = ipstack.New(h.eng, stackName, nic, h.newMAC(), ip,
		ipstack.Config{MTU: h.SegmentMTU(vni), Pool: h.pool})
	return seg.dom0, nil
}

// Dom0 returns the host's default-network management stack (nil before
// CreateDom0).
func (h *Host) Dom0() *ipstack.Stack { return h.segments[0].dom0 }

// Dom0On returns the per-network management stack of one segment.
func (h *Host) Dom0On(vni uint32) *ipstack.Stack {
	if seg, ok := h.segments[vni]; ok {
		return seg.dom0
	}
	return nil
}

// NewMAC hands out deterministic unique MACs for VMs on this host.
func (h *Host) NewMAC() ether.MAC { return h.newMAC() }

func (h *Host) newMAC() ether.MAC {
	h.macSeq++
	// Derive from the host name: physical IPs are not unique across
	// NATed LANs (every site can use 192.168.0.2).
	var hash uint32 = 2166136261
	for i := 0; i < len(h.name); i++ {
		hash ^= uint32(h.name[i])
		hash *= 16777619
	}
	return ether.MAC{0x02, 0x57, byte(hash >> 24), byte(hash >> 16), byte(hash >> 8), byte(h.macSeq)}
}

// ---- control plane ----

func (h *Host) newWaiter(fn func(*rendezvous.Msg)) uint64 {
	h.nextID++
	id := h.nextID
	h.waiters[id] = fn
	return id
}

// rpc sends a rendezvous message and blocks until the matching reply or
// the RPC timeout.
func (h *Host) rpc(p *sim.Proc, m *rendezvous.Msg) (*rendezvous.Msg, error) {
	var resp *rendezvous.Msg
	id := h.newWaiter(func(r *rendezvous.Msg) {
		resp = r
		p.Unpark()
	})
	m.ID = id
	rendezvous.Send(h.sock, h.rdv, m)
	ok := p.WaitUntil(h.eng.Now().Add(h.cfg.RPCTimeout), func() bool { return resp != nil })
	delete(h.waiters, id)
	if !ok {
		return nil, ErrInterrupted
	}
	if resp == nil {
		return nil, ErrTimeout
	}
	if resp.Kind == rendezvous.KindError || resp.Error != "" {
		return nil, fmt.Errorf("core: rendezvous: %s", resp.Error)
	}
	return resp, nil
}

// Join registers the host with a rendezvous server: STUN classification,
// external-mapping discovery on the WAVNet socket, broker registration
// and the keepalive session.
func (h *Host) Join(p *sim.Proc, rdv netsim.Addr) error {
	h.rdv = rdv
	stunAddr := netsim.Addr{IP: rdv.IP, Port: 3478}

	// 1. Classify the NAT in front of us (dedicated socket; the NAT type
	// is a property of the gateway, not of the socket).
	res, err := stun.Classify(p, h.phys, stunAddr, stun.Config{})
	if err != nil {
		return fmt.Errorf("core: STUN classify: %w", err)
	}
	h.natClass = res.Class

	// 2. Learn the WAVNet socket's own external mapping: a binding
	// request from the main socket (cone NATs map per local endpoint).
	mapped, err := h.bindingRequest(p, stunAddr)
	if err != nil {
		return fmt.Errorf("core: STUN binding: %w", err)
	}
	h.mapped = mapped

	// 3. Register with the broker.
	rec := h.record()
	resp, err := h.rpc(p, &rendezvous.Msg{Kind: rendezvous.KindJoin, Rec: &rec})
	if err != nil {
		return err
	}
	if resp.Rec != nil {
		h.mapped = resp.Rec.Mapped
	}
	h.joined = true
	h.brokerSeen = h.eng.Now()

	// 4. Keep the broker session (and its NAT mapping) alive, and watch
	// for home-broker silence: the broker acks every pulse, so a quiet
	// period longer than BrokerTimeout means it is gone and the host
	// must re-home onto a surviving candidate.
	if h.rdvTick != nil {
		h.rdvTick.Stop()
	}
	h.rdvTick = sim.NewTicker(h.eng, h.cfg.RendezvousPulsePeriod, func() {
		rendezvous.Send(h.sock, h.rdv, &rendezvous.Msg{Kind: rendezvous.KindPulse, Name: h.name})
		h.checkBrokerLiveness()
	})
	return nil
}

// checkBrokerLiveness triggers re-homing when the home broker has been
// silent past BrokerTimeout and the host knows at least one other
// candidate broker to elect.
func (h *Host) checkBrokerLiveness() {
	if !h.joined || h.recovering {
		return
	}
	if h.eng.Now().Sub(h.brokerSeen) <= h.cfg.BrokerTimeout {
		return
	}
	if len(h.survivors(h.rdv)) == 0 {
		return
	}
	h.recovering = true
	h.eng.Spawn("rehome-"+h.name, func(p *sim.Proc) {
		defer func() { h.recovering = false }()
		h.rehome(p)
	})
}

// survivors is the candidate set minus one (dead) broker.
func (h *Host) survivors(dead netsim.Addr) []netsim.Addr {
	out := make([]netsim.Addr, 0, len(h.candidates))
	for _, a := range h.candidates {
		if a != dead {
			out = append(out, a)
		}
	}
	return out
}

// rehome runs the failover election: a JoinAny-style pass over the
// surviving candidates — the broker just declared dead is excluded, not
// retried — then re-registers under the host's current network scope.
// The new home broker replicates the fresh record across the network's
// broker set, which supersedes the stale replicas naming the dead
// broker. Established tunnels are untouched: the data plane never
// needed the broker. On failure (no live candidate either) the host is
// re-pointed at the broker it declared dead, so the next pulse tick's
// election keeps excluding exactly that broker instead of whichever
// survivor happened to fail last.
func (h *Host) rehome(p *sim.Proc) error {
	sp := h.cfg.Tracer.Start(nil, "rehome", obs.Labels{Host: h.name, Net: h.network})
	defer sp.End()
	dead := h.rdv
	sp.Event("broker %v silent %v", dead, h.BrokerSilence())
	cands := h.survivors(dead)
	if len(cands) == 0 {
		h.RehomeFailures++
		sp.Event("no surviving candidate")
		return ErrUnreachable
	}
	if err := h.electAndJoin(p, cands); err != nil {
		// Join pointed h.rdv at each candidate it tried; restore the old
		// home so pulses and the next election still target the broker
		// actually declared dead.
		h.rdv = dead
		h.RehomeFailures++
		sp.Event("election failed: %v", err)
		return err
	}
	h.Rehomes++
	sp.Event("rehomed to %v", h.rdv)
	// The new home broker has never heard of our service VIPs; its
	// replication then supersedes the stale records naming the dead one.
	h.reannounceVIPRecords()
	return nil
}

// reregister re-joins the current home broker after it reported our
// session unknown (it restarted and lost state). The scope (network,
// VNI, attributes) rides along in the registration record.
func (h *Host) reregister() {
	if !h.joined || h.recovering {
		return
	}
	h.recovering = true
	h.eng.Spawn("reregister-"+h.name, func(p *sim.Proc) {
		defer func() { h.recovering = false }()
		sp := h.cfg.Tracer.Start(nil, "reregister", obs.Labels{Host: h.name, Net: h.network})
		defer sp.End()
		if err := h.Join(p, h.rdv); err == nil {
			h.Reregisters++
			sp.Event("re-registered with %v", h.rdv)
			// The restarted broker lost our VIP records with its state.
			h.reannounceVIPRecords()
		} else {
			sp.Event("re-register failed: %v", err)
		}
	})
}

// record is the host's current registration record.
func (h *Host) record() rendezvous.HostRecord {
	return rendezvous.HostRecord{
		Name:  h.name,
		NAT:   h.natClass.NATType(),
		Attrs: h.cfg.Attrs,
		Net:   h.network,
		VNI:   h.vni,
	}
}

// JoinVPC admits the host into a virtual private cloud: it joins the
// VNI's data-plane segment and re-registers with the rendezvous layer
// scoped to the network, so Lookup, GroupQuery and broker-mediated
// connects only ever see co-tenants. The host must already have joined
// a rendezvous server.
func (h *Host) JoinVPC(p *sim.Proc, network string, vni uint32) error {
	if !h.joined {
		return ErrNotJoined
	}
	_, hadSegment := h.segments[vni]
	h.JoinVNI(vni)
	prevNet, prevVNI := h.network, h.vni
	h.network, h.vni = network, vni
	rec := h.record()
	if _, err := h.rpc(p, &rendezvous.Msg{Kind: rendezvous.KindJoin, Rec: &rec}); err != nil {
		// Roll the whole join back: a host whose registration failed
		// must not keep a data-plane segment that would pass the
		// isolation check for a tenant it never entered.
		h.network, h.vni = prevNet, prevVNI
		if !hadSegment {
			h.LeaveVNI(vni)
		}
		return err
	}
	return nil
}

// LeaveVPC returns the host to the default network: the rendezvous
// registration is re-scoped to the default tenant. The VNI segment is
// left to the caller (vpc.Manager.Evict drops it).
func (h *Host) LeaveVPC(p *sim.Proc) error {
	return h.JoinVPC(p, "", 0)
}

// JoinAny registers with the first reachable rendezvous server in the
// list — the paper's "sending a joining message to at least one
// rendezvous server". Servers are tried in order; a dead broker costs
// one STUN/RPC timeout before the next is attempted. The list becomes
// the host's standing candidate set for broker failover, and every
// address actually attempted (in order, the winner last) is recorded in
// JoinAttempts so a later re-home election can see — and skip — brokers
// that were already found dead.
func (h *Host) JoinAny(p *sim.Proc, rdvs []netsim.Addr) error {
	h.candidates = append([]netsim.Addr(nil), rdvs...)
	return h.electAndJoin(p, rdvs)
}

// electAndJoin is the election loop shared by JoinAny and rehome: it
// records the attempted brokers but deliberately leaves the standing
// candidate set alone, so a reconciler push (SetBrokerCandidates)
// landing while an election is parked in simulated time is never
// clobbered by a stale snapshot.
func (h *Host) electAndJoin(p *sim.Proc, rdvs []netsim.Addr) error {
	h.joinAttempts = h.joinAttempts[:0]
	var lastErr error = ErrUnreachable
	for _, addr := range rdvs {
		h.joinAttempts = append(h.joinAttempts, addr)
		if err := h.Join(p, addr); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// JoinAttempts returns the brokers the last JoinAny election attempted,
// in order; the final entry is the one that answered (or the last
// failure when the whole election failed).
func (h *Host) JoinAttempts() []netsim.Addr {
	return append([]netsim.Addr(nil), h.joinAttempts...)
}

// SetBrokerCandidates installs the standing broker candidate set used
// for failover — the reconciler pushes the addresses of the network's
// declared broker set (NetworkSpec.Brokers) here on every Apply, so
// re-homing respects the tenant's federation scope.
func (h *Host) SetBrokerCandidates(addrs []netsim.Addr) {
	h.candidates = append([]netsim.Addr(nil), addrs...)
}

// BrokerCandidates returns the standing failover candidate set.
func (h *Host) BrokerCandidates() []netsim.Addr {
	return append([]netsim.Addr(nil), h.candidates...)
}

// BrokerSilence reports how long ago the home broker was last heard.
func (h *Host) BrokerSilence() sim.Duration { return h.eng.Now().Sub(h.brokerSeen) }

// stun binding request over the main socket.
func (h *Host) bindingRequest(p *sim.Proc, server netsim.Addr) (netsim.Addr, error) {
	for try := 0; try < 3; try++ {
		var got netsim.Addr
		done := false
		h.stunWait = func(m *stun.Message) {
			got = m.Mapped
			done = true
			p.Unpark()
		}
		req := &stun.Message{Type: stun.TypeBindingRequest}
		req.TxID[0] = byte(try + 1)
		h.sock.SendTo(server, req.Marshal())
		ok := p.WaitUntil(h.eng.Now().Add(time500ms), func() bool { return done })
		h.stunWait = nil
		if !ok {
			return netsim.Addr{}, ErrInterrupted
		}
		if !got.IsZero() {
			return got, nil
		}
	}
	return netsim.Addr{}, ErrUnreachable
}

const time500ms = 500 * sim.Millisecond

// Lookup resolves a host record by name through the rendezvous layer.
func (h *Host) Lookup(p *sim.Proc, name string) ([]rendezvous.HostRecord, error) {
	if !h.joined {
		return nil, ErrNotJoined
	}
	resp, err := h.rpc(p, &rendezvous.Msg{Kind: rendezvous.KindLookup, Name: name, Net: h.network})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// LookupAttrs queries hosts by resource-state point via the CAN.
func (h *Host) LookupAttrs(p *sim.Proc, attrs can.Point) ([]rendezvous.HostRecord, error) {
	if !h.joined {
		return nil, ErrNotJoined
	}
	resp, err := h.rpc(p, &rendezvous.Msg{Kind: rendezvous.KindLookup, Attrs: attrs, Net: h.network})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// GroupQuery asks the rendezvous server's distance locator for k
// mutually-near hosts.
func (h *Host) GroupQuery(p *sim.Proc, k int) ([]string, error) {
	if !h.joined {
		return nil, ErrNotJoined
	}
	resp, err := h.rpc(p, &rendezvous.Msg{Kind: rendezvous.KindGroupQuery, Name: h.name, K: k, Net: h.network})
	if err != nil {
		return nil, err
	}
	return resp.Group, nil
}

// ReportRTTs uploads measured peer RTTs to the distance locator.
func (h *Host) ReportRTTs(rtts map[string]sim.Duration) {
	if !h.joined {
		return
	}
	m := &rendezvous.Msg{Kind: rendezvous.KindRTTReport, Name: h.name}
	for peer, d := range rtts {
		m.RTTs = append(m.RTTs, rendezvous.PeerRTT{Peer: peer, NS: int64(d)})
	}
	sort.Slice(m.RTTs, func(i, j int) bool { return m.RTTs[i].Peer < m.RTTs[j].Peer })
	rendezvous.Send(h.sock, h.rdv, m)
}

// ConnectTo establishes a direct tunnel to the named peer via the
// rendezvous layer and UDP hole punching, blocking until it is up.
func (h *Host) ConnectTo(p *sim.Proc, peer string) (*Tunnel, error) {
	if !h.joined {
		return nil, ErrNotJoined
	}
	if t, ok := h.tunnels[peer]; ok && t.established {
		return t, nil
	}
	sp := h.cfg.Tracer.Start(nil, "connect", obs.Labels{Host: h.name, Net: h.network})
	defer sp.End()
	sp.Event("request %s", peer)
	// Wait for establishment triggered by the punch exchange. The
	// connect request is retried a few times: the rendezvous message or
	// punch-order can be lost under connection storms. Whatever the
	// outcome, this call's waiter never outlives it.
	done := false
	var rpcErr error
	h.nextID++
	waiterID := h.nextID
	h.connWaiters[peer] = append(h.connWaiters[peer], connWaiter{waiterID, func() {
		done = true
		p.Unpark()
	}})
	defer h.dropConnWaiter(peer, waiterID)
	attemptWindow := h.cfg.RPCTimeout/2 + sim.Duration(h.cfg.PunchTries)*h.cfg.PunchInterval
	for attempt := 0; attempt < 3 && !done; attempt++ {
		transient := false
		id := h.newWaiter(func(r *rendezvous.Msg) {
			if r.Error != "" {
				rpcErr = fmt.Errorf("core: connect: %s", r.Error)
				transient = r.Code == rendezvous.CodeNotFound
				done = true
				p.Unpark()
			}
		})
		rendezvous.Send(h.sock, h.rdv, &rendezvous.Msg{
			Kind: rendezvous.KindConnect, ID: id, Name: h.name,
			Peer: &rendezvous.HostRecord{Name: peer},
		})
		ok := p.WaitUntil(h.eng.Now().Add(attemptWindow), func() bool { return done })
		delete(h.waiters, id)
		if !ok {
			// A stop request (mesh-repair teardown, engine shutdown)
			// must not be swallowed by another connect attempt.
			sp.Event("interrupted")
			return nil, ErrInterrupted
		}
		if rpcErr != nil {
			// A not-found is transient in a federation: the peer may be
			// homed on another broker whose (possibly batched) record
			// replication has not reached ours yet. Back off and retry;
			// policy refusals and other errors stay immediate.
			if attempt < 2 && transient {
				sp.Event("transient not-found, retrying")
				rpcErr = nil
				done = false
				if !p.Sleep(sim.Duration(attempt+1) * 2 * sim.Second) {
					sp.Event("interrupted")
					return nil, ErrInterrupted
				}
				continue
			}
			sp.Event("refused: %v", rpcErr)
			return nil, rpcErr
		}
	}
	t, ok := h.tunnels[peer]
	if !ok || !t.established {
		sp.Event("punch failed")
		return nil, ErrPunchFailed
	}
	if t.Relayed {
		sp.Event("established %s (relayed)", peer)
	} else {
		sp.Event("established %s at %v", peer, t.Remote)
	}
	return t, nil
}

// dropConnWaiter removes one pending establishment callback (no-op when
// establishment already consumed the whole list).
func (h *Host) dropConnWaiter(peer string, id uint64) {
	ws := h.connWaiters[peer]
	for i, w := range ws {
		if w.id == id {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(h.connWaiters, peer)
		return
	}
	h.connWaiters[peer] = ws
}

// Disconnect tears down the tunnel to a peer.
func (h *Host) Disconnect(peer string) {
	t, ok := h.tunnels[peer]
	if !ok {
		return
	}
	h.dropTunnel(t)
}

func (h *Host) dropTunnel(t *Tunnel) {
	if t.pulser != nil {
		t.pulser.Stop()
	}
	delete(h.tunnels, t.Peer)
	// Relayed tunnels share the relay's address; only unmap our own.
	if cur, ok := h.byAddr[t.Remote]; ok && cur == t {
		delete(h.byAddr, t.Remote)
	}
	if t.relayChan != 0 {
		delete(h.byChan, t.relayChan)
	}
	// Abandon any pending egress: the peer is gone. The tunnel may
	// still sit on pendingFlush; the flush skips empty queues.
	if buf, _, _ := t.takeEgress(); buf != nil {
		buf.Release()
	}
	h.wswitch.ForgetPort(t)
}

// Leave shuts down the host's WAVNet participation.
func (h *Host) Leave() {
	for _, t := range h.Tunnels() {
		h.dropTunnel(t)
	}
	if h.rdvTick != nil {
		h.rdvTick.Stop()
		h.rdvTick = nil
	}
	h.DrainFlows()
	h.joined = false
}
