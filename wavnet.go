// Package wavnet is the public API of the WAVNet reproduction: a
// layer-2 peer-to-peer VPN for building Virtual Private Clouds over
// NATed wide-area networks, after Xu, Di, Zhang, Cheng and Wang,
// "WAVNet: Wide-Area Network Virtualization Technique for Virtual
// Private Cloud" (ICPP 2011).
//
// Everything runs inside a deterministic discrete-event simulation: you
// build a physical Internet (sites, latencies, NAT gateways), start a
// rendezvous server, join WAVNet hosts to it, connect them with UDP hole
// punching, and then run real protocol stacks — ARP, IPv4, ICMP, UDP,
// TCP — plus VMs with live migration on the resulting virtual LAN.
//
// The quickest way in:
//
//	world, _ := wavnet.NewRealWAN(1)
//	_ = world.WAVNetUp("HKU1", "SIAT")
//	world.Eng.Spawn("demo", func(p *sim.Proc) {
//	    rtt, _ := world.M("HKU1").Dom0().Ping(p, world.M("SIAT").VIP, 56, 5*sim.Second)
//	    fmt.Println("virtual LAN rtt:", rtt)
//	})
//	world.Eng.Run()
//
// The subsystem packages under internal/ do the work; this package
// re-exports the surface a downstream user needs: scenario building,
// hosts, tunnels, VMs, the workload generators, the grouping strategy
// and the experiment harness.
package wavnet

import (
	"math/rand"

	"wavnet/internal/apps"
	"wavnet/internal/bot"
	"wavnet/internal/can"
	"wavnet/internal/core"
	"wavnet/internal/dhcp"
	"wavnet/internal/ether"
	"wavnet/internal/experiments"
	"wavnet/internal/grouping"
	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/placement"
	"wavnet/internal/planetlab"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/trace"
	"wavnet/internal/vm"
	"wavnet/internal/vpc"
)

// Core simulation types.
type (
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine
	// Proc is a simulation process; blocking APIs take one.
	Proc = sim.Proc
	// Duration is virtual time (an alias of time.Duration).
	Duration = sim.Duration
	// Time is a virtual timestamp.
	Time = sim.Time
)

// Physical network types.
type (
	// IP is an IPv4 address.
	IP = netsim.IP
	// Addr is a UDP/TCP endpoint.
	Addr = netsim.Addr
	// NATType enumerates gateway behaviours.
	NATType = nat.Type
)

// NAT behaviours.
const (
	NATNone               = nat.None
	NATFullCone           = nat.FullCone
	NATRestrictedCone     = nat.RestrictedCone
	NATPortRestrictedCone = nat.PortRestrictedCone
	NATSymmetric          = nat.Symmetric
)

// WAVNet system types.
type (
	// World is a built evaluation topology (physical net + rendezvous).
	World = scenario.World
	// Machine is one physical host of a World.
	Machine = scenario.Machine
	// Spec describes a machine when building custom worlds.
	Spec = scenario.Spec
	// Host is a WAVNet participant (the paper's core contribution).
	Host = core.Host
	// HostConfig tunes a Host.
	HostConfig = core.Config
	// HostRecord is what the rendezvous layer knows about a host.
	HostRecord = rendezvous.HostRecord
	// Point is a multi-attribute resource-state vector (CAN coordinates
	// in [0,1) per dimension).
	Point = can.Point
	// Tunnel is a punched host-to-host connection.
	Tunnel = core.Tunnel
	// Stack is a virtual TCP/IP protocol stack on the WAVNet LAN.
	Stack = ipstack.Stack
	// StackConfig tunes a Stack (MTU, buffers).
	StackConfig = ipstack.Config
	// Conn is a virtual TCP connection.
	Conn = ipstack.Conn
	// NIC is a virtual network interface on the link layer.
	NIC = ether.NIC
	// MAC is an Ethernet hardware address.
	MAC = ether.MAC
	// VM is a migratable virtual machine.
	VM = vm.VM
	// VMConfig tunes a VM (memory, dirty rate, pre-copy bounds).
	VMConfig = vm.Config
	// MigrationReport records one live migration.
	MigrationReport = vm.MigrationReport
)

// Workload generators (the paper's measurement tools).
type (
	// PingRun is an ICMP probe series.
	PingRun = apps.PingRun
	// NetperfRun is a TCP_STREAM measurement.
	NetperfRun = apps.NetperfRun
	// TTCPResult is a ttcp bulk-transfer measurement.
	TTCPResult = apps.TTCPResult
	// ABResult is an ApacheBench-style HTTP load report.
	ABResult = apps.ABResult
	// FetchResult is an scp-style file transfer report.
	FetchResult = apps.FetchResult
	// FileServer serves a catalogue of named synthetic files.
	FileServer = apps.FileServer
)

// Workload launchers.
var (
	// StartPinger launches a ping loop (see apps.StartPinger).
	StartPinger = apps.StartPinger
	// StartNetperf launches a TCP_STREAM run.
	StartNetperf = apps.StartNetperf
	// StartSink starts a discard TCP server.
	StartSink = apps.StartSink
	// StartHTTPServer serves synthetic files.
	StartHTTPServer = apps.StartHTTPServer
	// StartAB launches concurrent HTTP load.
	StartAB = apps.StartAB
	// TTCP performs one bulk transfer.
	TTCP = apps.TTCP
	// StartFileServer serves named files (the paper's FTP/SCP workload).
	StartFileServer = apps.StartFileServer
	// Fetch retrieves one file, scp-style.
	Fetch = apps.Fetch
)

// NewEngine creates a simulation engine with a deterministic seed.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewRealWAN builds the paper's Table I topology: seven Asia-Pacific
// sites around an HKU hub, NAT gateways, and a rendezvous server.
func NewRealWAN(seed int64) (*World, error) {
	return scenario.Build(seed, scenario.RealWANSpecs(), scenario.RealWANOverrides())
}

// NewEmulatedWAN builds the paper's emulated testbed: n NATed PCs whose
// WAN access is shaped to wanBps.
func NewEmulatedWAN(seed int64, n int, wanBps float64) (*World, error) {
	return scenario.Build(seed, scenario.EmulatedWANSpecs(n, wanBps), nil)
}

// NewWorld builds a custom topology from machine specs; overrides pins
// specific pairwise RTTs (keyed by machine-key pairs).
func NewWorld(seed int64, specs []Spec, overrides map[[2]string]Duration) (*World, error) {
	return scenario.Build(seed, specs, overrides)
}

// NewVM boots a virtual machine on a WAVNet host (or an IPOP node).
func NewVM(host vm.HostPort, name string, ip IP, cfg VMConfig) *VM {
	return vm.New(host, name, ip, cfg)
}

// NewStack creates a guest protocol stack on a NIC. Pass ip 0 for an
// unconfigured stack (to be configured by DHCP).
func NewStack(eng *Engine, name string, nic NIC, mac MAC, ip IP, cfg StackConfig) *Stack {
	return ipstack.New(eng, name, nic, mac, ip, cfg)
}

// ParseIP parses a dotted-quad address.
func ParseIP(s string) (IP, error) { return netsim.ParseIP(s) }

// BroadcastIP is the limited-broadcast address 255.255.255.255.
const BroadcastIP = netsim.BroadcastIP

// ---- multi-tenant VPCs (isolated virtual networks over one fabric) ----

type (
	// VPCManager is the multi-tenant control plane: create/delete
	// networks, admit and evict hosts. Worlds expose one via
	// World.VPC(); World.Apply with a TenantSpec is the high-level
	// path.
	VPCManager = vpc.Manager
	// VPCNetwork is one isolated virtual network (name, VNI, CIDR).
	VPCNetwork = vpc.Network
	// VPCMember is one host's membership (its per-network stack and IP).
	VPCMember = vpc.Member
	// VPCConfig tunes a network at creation (pinned VNI, default flag,
	// static addressing, lease time).
	VPCConfig = vpc.NetworkConfig
	// CIDR is an IPv4 prefix ("10.0.0.0/24").
	CIDR = vpc.CIDR
)

// Tenant API v2: declarative specs reconciled by World.Apply. Declare
// what a tenant's private cloud should look like — networks, members,
// peerings, quota — and Apply converges live state onto it, returning
// the actions taken. Applying an unchanged spec again is a no-op.
type (
	// TenantSpec is the desired state of one tenant's private cloud.
	TenantSpec = vpc.TenantSpec
	// NetworkSpec declares one virtual network (name, CIDR, pinned VNI,
	// member machine keys, addressing mode).
	NetworkSpec = vpc.NetworkSpec
	// PeeringSpec is a policy-carrying route between two of the
	// tenant's networks (allowed destination prefixes per side).
	PeeringSpec = vpc.PeeringSpec
	// VMSpec declares one managed VM: the network and address its vif
	// plugs into, its image geometry, and the member host it should run
	// on ("" lets the placement scheduler choose). Apply converges a
	// changed Host by live migration.
	VMSpec = vpc.VMSpec
	// ServiceSpec declares one L3 service: a VIP (allocated from the
	// network's ServicePool, or pinned inside it) steered across
	// health-checked backends. Apply converges it like any other spec
	// object (service-create/service-update/service-evict).
	ServiceSpec = vpc.ServiceSpec
	// BackendSpec names one backend of a service: a member machine key
	// or a managed VM of the same network (exactly one of the two).
	BackendSpec = vpc.BackendSpec
	// QuotaSpec caps a tenant's send rate per (member host, tunnel) and
	// its VM capacity (count and total memory).
	QuotaSpec = vpc.QuotaSpec
	// ApplyReport lists every action one World.Apply took.
	ApplyReport = vpc.ApplyReport
	// ApplyAction is one state change in an ApplyReport.
	ApplyAction = vpc.Action
)

// Service steering policies (ServiceSpec.Policy).
const (
	// PolicyAnycastNearest steers each client to the nearest healthy
	// backend by the distance locator's RTT matrix.
	PolicyAnycastNearest = rendezvous.PolicyAnycastNearest
	// PolicyFailoverOrdered keeps all traffic on the first healthy
	// backend in declared order.
	PolicyFailoverOrdered = rendezvous.PolicyFailoverOrdered
)

// Federated rendezvous: a network's records replicate only among the
// brokers its spec names (NetworkSpec.Brokers); hosts home on one
// broker (World.SetHome) but connect fabric-wide — cross-broker
// connects are forwarded between brokers.
type (
	// RendezvousServer is one broker of the federation.
	RendezvousServer = rendezvous.Server
	// RendezvousConfig tunes a broker (ports, session TTL, relay
	// fallback, replication batching, broker liveness TTL).
	RendezvousConfig = rendezvous.Config
)

// Chaos harness: deterministic fault injection against the sim clock.
// Schedule broker kills, restarts and WAN partitions with World.Inject
// and assert convergence afterwards — hosts whose home broker dies
// re-home onto another broker of their network's declared set.
type (
	// Fault is one scripted fault of a chaos schedule.
	Fault = scenario.Fault
	// FaultRecord is one executed fault (virtual time + outcome).
	FaultRecord = scenario.FaultRecord
	// FaultInjector tracks a running fault schedule.
	FaultInjector = scenario.FaultInjector
)

// Fault constructors for World.Inject schedules.
var (
	// KillBrokerAt schedules a broker crash (state lost).
	KillBrokerAt = scenario.KillBrokerAt
	// RestartBrokerAt schedules a crashed broker's empty-state restart.
	RestartBrokerAt = scenario.RestartBrokerAt
	// PartitionAt schedules a WAN partition between two endpoints.
	PartitionAt = scenario.PartitionAt
	// HealAt schedules the repair of a WAN partition.
	HealAt = scenario.HealAt
)

// NewVPCManager creates a standalone multi-tenant control plane (for
// custom setups outside a World).
func NewVPCManager() *VPCManager { return vpc.NewManager() }

// ---- tenant-aware VM placement (scheduler + migration-as-convergence) ----

// Declare VMs in a TenantSpec (VMSpec) and World.Apply keeps them where
// the spec says: placement on a member host (scheduler-chosen when
// Host is ""), live migration when the desired host changes, eviction
// when the VM leaves the spec. World.ResolveVM finds managed VMs;
// World.AddVM boots unmanaged ones on the default LAN.
type (
	// PlacementScheduler scores candidate hosts for a VM: locality core
	// first (the distance locator's measured RTTs through the paper's
	// grouping algorithm), then load, constrained to the network's
	// declared brokers.
	PlacementScheduler = placement.Scheduler
	// PlacementConfig tunes the scheduler (core size, RTT edge cutoff).
	PlacementConfig = placement.Config
	// PlacementCandidate is one host eligible to run a VM.
	PlacementCandidate = placement.Candidate
	// PlacementRequest describes the VM that needs a host.
	PlacementRequest = placement.Request
	// PlacementDecision is a choice with its scoring diagnostics.
	PlacementDecision = placement.Decision
)

// NewPlacementScheduler creates a standalone placement scheduler (the
// reconciler keeps its own; this is for custom control planes).
func NewPlacementScheduler(cfg PlacementConfig) *PlacementScheduler { return placement.New(cfg) }

// ParseCIDR parses "a.b.c.d/n".
func ParseCIDR(s string) (CIDR, error) { return vpc.ParseCIDR(s) }

// ---- DHCP over the virtual LAN (paper §II.B's "unmodified protocols") ----

type (
	// DHCPServer leases virtual addresses on a WAVNet LAN segment.
	DHCPServer = dhcp.Server
	// DHCPClient obtains and renews a lease for an unconfigured stack.
	DHCPClient = dhcp.Client
	// DHCPServerConfig tunes the pool and lease policy.
	DHCPServerConfig = dhcp.ServerConfig
	// DHCPClientConfig tunes client retransmission.
	DHCPClientConfig = dhcp.ClientConfig
)

// NewDHCPServer starts a DHCP server on a (statically configured) stack.
func NewDHCPServer(st *Stack, cfg DHCPServerConfig) (*DHCPServer, error) {
	return dhcp.NewServer(st, cfg)
}

// NewDHCPClient creates a DHCP client on an (unconfigured) stack.
func NewDHCPClient(st *Stack, cfg DHCPClientConfig) (*DHCPClient, error) {
	return dhcp.NewClient(st, cfg)
}

// ---- packet tracing (the simulation's tcpdump) ----

type (
	// Tracer is a transparent frame capture on any NIC.
	Tracer = trace.Tracer
	// TraceRecord is one captured frame.
	TraceRecord = trace.Record
	// TraceFilter selects frames to keep.
	TraceFilter = trace.Filter
)

// AttachTracer interposes a tracer on nic; use the tracer as the NIC.
func AttachTracer(eng *Engine, name string, nic NIC) *Tracer {
	return trace.Attach(eng, name, nic)
}

// Trace filters (tcpdump expressions).
var (
	// TraceARPOnly keeps ARP frames.
	TraceARPOnly = trace.ARPOnly
	// TraceGratuitousARPOnly keeps post-migration announcements.
	TraceGratuitousARPOnly = trace.GratuitousARPOnly
	// TraceBroadcast keeps broadcast frames.
	TraceBroadcast = trace.Broadcast
)

// ---- Bag-of-Tasks runtime (the paper's motivating workload) ----

type (
	// BagTask is one unit of Bag-of-Tasks work.
	BagTask = bot.Task
	// BagWorker executes tasks on a stack.
	BagWorker = bot.Worker
	// BagRun reports a completed bag execution.
	BagRun = bot.Run
	// BagOptions tunes scheduling and failure handling.
	BagOptions = bot.Options
)

// StartBagWorker runs a Bag-of-Tasks worker on st:port with a relative
// speed (1.0 = reference machine).
func StartBagWorker(st *Stack, port uint16, speed float64) (*BagWorker, error) {
	return bot.StartWorker(st, port, speed)
}

// ExecuteBag runs tasks on the given workers from master, blocking the
// process until the bag completes.
func ExecuteBag(p *Proc, master *Stack, workers []Addr, tasks []BagTask, opts BagOptions) (*BagRun, error) {
	return bot.Execute(p, master, workers, tasks, opts)
}

// UniformBag builds n identical tasks.
func UniformBag(n, inputBytes, outputBytes int, compute Duration) []BagTask {
	return bot.UniformTasks(n, inputBytes, outputBytes, compute)
}

// ---- locality-sensitive grouping (paper §II.D) ----

// GroupLocality selects k mutually-near hosts from an RTT matrix using
// the paper's O(N·k) approximation.
func GroupLocality(rtts [][]Duration, k int) ([]int, error) {
	return grouping.LocalitySensitive(rtts, k)
}

// GroupRandom is the random-selection baseline.
func GroupRandom(rtts [][]Duration, k int, rng *rand.Rand) ([]int, error) {
	return grouping.Random(rtts, k, rng)
}

// GroupMeanLatency evaluates Formula (1) of the paper for a group.
func GroupMeanLatency(rtts [][]Duration, group []int) Duration {
	return grouping.MeanLatency(rtts, group)
}

// GroupMaxLatency reports the widest edge inside a group.
func GroupMaxLatency(rtts [][]Duration, group []int) Duration {
	return grouping.MaxLatency(rtts, group)
}

// PlanetLabDataset generates the synthetic 400-host latency universe
// used by Figures 12-14.
func PlanetLabDataset(seed int64) *planetlab.Dataset {
	return planetlab.Generate(seed, planetlab.Config{})
}

// ---- experiment harness ----

// ExperimentOptions tunes experiment scale.
type ExperimentOptions = experiments.Options

// Experiments lists every table/figure reproduction.
func Experiments() []experiments.Runner { return experiments.All() }

// Experiment resolves a reproduction by id ("table2", "figure6", ...).
func Experiment(id string) (experiments.Runner, bool) { return experiments.ByID(id) }
