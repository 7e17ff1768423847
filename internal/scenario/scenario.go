// Package scenario builds the evaluation topologies of the paper:
//
//   - the real Asia-Pacific WAN of Table I (seven sites, measured RTTs to
//     HKU, access bandwidths calibrated to the paper's reported WAVNet
//     throughputs), and
//   - the emulated WAN (NATed PCs behind gateways whose uplinks are
//     shaped to a configurable rate, like the paper's iptables + tc
//     testbed).
//
// A World owns the physical network plus helpers that bring WAVNet, the
// IPOP baseline, or a raw "physical" data path up on any machine subset.
package scenario

import (
	"fmt"
	"time"

	"wavnet/internal/can"
	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/ipop"
	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/service"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
	"wavnet/internal/vpc"
)

// Spec describes one machine of a topology.
type Spec struct {
	Key       string
	RTTToHub  sim.Duration // round trip to the hub site (HKU)
	AccessBps float64      // gateway uplink/downlink rate
	NAT       nat.Type
	// Attrs is the machine's resource-state vector (e.g. normalized CPU
	// and memory), indexed by the rendezvous layer's CAN for attribute
	// queries. Optional; length must match the CAN dimensionality (2).
	Attrs can.Point
}

// RealWANSpecs reproduces Table I. RTTs are the paper's ping latencies;
// access bandwidths are calibrated so that measured WAVNet throughput
// lands near the paper's reported values (Tables IV and V).
func RealWANSpecs() []Spec {
	ms := func(v float64) sim.Duration { return sim.Duration(v * float64(time.Millisecond)) }
	return []Spec{
		{Key: "HKU1", RTTToHub: ms(0.5), AccessBps: 100e6, NAT: nat.FullCone},
		{Key: "HKU2", RTTToHub: ms(0.5), AccessBps: 100e6, NAT: nat.FullCone},
		{Key: "HKU3", RTTToHub: ms(0.5), AccessBps: 100e6, NAT: nat.RestrictedCone},
		{Key: "PU", RTTToHub: ms(30.2), AccessBps: 50e6, NAT: nat.RestrictedCone},
		{Key: "Sinica", RTTToHub: ms(24.8), AccessBps: 48e6, NAT: nat.FullCone},
		{Key: "AIST", RTTToHub: ms(75.8), AccessBps: 60e6, NAT: nat.PortRestrictedCone},
		{Key: "SDSC", RTTToHub: ms(271.2), AccessBps: 30e6, NAT: nat.FullCone},
		{Key: "OffCam", RTTToHub: ms(4.4), AccessBps: 95e6, NAT: nat.PortRestrictedCone},
		{Key: "SIAT", RTTToHub: ms(74.2), AccessBps: 21e6, NAT: nat.RestrictedCone},
	}
}

// RealWANOverrides lists measured pairwise RTTs that deviate from the
// hub-sum approximation (Table II reports SIAT–PU directly).
func RealWANOverrides() map[[2]string]sim.Duration {
	return map[[2]string]sim.Duration{
		{"SIAT", "PU"}: 219427 * time.Microsecond,
	}
}

// Machine is one physical host of a scenario with its optional overlay
// attachments.
type Machine struct {
	Key   string
	Index int
	Spec  Spec
	Phys  *netsim.Host
	GW    *nat.Gateway

	WAV  *core.Host
	IPOP *ipop.Node

	// home names the rendezvous broker this machine registers with
	// ("" = the world's primary broker).
	home string

	// VIP is the machine's virtual address on the WAVNet LAN (10.1.0.x);
	// the IPOP dom0 uses 10.2.0.x.
	VIP     netsim.IP
	IPOPVIP netsim.IP

	physStacks map[string]*ipstack.Stack
}

// Dom0 returns the machine's WAVNet management stack (nil before
// WAVNetUp).
func (m *Machine) Dom0() *ipstack.Stack {
	if m.WAV == nil {
		return nil
	}
	return m.WAV.Dom0()
}

// PrimaryBroker is the name of the rendezvous broker Build creates.
const PrimaryBroker = "rdv"

// brokerSite is the immutable placement of one broker: the machine it
// runs on, its site, STUN alternate IP and config — everything needed
// to restart a fresh server there after a kill.
type brokerSite struct {
	host *netsim.Host
	site *netsim.Site
	alt  netsim.IP
	cfg  rendezvous.Config
}

// World is a built scenario.
type World struct {
	Eng      *sim.Engine
	Net      *netsim.Network
	Hub      *netsim.Site
	Rdv      *rendezvous.Server // primary broker (Brokers[0])
	Machines []*Machine
	byKey    map[string]*Machine
	// machineOf attributes substrate hosts (each machine's PC and its
	// site gateway) back to the machine, so the network's drop hook can
	// charge wire losses to the WAVNet flows the lost packet carried —
	// WAN drops happen at the gateway, after NAT rewrote the source.
	machineOf map[*netsim.Host]*Machine

	// Obs is the world's span tracer: every host, broker, VM and the
	// VPC reconciler record their multi-step control flows (tunnel
	// punches, re-home elections, applies, migrations) into it, so
	// chaos tests assert on timelines rather than terminal counters.
	Obs *obs.Trace

	// FlowLog receives the closed flow records of every WAVNet host the
	// world creates (idle evictions and Leave/DrainFlows drains).
	// FlowScrape folds it into labeled series; TopTalkers ranks it.
	FlowLog *obs.FlowLog

	// Alerts is the world's rule-driven alerting engine: every Scrape
	// evaluates it over the scraped series, advancing each rule's
	// pending → firing → resolved lifecycle and recording firing windows
	// as "alert.<name>" spans on Obs. A second Scrape at the same sim
	// instant leaves rate rules as they were. Built with
	// DefaultAlertRules; add scenario-specific rules before traffic
	// starts.
	Alerts *obs.AlertEngine

	// HostCfg is the template config for WAVNet hosts the world creates
	// (joinHosts, ResolveHost); per-machine attributes override Attrs.
	// Set it before WAVNetUp/Apply — chaos tests use it to shorten pulse
	// periods and broker timeouts.
	HostCfg core.Config

	// Brokers are the world's rendezvous servers in creation order; all
	// are mutually federated, but records replicate only within each
	// network's declared broker set.
	Brokers      []*rendezvous.Server
	brokerByName map[string]*rendezvous.Server
	brokerSites  map[string]*brokerSite
	deadBrokers  map[string]bool
	// netFed is the applied federation per network: the broker names
	// serving it (absent = primary only).
	netFed map[string][]string

	IPOPNet *ipop.Network

	physPort uint16
	vpcMgr   *vpc.Manager

	// vms are the world-booted (unmanaged) VMs by name; tenant-managed
	// VMs live on the VPC manager and are found through ResolveVM.
	vms map[string]*vm.VM

	// scrapeReg and flowReg are the standing registries Scrape and
	// FlowScrape overwrite by pass, created on first use.
	scrapeReg, flowReg *obs.Registry
}

// M returns a machine by key, panicking on unknown keys (scenario wiring
// errors are programming errors).
func (w *World) M(key string) *Machine {
	m, ok := w.byKey[key]
	if !ok {
		panic("scenario: unknown machine " + key)
	}
	return m
}

// poisonLeases makes every world built run its buffer pool in poison
// mode (netsim.Pool.SetPoison). Only this package's TestMain sets it,
// so that every scenario test — the chaos tests above all — doubles as
// a use-after-release and double-release check.
var poisonLeases bool

// Build constructs a world from specs: a hub site holding the rendezvous
// server, plus one NATed machine per spec at its own site.
func Build(seed int64, specs []Spec, overrides map[[2]string]sim.Duration) (*World, error) {
	w := &World{
		Eng:          sim.NewEngine(seed),
		byKey:        make(map[string]*Machine),
		machineOf:    make(map[*netsim.Host]*Machine),
		brokerByName: make(map[string]*rendezvous.Server),
		brokerSites:  make(map[string]*brokerSite),
		deadBrokers:  make(map[string]bool),
		netFed:       make(map[string][]string),
		physPort:     4700,
		vms:          make(map[string]*vm.VM),
	}
	w.Net = netsim.New(w.Eng)
	w.Net.Pool().SetPoison(poisonLeases)
	w.Net.ReserveSites(len(specs) + 1)
	w.Hub = w.Net.NewSite("hub")
	w.Obs = obs.NewTrace(w.Eng, 0)
	w.FlowLog = obs.NewFlowLog(0)
	w.Alerts = obs.NewAlertEngine(w.Obs, DefaultAlertRules()...)
	// Attribute substrate drops back to the overlay: a lost packet that
	// carried an encapsulated frame (or a batch of them) charges each
	// frame's flow on the machine that sent it. The hook runs on the sim
	// event loop, so the flow table's single-writer invariant holds.
	w.Net.SetDropHook(func(from *netsim.Host, pkt *netsim.Packet, reason netsim.DropReason) {
		m := w.machineOf[from]
		if m == nil || m.WAV == nil {
			return
		}
		m.WAV.AccountWireDrop(pkt.Payload, flowDropReason(reason))
	})

	rdvCfg := rendezvous.Config{Name: PrimaryBroker, Tracer: w.Obs}
	rdvHost := w.Net.NewPublicHost("rdv", w.Hub, netsim.MustParseIP("50.0.0.1"), 1e9, 100*time.Microsecond)
	rdv, err := rendezvous.NewServer(rdvHost, netsim.MustParseIP("50.0.0.2"), rdvCfg)
	if err != nil {
		return nil, err
	}
	rdv.Bootstrap()
	w.Rdv = rdv
	w.Brokers = []*rendezvous.Server{rdv}
	w.brokerByName[PrimaryBroker] = rdv
	w.brokerSites[PrimaryBroker] = &brokerSite{
		host: rdvHost, site: w.Hub, alt: netsim.MustParseIP("50.0.0.2"), cfg: rdvCfg,
	}

	sites := make([]*netsim.Site, len(specs))
	for i, sp := range specs {
		site := w.Net.NewSite(sp.Key)
		sites[i] = site
		w.Net.SetRTT(w.Hub, site, sp.RTTToHub)
		for j := 0; j < i; j++ {
			rtt := sp.RTTToHub + specs[j].RTTToHub
			if overrides != nil {
				if v, ok := overrides[[2]string{sp.Key, specs[j].Key}]; ok {
					rtt = v
				} else if v, ok := overrides[[2]string{specs[j].Key, sp.Key}]; ok {
					rtt = v
				}
			}
			w.Net.SetRTT(site, sites[j], rtt)
		}
		gwIP := netsim.MakeIP(60, byte(i+1), 0, 1)
		gw := w.Net.NewPublicHost("gw-"+sp.Key, site, gwIP, sp.AccessBps, 100*time.Microsecond)
		lan := w.Net.NewLan("lan-"+sp.Key, site, 1e9, 50*time.Microsecond)
		lan.AttachGateway(gw, netsim.MakeIP(192, 168, 0, 1))
		m := &Machine{
			Key:        sp.Key,
			Index:      i,
			Spec:       sp,
			GW:         nat.Attach(gw, sp.NAT),
			VIP:        netsim.MakeIP(10, 1, byte(i/250), byte(i%250+1)),
			IPOPVIP:    netsim.MakeIP(10, 2, byte(i/250), byte(i%250+1)),
			physStacks: make(map[string]*ipstack.Stack),
		}
		m.Phys = lan.NewHost("pc-"+sp.Key, netsim.MakeIP(192, 168, 0, 2))
		w.Machines = append(w.Machines, m)
		w.byKey[sp.Key] = m
		w.machineOf[m.Phys] = m
		w.machineOf[gw] = m
	}
	return w, nil
}

// ---- federated rendezvous: broker topology ----

// AddBroker creates one more rendezvous server at its own public site
// and federates it mutually with every existing broker. Federation is
// trust, not replication: records still travel only within each
// network's declared broker set (TenantSpec's NetworkSpec.Brokers).
func (w *World) AddBroker(name string, cfg rendezvous.Config) (*rendezvous.Server, error) {
	if name == "" {
		return nil, fmt.Errorf("scenario: broker needs a name")
	}
	if _, dup := w.brokerByName[name]; dup {
		return nil, fmt.Errorf("scenario: broker %q already exists", name)
	}
	n := len(w.Brokers)
	if n > 250 {
		return nil, fmt.Errorf("scenario: broker address space exhausted")
	}
	site := w.Net.NewSite("hub-" + name)
	alt := netsim.MakeIP(50, 0, byte(n), 2)
	host := w.Net.NewPublicHost("rdv-"+name, site,
		netsim.MakeIP(50, 0, byte(n), 1), 1e9, 100*time.Microsecond)
	if cfg.Name == "" {
		cfg.Name = name
	}
	if cfg.Tracer == nil {
		cfg.Tracer = w.Obs
	}
	s, err := rendezvous.NewServer(host, alt, cfg)
	if err != nil {
		return nil, err
	}
	s.Bootstrap()
	for _, other := range w.Brokers {
		other.Federate(s.Addr())
		s.Federate(other.Addr())
	}
	w.Brokers = append(w.Brokers, s)
	w.brokerByName[name] = s
	w.brokerSites[name] = &brokerSite{host: host, site: site, alt: alt, cfg: cfg}
	return s, nil
}

// ---- broker failover: kill, restart, partition ----

// KillBroker crashes a named broker: its broker socket, STUN service
// and CAN node close and all state (sessions, replicas, CAN index) is
// lost. Hosts homed there detect the silence and re-home onto another
// broker of their network's declared set; surviving brokers withdraw
// its replicas after the liveness TTL. The broker can come back with
// RestartBroker.
func (w *World) KillBroker(name string) error {
	s, ok := w.brokerByName[name]
	if !ok {
		return fmt.Errorf("scenario: unknown broker %q", name)
	}
	if w.deadBrokers[name] {
		return fmt.Errorf("scenario: broker %q is already dead", name)
	}
	s.Close()
	w.deadBrokers[name] = true
	return nil
}

// RestartBroker brings a killed broker back on the same machine and
// addresses, with empty state (crash-restart semantics: no sessions, no
// replicas, a fresh CAN). It re-federates mutually with every live
// broker and re-installs the replication sets of the networks whose
// specs name it; home brokers re-replicate live records on their next
// refresh tick, and hosts that kept pulsing re-register when the fresh
// broker answers their pulse with an unknown-session code.
func (w *World) RestartBroker(name string) (*rendezvous.Server, error) {
	info, ok := w.brokerSites[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown broker %q", name)
	}
	if !w.deadBrokers[name] {
		return nil, fmt.Errorf("scenario: broker %q is not dead", name)
	}
	s, err := rendezvous.NewServer(info.host, info.alt, info.cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: restart %q: %w", name, err)
	}
	s.Bootstrap()
	delete(w.deadBrokers, name)
	for other, os := range w.brokerByName {
		if other == name || w.deadBrokers[other] {
			continue
		}
		os.Federate(s.Addr())
		s.Federate(os.Addr())
	}
	for i, old := range w.Brokers {
		if old == w.brokerByName[name] {
			w.Brokers[i] = s
		}
	}
	w.brokerByName[name] = s
	if name == PrimaryBroker {
		w.Rdv = s
	}
	for net, names := range w.netFed {
		for _, b := range names {
			if b != name {
				continue
			}
			peers := make([]netsim.Addr, 0, len(names)-1)
			for _, other := range names {
				if other != name {
					peers = append(peers, w.brokerByName[other].Addr())
				}
			}
			s.SetNetBrokers(net, peers)
		}
	}
	return s, nil
}

func (w *World) brokerName(s *rendezvous.Server) string {
	for name, b := range w.brokerByName {
		if b == s {
			return name
		}
	}
	return ""
}

// siteOf resolves a broker name or machine key to its site (for
// partition faults).
func (w *World) siteOf(name string) (*netsim.Site, error) {
	if info, ok := w.brokerSites[name]; ok {
		return info.site, nil
	}
	if m, ok := w.byKey[name]; ok {
		return m.Phys.Site(), nil
	}
	return nil, fmt.Errorf("scenario: unknown broker or machine %q", name)
}

// Partition severs the WAN path between the sites of two named
// endpoints (broker names or machine keys) until Heal. Traffic in both
// directions is dropped; everything else keeps flowing.
func (w *World) Partition(a, b string) error {
	sa, err := w.siteOf(a)
	if err != nil {
		return err
	}
	sb, err := w.siteOf(b)
	if err != nil {
		return err
	}
	w.Net.Partition(sa, sb)
	return nil
}

// Heal restores the WAN path between two partitioned endpoints.
func (w *World) Heal(a, b string) error {
	sa, err := w.siteOf(a)
	if err != nil {
		return err
	}
	sb, err := w.siteOf(b)
	if err != nil {
		return err
	}
	w.Net.Heal(sa, sb)
	return nil
}

// BrokerAddr implements vpc.Fabric: the dial address of a named broker
// ("" names the primary). Dead brokers still resolve — their address is
// a valid candidate again after RestartBroker, and hosts skip them
// while they stay down.
func (w *World) BrokerAddr(name string) (netsim.Addr, bool) {
	if name == "" {
		name = PrimaryBroker
	}
	s, ok := w.brokerByName[name]
	if !ok {
		return netsim.Addr{}, false
	}
	return s.Addr(), true
}

// SetHome homes a machine on a named broker: its WAVNet host registers
// there instead of the primary. Must be called before the machine joins.
func (w *World) SetHome(key, broker string) error {
	m, ok := w.byKey[key]
	if !ok {
		return fmt.Errorf("scenario: unknown machine %q", key)
	}
	if _, ok := w.brokerByName[broker]; !ok {
		return fmt.Errorf("scenario: unknown broker %q", broker)
	}
	if m.WAV != nil && m.WAV.Joined() {
		return fmt.Errorf("scenario: %s already joined its broker", key)
	}
	m.home = broker
	return nil
}

// HomeBroker implements vpc.Fabric: the name of the broker the machine
// registers with. The empty key names the primary broker itself.
func (w *World) HomeBroker(key string) string {
	if m, ok := w.byKey[key]; ok && m.home != "" {
		return m.home
	}
	return PrimaryBroker
}

func (w *World) homeOf(m *Machine) *rendezvous.Server {
	if m.home != "" {
		return w.brokerByName[m.home]
	}
	return w.Rdv
}

// ConfigureNetFederation implements vpc.Fabric: it installs a network's
// replication set on every named broker (each gets the others as its
// peers for the network) and withdraws the network from brokers no
// longer named.
func (w *World) ConfigureNetFederation(net string, brokers []string) error {
	servers := make([]*rendezvous.Server, len(brokers))
	for i, name := range brokers {
		s, ok := w.brokerByName[name]
		if !ok {
			return fmt.Errorf("scenario: network %q names unknown broker %q", net, name)
		}
		servers[i] = s
	}
	named := make(map[string]bool, len(brokers))
	for _, name := range brokers {
		named[name] = true
	}
	for _, old := range w.netFed[net] {
		if !named[old] {
			w.brokerByName[old].ClearNetBrokers(net)
		}
	}
	for i, s := range servers {
		peers := make([]netsim.Addr, 0, len(servers)-1)
		for j, other := range servers {
			if j != i {
				peers = append(peers, other.Addr())
			}
		}
		s.SetNetBrokers(net, peers)
	}
	if len(brokers) == 0 {
		delete(w.netFed, net)
	} else {
		w.netFed[net] = append([]string(nil), brokers...)
	}
	return nil
}

// Locality implements vpc.Fabric: the measured RTT matrix the first
// live broker serving the network has accumulated in its distance
// locator. Returns (nil, nil) when every serving broker is dead — the
// placement scheduler then degrades to load balancing.
func (w *World) Locality(net string) ([]string, [][]sim.Duration) {
	for _, s := range w.brokersServing(net) {
		if name := w.brokerName(s); name != "" && w.deadBrokers[name] {
			continue
		}
		l := s.Locator()
		return l.Hosts(), l.Matrix()
	}
	return nil, nil
}

// ReportNetRTTs measures the tunnel RTT between every connected pair of
// the named network's members and reports the results into the distance
// locator of each broker serving the network — the harness's compressed
// stand-in for every member uploading an rtt-report to its home broker
// and the federation sharing the locator state. Run it before applying
// a spec with scheduler-placed VMs so placement has locality data. It
// drives the engine internally.
func (w *World) ReportNetRTTs(network string) error {
	n, ok := w.VPC().Get(network)
	if !ok {
		return fmt.Errorf("scenario: no network %q", network)
	}
	members := n.Members()
	type meas struct {
		a, b string
		rtt  sim.Duration
	}
	var out []meas
	var firstErr error
	done, want := 0, 0
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			a, b := members[i].Host, members[j].Host
			if _, ok := a.Tunnel(b.Name()); !ok {
				continue
			}
			want++
			w.Eng.Spawn("rtt-"+a.Name()+"-"+b.Name(), func(p *sim.Proc) {
				defer func() { done++ }()
				rtt, err := a.TunnelRTT(p, b.Name())
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("scenario: rtt %s-%s: %w", a.Name(), b.Name(), err)
					}
					return
				}
				out = append(out, meas{a.Name(), b.Name(), rtt})
			})
		}
	}
	for spent := 0; done < want && spent < 60; spent++ {
		w.Eng.RunFor(time.Second)
	}
	if firstErr != nil {
		return firstErr
	}
	if done < want {
		return fmt.Errorf("scenario: %d RTT probes still pending", want-done)
	}
	for _, s := range w.brokersServing(network) {
		if name := w.brokerName(s); name != "" && w.deadBrokers[name] {
			continue
		}
		for _, m := range out {
			s.Locator().Report(m.a, m.b, m.rtt)
		}
	}
	return nil
}

// brokersServing returns the servers holding a network's records: its
// federated set, or the primary broker when it has none.
func (w *World) brokersServing(net string) []*rendezvous.Server {
	names, ok := w.netFed[net]
	if !ok {
		return []*rendezvous.Server{w.Rdv}
	}
	out := make([]*rendezvous.Server, 0, len(names))
	for _, name := range names {
		out = append(out, w.brokerByName[name])
	}
	return out
}

// EmulatedWANSpecs builds n identical NATed PCs whose WAN access is
// shaped to wanBps — the paper's emulated testbed. Round trips between
// any two PCs are ≈2 ms (campus-scale).
func EmulatedWANSpecs(n int, wanBps float64) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		typ := nat.FullCone
		switch i % 3 {
		case 1:
			typ = nat.RestrictedCone
		case 2:
			typ = nat.PortRestrictedCone
		}
		specs[i] = Spec{
			Key:       fmt.Sprintf("pc%02d", i),
			RTTToHub:  time.Millisecond,
			AccessBps: wanBps,
			NAT:       typ,
		}
	}
	return specs
}

// hostConfig derives one machine's WAVNet host config from the world's
// template, with the machine's resource attributes layered on.
func (w *World) hostConfig(m *Machine) core.Config {
	cfg := w.HostCfg
	cfg.Attrs = m.Spec.Attrs
	if cfg.Tracer == nil {
		cfg.Tracer = w.Obs
	}
	if cfg.FlowLog == nil {
		cfg.FlowLog = w.FlowLog
	}
	return cfg
}

// joinHosts creates WAVNet hosts on the machines that lack one and
// registers them with the rendezvous server concurrently, optionally
// creating their default-LAN Dom0 stacks. It drives the engine.
func (w *World) joinHosts(ms []*Machine, withDom0 bool) error {
	errs := make([]error, len(ms))
	for i, m := range ms {
		i, m := i, m
		if m.WAV != nil {
			continue
		}
		h, err := core.NewHost(m.Phys, m.Key, w.hostConfig(m))
		if err != nil {
			return err
		}
		m.WAV = h
		home := w.homeOf(m)
		w.Eng.Spawn("join-"+m.Key, func(p *sim.Proc) {
			if errs[i] = h.Join(p, home.Addr()); errs[i] != nil {
				return
			}
			if withDom0 {
				h.CreateDom0(m.VIP)
			}
		})
	}
	w.Eng.RunFor(30 * time.Second)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("scenario: join %s: %w", ms[i].Key, err)
		}
	}
	return nil
}

// WAVNetUp joins the listed machines (all, when none given) to the
// rendezvous server, creates their Dom0 stacks, and establishes the full
// tunnel mesh among them. It drives the engine internally.
func (w *World) WAVNetUp(keys ...string) error {
	ms := w.pick(keys)
	if err := w.joinHosts(ms, true); err != nil {
		return err
	}
	// Full mesh among the subset, staggered so thousands of setup
	// exchanges do not collide in the same instant.
	pending := 0
	var firstErr error
	stagger := time.Duration(0)
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			a, b := ms[i], ms[j]
			if _, ok := a.WAV.Tunnel(b.Key); ok {
				continue
			}
			pending++
			delay := stagger
			stagger += 10 * time.Millisecond
			w.Eng.Schedule(delay, func() {
				w.Eng.Spawn("mesh", func(p *sim.Proc) {
					if _, err := a.WAV.ConnectTo(p, b.Key); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("scenario: connect %s-%s: %w", a.Key, b.Key, err)
					}
					pending--
				})
			})
		}
	}
	w.Eng.RunFor(2*time.Minute + stagger)
	if firstErr != nil {
		return firstErr
	}
	if pending != 0 {
		return fmt.Errorf("scenario: %d tunnels still pending", pending)
	}
	return nil
}

// ---- VM helpers ----

// AddVM boots an unmanaged VM on a machine's WAVNet host, attached to
// the default virtual LAN (the machine needs WAVNetUp's Dom0 for the
// migration channel). Tenant-scoped, scheduler-placed VMs are declared
// in TenantSpec.VMs instead and converge through Apply.
func (w *World) AddVM(key, name string, ip netsim.IP, cfg vm.Config) (*vm.VM, error) {
	if _, ok := w.vms[name]; ok {
		return nil, fmt.Errorf("scenario: VM %q already exists", name)
	}
	if _, managed := w.VPC().VM(name); managed {
		return nil, fmt.Errorf("scenario: VM %q is managed by the tenant API", name)
	}
	m, ok := w.byKey[key]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown machine %q", key)
	}
	if m.WAV == nil || m.WAV.Dom0() == nil {
		return nil, fmt.Errorf("scenario: machine %q has no WAVNet Dom0 (run WAVNetUp first)", key)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = w.Obs
	}
	v := vm.New(m.WAV, name, ip, cfg)
	w.vms[name] = v
	return v, nil
}

// ResolveVM finds a VM by name: tenant-managed VMs (placed by Apply)
// first, then world-booted ones (AddVM).
func (w *World) ResolveVM(name string) (*vm.VM, bool) {
	if v, ok := w.VPC().VM(name); ok {
		return v, true
	}
	v, ok := w.vms[name]
	return v, ok
}

// VMHost reports the machine key a VM currently runs on.
func (w *World) VMHost(name string) (string, bool) {
	if key, ok := w.VPC().VMHost(name); ok {
		return key, true
	}
	if v, ok := w.vms[name]; ok {
		return v.Host().Name(), true
	}
	return "", false
}

// ResolveService finds a tenant service by name (placed by Apply).
func (w *World) ResolveService(name string) (*service.Service, bool) {
	return w.VPC().Service(name)
}

// ServiceVIP reports the resolved VIP of a tenant service.
func (w *World) ServiceVIP(name string) (netsim.IP, bool) {
	return w.VPC().ServiceVIP(name)
}

// VPC returns the world's multi-tenant control plane (created lazily).
func (w *World) VPC() *vpc.Manager {
	if w.vpcMgr == nil {
		w.vpcMgr = vpc.NewManager()
		w.vpcMgr.SetTracer(w.Obs)
	}
	return w.vpcMgr
}

// ---- tenant API v2: declarative specs + reconciling Apply ----

// Apply converges the world onto a declarative TenantSpec: networks are
// created or torn down, members admitted or evicted (joining machines
// to the rendezvous layer on demand), peering gateways and broker
// allowances installed or revoked, and per-tenant quotas asserted. It
// blocks the calling process and returns the list of actions taken;
// applying an unchanged spec again returns an empty report. On error
// the report still lists the actions performed before the failure.
func (w *World) Apply(p *sim.Proc, spec vpc.TenantSpec) (*vpc.ApplyReport, error) {
	return w.VPC().Reconcile(p, spec, w)
}

// ResolveHost implements vpc.Fabric: it returns the machine's WAVNet
// host, creating it and joining it to its home broker first when
// needed.
func (w *World) ResolveHost(p *sim.Proc, key string) (*core.Host, error) {
	m, ok := w.byKey[key]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown machine %q", key)
	}
	if m.WAV == nil {
		h, err := core.NewHost(m.Phys, m.Key, w.hostConfig(m))
		if err != nil {
			return nil, err
		}
		m.WAV = h
	}
	if !m.WAV.Joined() {
		if err := m.WAV.Join(p, w.homeOf(m).Addr()); err != nil {
			return nil, fmt.Errorf("scenario: join %s: %w", key, err)
		}
	}
	return m.WAV, nil
}

// AllowNetPeering implements vpc.Fabric: the allowance is asserted on
// one origin broker per network and federation propagation
// (peer-allow) carries it to the rest of each replication set — one
// direct call plus a linear fan-out instead of telling every broker
// directly.
func (w *World) AllowNetPeering(a, b string) {
	for _, s := range w.peeringOrigins(a, b) {
		s.AllowPeering(a, b)
	}
}

// RevokeNetPeering implements vpc.Fabric against the same origins.
func (w *World) RevokeNetPeering(a, b string) {
	for _, s := range w.peeringOrigins(a, b) {
		s.RevokePeering(a, b)
	}
}

// peeringOrigins picks the first broker serving each network (deduped):
// its propagation reaches the network's remaining brokers, so two
// origins cover both sets even when they are disjoint.
func (w *World) peeringOrigins(a, b string) []*rendezvous.Server {
	seen := make(map[*rendezvous.Server]bool)
	var out []*rendezvous.Server
	for _, net := range []string{a, b} {
		if serving := w.brokersServing(net); len(serving) > 0 && !seen[serving[0]] {
			seen[serving[0]] = true
			out = append(out, serving[0])
		}
	}
	return out
}

// ApplySync runs Apply in a fresh process and drives the engine in
// slices until it converges, for callers outside simulation context
// (tests and experiment drivers).
func (w *World) ApplySync(spec vpc.TenantSpec) (*vpc.ApplyReport, error) {
	members := 0
	for _, ns := range spec.Networks {
		members += len(ns.Members)
	}
	budget := time.Duration(members+len(spec.Peerings))*time.Minute + 30*time.Second
	// Live migrations are the slowest converge actions by far: budget
	// each VM generously (a pre-copy of hundreds of MB over a shaped WAN
	// runs for minutes of simulated time).
	budget += time.Duration(len(spec.VMs)) * 5 * time.Minute
	budget += time.Duration(len(spec.Services)) * 30 * time.Second
	// One-second slices stop the world's clock close to when convergence
	// actually finishes (setup time is a measurement).
	var rep *vpc.ApplyReport
	var err error
	done := w.RunProc("apply-"+spec.Tenant, time.Second, budget, func(p *sim.Proc) {
		rep, err = w.Apply(p, spec)
	})
	if err != nil {
		return rep, err
	}
	if !done {
		return rep, fmt.Errorf("scenario: apply for tenant %s still pending", spec.Tenant)
	}
	return rep, nil
}

// RunProc spawns fn as a process and drives the engine in step slices
// until fn returns or budget is spent, reporting whether it returned.
// The clock stops on the first step boundary after the return, so a
// caller that measures what follows keeps its step; step == budget is a
// single RunFor.
func (w *World) RunProc(name string, step, budget sim.Duration, fn func(p *sim.Proc)) bool {
	p := w.Eng.Spawn(name, fn)
	for spent := sim.Duration(0); !p.Dead() && spent < budget; spent += step {
		w.Eng.RunFor(step)
	}
	return p.Dead()
}

// IPOPUp brings the IPOP baseline up on the listed machines.
func (w *World) IPOPUp(keys ...string) error {
	ms := w.pick(keys)
	if w.IPOPNet == nil {
		w.IPOPNet = ipop.New(w.Eng, ipop.Config{})
	}
	for _, m := range ms {
		if m.IPOP != nil {
			continue
		}
		node, err := w.IPOPNet.AddNode(m.Phys, m.Key)
		if err != nil {
			return err
		}
		m.IPOP = node
	}
	w.IPOPNet.Build()
	failed := -1
	w.Eng.Spawn("ipop-bootstrap", func(p *sim.Proc) {
		failed = w.IPOPNet.Bootstrap(p, w.Rdv.STUNAddr())
	})
	w.Eng.RunFor(60 * time.Second)
	if failed != 0 {
		return fmt.Errorf("scenario: ipop bootstrap left %d links down", failed)
	}
	for _, m := range ms {
		if m.IPOP.Dom0() == nil {
			m.IPOP.CreateDom0(m.IPOPVIP)
		}
	}
	return nil
}

// PhysicalPair sets up the native-performance baseline between two
// machines: stacks joined by a raw UDP frame relay with no overlay
// processing (only UDP/IP encapsulation), holes pre-punched by
// simultaneous hellos. Returns the two stacks.
func (w *World) PhysicalPair(a, b *Machine) (*ipstack.Stack, *ipstack.Stack, error) {
	if st, ok := a.physStacks[b.Key]; ok {
		return st, b.physStacks[a.Key], nil
	}
	w.physPort++
	port := w.physPort
	la, err := newRawLink(a.Phys, port)
	if err != nil {
		return nil, nil, err
	}
	lb, err := newRawLink(b.Phys, port)
	if err != nil {
		return nil, nil, err
	}
	// Discover external mappings via the rendezvous STUN service and
	// punch simultaneously.
	okA, okB := false, false
	w.Eng.Spawn("phys-punch-a", func(p *sim.Proc) { okA = la.punch(p, w.Rdv.STUNAddr(), &lb.peer) })
	w.Eng.Spawn("phys-punch-b", func(p *sim.Proc) { okB = lb.punch(p, w.Rdv.STUNAddr(), &la.peer) })
	w.Eng.RunFor(15 * time.Second)
	if !okA || !okB {
		return nil, nil, fmt.Errorf("scenario: physical punch %s-%s failed", a.Key, b.Key)
	}
	mtu := 1472 - ether.HeaderLen
	sa := ipstack.New(w.Eng, a.Key+"-phys", la, ether.SeqMAC(uint32(1000+a.Index)),
		netsim.MakeIP(10, 9, byte(a.Index), 1), ipstack.Config{MTU: mtu, Pool: w.Net.Pool()})
	sb := ipstack.New(w.Eng, b.Key+"-phys", lb, ether.SeqMAC(uint32(1000+b.Index)),
		netsim.MakeIP(10, 9, byte(a.Index), 2), ipstack.Config{MTU: mtu, Pool: w.Net.Pool()})
	a.physStacks[b.Key] = sa
	b.physStacks[a.Key] = sb
	return sa, sb, nil
}

// ---- observability: the world-wide scrape ----

// Scrape aggregates every subsystem's counters into one labeled
// registry — the fabric-wide observability snapshot. Each joined host
// contributes its VPC data-plane counters and a "tunnels" gauge under
// {tenant, net, broker, host}; each live broker its control-plane
// counters under {broker}; world-booted VMs their migration counters
// under {host} (prefixed "vm."); and the VPC manager its managed VMs
// and placement-scheduler counters. Series with identical name+labels
// sum, so scraping is safe at any point of a scenario.
//
// The world keeps one registry and overwrites it per call, so a scrape
// allocates nothing per series; the returned snapshot is immutable and
// costs one value copy per series. Series a scrape no longer fills — a
// relabelled host's old labels, a dead broker, a removed VM or service
// — are absent from it.
func (w *World) Scrape() *obs.Registry {
	if w.scrapeReg == nil {
		w.scrapeReg = obs.NewRegistry()
	}
	r := w.scrapeReg
	r.Reset()
	w.scrapeInto(r)
	// Every scrape advances the alert rules, then the engine's own
	// lifecycle counters ride along in the same snapshot.
	w.Alerts.Eval(w.Eng.Now(), r)
	w.Alerts.ScrapeInto(r)
	return r.Snapshot()
}

// scrapeInto adds every subsystem's series to r.
func (w *World) scrapeInto(r *obs.Registry) {
	for _, m := range w.Machines {
		if m.WAV == nil {
			continue
		}
		l := w.machineLabels(m)
		m.WAV.ScrapeInto(r, l)
		r.Gauge("tunnels", l).Set(float64(m.WAV.TunnelCount()))
		r.AddHistogram("batch_frames", l, m.WAV.BatchSizes())
	}
	for _, s := range w.Brokers {
		name := w.brokerName(s)
		if name == "" || w.deadBrokers[name] {
			continue
		}
		s.ScrapeInto(r, obs.Labels{Broker: name})
	}
	for _, v := range w.vms {
		v.ScrapeInto(r, obs.Labels{Host: v.Host().Name()})
	}
	if w.vpcMgr != nil {
		w.vpcMgr.ScrapeInto(r)
	}
	// Substrate delivery and loss totals, unlabeled (the wire is shared
	// infrastructure, not owned by any tenant).
	r.Counter("net.delivered", obs.Labels{}).Set(w.Net.Delivered)
	r.Counter("net.lost_wan", obs.Labels{}).Set(w.Net.LostWAN)
	r.Counter("net.no_route", obs.Labels{}).Set(w.Net.NoRoute)
	r.Counter("net.queue_drops", obs.Labels{}).Set(w.Net.QueueDrops)
	r.Counter("net.partition_drops", obs.Labels{}).Set(w.Net.PartitionDrops)
}

// machineLabels builds the label set a machine's series are filed
// under: {tenant, net, broker, host}, with the tenant resolved through
// the VPC manager when the machine is scoped to a network.
func (w *World) machineLabels(m *Machine) obs.Labels {
	net := ""
	if m.WAV != nil {
		net, _ = m.WAV.Network()
	}
	l := obs.Labels{Host: m.Key, Net: net, Broker: w.HomeBroker(m.Key)}
	if net != "" && w.vpcMgr != nil {
		if n, ok := w.vpcMgr.Get(net); ok {
			l.Tenant = n.Tenant
		}
	}
	return l
}

// ScrapeCheck asserts the scrape is non-empty — every experiment world
// ends with it, so the CI experiments job verifies the observability
// wiring survived whatever the experiment did to the world.
func (w *World) ScrapeCheck() error {
	r := w.Scrape()
	if r.Len() == 0 {
		return fmt.Errorf("scenario: world scrape returned an empty registry")
	}
	return nil
}

func (w *World) pick(keys []string) []*Machine {
	if len(keys) == 0 {
		return w.Machines
	}
	out := make([]*Machine, len(keys))
	for i, k := range keys {
		out[i] = w.M(k)
	}
	return out
}
