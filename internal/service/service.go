// Package service implements tenant L3 services over the WAVNet
// overlay: a virtual IP (VIP) backed by a set of member hosts and
// managed VMs, steered and health-checked without any middlebox in the
// data path.
//
// A Service owns no NIC. Every backend's stack aliases the VIP (it
// accepts traffic for it but never ARPs for it), and each member host
// of the network holds a per-host preference-ordered steering table
// (core.SetVIPBackends): declared rank for failover-ordered services,
// locator distance for anycast-nearest — so two clients on different
// hosts may be steered to different backends of the same VIP.
//
// Health is probed actively from the network's anchor: a spawned
// simulation process pings every backend's real address each Interval,
// with a per-probe Timeout. Fall consecutive failures withdraw the
// backend — a 0x19 announcement floods the tunnel mesh, every member's
// steering table flips, the rendezvous-layer VIP record is retracted
// from the network's broker set, and (for failover-ordered services)
// the new active backend floods a gratuitous ARP for the VIP so
// established client caches re-point. Rise consecutive successes
// re-announce it. Each withdrawal that moves traffic is recorded as a
// "service.failover" span whose duration covers first missed probe to
// steering flip — the observable failover budget.
package service

import (
	"sort"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/sim"
)

// Probe loop defaults.
const (
	DefaultInterval = 1 * sim.Second
	DefaultTimeout  = 250 * sim.Millisecond
	DefaultFall     = 3
	DefaultRise     = 2
)

// Config describes one service instance.
type Config struct {
	// Name is the service's unique name within its tenant.
	Name string
	// Tenant and Net scope the service (span labels, VIP records).
	Tenant string
	Net    string
	// VNI is the network segment the VIP lives on.
	VNI uint32
	// VIP is the service's virtual address.
	VIP netsim.IP
	// Policy is rendezvous.PolicyAnycastNearest (default) or
	// rendezvous.PolicyFailoverOrdered.
	Policy string
	// Interval is the probe period; Timeout bounds one probe.
	Interval sim.Duration
	Timeout  sim.Duration
	// Fall consecutive probe failures withdraw a backend; Rise
	// consecutive successes re-announce it.
	Fall int
	Rise int
	// Distance reports the fabric's measured RTT between two named
	// hosts (false = unmeasured). Anycast steering sorts with it; nil
	// degrades to name order.
	Distance func(from, to string) (sim.Duration, bool)
	// Tracer records service.failover spans (nil disables tracing).
	Tracer *obs.Trace
	// InitialHealth seeds per-backend health (by backend name) so a
	// rebuilt service — a reconcile that changed its backend set —
	// inherits observed state instead of re-announcing dead backends.
	// Absent backends start healthy.
	InitialHealth map[string]bool
}

func (c Config) normalized() Config {
	if c.Policy == "" {
		c.Policy = rendezvous.PolicyAnycastNearest
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Fall <= 0 {
		c.Fall = DefaultFall
	}
	if c.Rise <= 0 {
		c.Rise = DefaultRise
	}
	return c
}

// Backend is one resolved backend of a service: a member host's own
// stack or a managed VM's, pinned down to the address and MAC the
// steering layer needs.
type Backend struct {
	// Name is the backend's name within the service.
	Name string
	// Host is the WAVNet member host carrying the backend (the member
	// itself, or the VM's current home).
	Host string
	// IP is the backend's real address — what probes ping.
	IP netsim.IP
	// MAC is what client frames are steered to.
	MAC ether.MAC
	// Order is the failover-ordered rank (lower wins).
	Order int
	// Stack is the backend's IP stack; the VIP is aliased onto it.
	Stack *ipstack.Stack
}

// backendState is the probe loop's memory of one backend.
type backendState struct {
	healthy bool
	fails   int
	oks     int
	// failSpan covers an in-progress fall sequence: opened at the first
	// missed probe, ended at withdrawal (or at recovery before Fall).
	failSpan *obs.Span
}

// Service is one running VIP: steering tables programmed, records
// announced, probe loop live.
type Service struct {
	cfg      Config
	eng      *sim.Engine
	anchor   *core.Host
	prober   *ipstack.Stack
	members  []*core.Host
	backends []Backend
	state    map[string]*backendState
	proc     *sim.Proc
	running  bool

	// Probe-loop statistics (ScrapeInto exports them): probes issued and
	// missed, backends withdrawn and recovered, and moves of the active
	// choice.
	ProbesSent, ProbesFailed, Withdrawals, Recoveries, Failovers uint64
	// series names the "service.<name>.*" counters of the five
	// statistics above, in order.
	series [5]string
}

// New builds a service instance. anchor is the host that announces VIP
// records through its home broker and floods 0x19 health transitions;
// prober is the stack probes originate from (the anchor member's);
// members are every member host of the network, whose steering tables
// the service programs. Call Start to go live.
func New(eng *sim.Engine, cfg Config, anchor *core.Host, prober *ipstack.Stack, members []*core.Host, backends []Backend) *Service {
	cfg = cfg.normalized()
	s := &Service{
		cfg:      cfg,
		eng:      eng,
		anchor:   anchor,
		prober:   prober,
		members:  append([]*core.Host(nil), members...),
		backends: append([]Backend(nil), backends...),
		state:    make(map[string]*backendState, len(backends)),
	}
	for i, stat := range [...]string{"probes_sent", "probes_failed", "withdrawals", "recoveries", "failovers"} {
		s.series[i] = "service." + cfg.Name + "." + stat
	}
	sort.Slice(s.backends, func(i, j int) bool { return s.backends[i].Name < s.backends[j].Name })
	sort.Slice(s.members, func(i, j int) bool { return s.members[i].Name() < s.members[j].Name() })
	for _, b := range s.backends {
		healthy := true
		if h, ok := cfg.InitialHealth[b.Name]; ok {
			healthy = h
		}
		s.state[b.Name] = &backendState{healthy: healthy}
	}
	return s
}

// Config returns the normalized configuration.
func (s *Service) Config() Config { return s.cfg }

// Backends returns the resolved backend set, sorted by name.
func (s *Service) Backends() []Backend { return append([]Backend(nil), s.backends...) }

// Start aliases the VIP onto every backend stack, programs every member
// host's steering table, announces a VIP record per healthy backend and
// spawns the probe loop. Idempotent.
func (s *Service) Start() {
	if s.running {
		return
	}
	s.running = true
	for _, b := range s.backends {
		b.Stack.AddAlias(s.cfg.VIP)
	}
	s.programHosts()
	for _, b := range s.backends {
		if s.state[b.Name].healthy {
			s.anchor.AnnounceVIPRecord(s.record(b))
		}
	}
	// Stop's Interrupt is sticky: even a probe parked deep inside Ping
	// returns promptly, and the Sleep here observes the pending flag
	// without waiting out another interval.
	s.proc = s.eng.Spawn("service/"+s.cfg.Net+"/"+s.cfg.Name, func(p *sim.Proc) {
		for p.Sleep(s.cfg.Interval) {
			s.probeRound(p)
		}
	})
}

// Stop withdraws the service: probe loop down, records retracted,
// steering tables cleared, aliases removed. In-flight connections die
// with their ARP entries, exactly like an evicted service should.
func (s *Service) Stop() {
	if !s.running {
		return
	}
	s.running = false
	if s.proc != nil && !s.proc.Dead() {
		s.proc.Interrupt()
	}
	for _, b := range s.backends {
		if s.state[b.Name].healthy {
			s.anchor.WithdrawVIPRecord(s.record(b))
		}
		b.Stack.RemoveAlias(s.cfg.VIP)
	}
	for _, h := range s.members {
		h.ClearVIP(s.cfg.VNI, s.cfg.VIP)
	}
}

// Running reports whether Start has been called (and Stop has not).
func (s *Service) Running() bool { return s.running }

// ProbeDead reports whether the probe loop has fully exited (true also
// before Start); teardown tests pin the loop's prompt exit on it.
func (s *Service) ProbeDead() bool { return s.proc == nil || s.proc.Dead() }

// Healthy reports a backend's current health (false for unknown names).
func (s *Service) Healthy(backend string) bool {
	st, ok := s.state[backend]
	return ok && st.healthy
}

// HealthSnapshot captures per-backend health, in the shape
// Config.InitialHealth accepts — the reconciler threads it through a
// service rebuild.
func (s *Service) HealthSnapshot() map[string]bool {
	out := make(map[string]bool, len(s.state))
	for name, st := range s.state {
		out[name] = st.healthy
	}
	return out
}

// Active reports the backend the ANCHOR host currently steers the VIP
// to (per-host tables may disagree for anycast services).
func (s *Service) Active() (string, bool) {
	mac, ok := s.anchor.VIPChoice(s.cfg.VNI, s.cfg.VIP)
	if !ok {
		return "", false
	}
	for _, b := range s.backends {
		if b.MAC == mac {
			return b.Name, true
		}
	}
	return "", false
}

// ScrapeInto copies the probe loop's statistics into r under l as
// "service.<name>.*" counters.
func (s *Service) ScrapeInto(r *obs.Registry, l obs.Labels) {
	for i, v := range [...]uint64{s.ProbesSent, s.ProbesFailed, s.Withdrawals, s.Recoveries, s.Failovers} {
		r.Counter(s.series[i], l).Add(v)
	}
}

// record builds the rendezvous-layer VIP record for one backend.
func (s *Service) record(b Backend) rendezvous.VIPRecord {
	return rendezvous.VIPRecord{
		Service: s.cfg.Name, Net: s.cfg.Net, VIP: s.cfg.VIP,
		Backend: b.Name, Host: b.Host, Order: b.Order, Policy: s.cfg.Policy,
	}
}

// prefsFor computes one member host's preference-ordered steering list:
// declared rank for failover-ordered services; for anycast-nearest the
// host's own backends first, then measured distance, unmeasured last,
// name-tied for determinism.
func (s *Service) prefsFor(h *core.Host) []core.VIPBackend {
	idx := make([]int, len(s.backends))
	for i := range idx {
		idx[i] = i
	}
	if s.cfg.Policy == rendezvous.PolicyFailoverOrdered {
		sort.Slice(idx, func(a, b int) bool {
			x, y := s.backends[idx[a]], s.backends[idx[b]]
			if x.Order != y.Order {
				return x.Order < y.Order
			}
			return x.Name < y.Name
		})
	} else {
		from := h.Name()
		sort.Slice(idx, func(a, b int) bool {
			x, y := s.backends[idx[a]], s.backends[idx[b]]
			xl, yl := x.Host == from, y.Host == from
			if xl != yl {
				return xl
			}
			var xd, yd sim.Duration
			var xok, yok bool
			if s.cfg.Distance != nil {
				xd, xok = s.cfg.Distance(from, x.Host)
				yd, yok = s.cfg.Distance(from, y.Host)
			}
			if xok != yok {
				return xok
			}
			if xok && yok && xd != yd {
				return xd < yd
			}
			return x.Name < y.Name
		})
	}
	out := make([]core.VIPBackend, 0, len(idx))
	for _, i := range idx {
		b := s.backends[i]
		out = append(out, core.VIPBackend{Name: b.Name, MAC: b.MAC, Healthy: s.state[b.Name].healthy})
	}
	return out
}

// programHosts pushes the current steering state to every member host
// (hosts whose effective choice changes inject a local gratuitous ARP
// on their own).
func (s *Service) programHosts() {
	for _, h := range s.members {
		h.SetVIPBackends(s.cfg.VNI, s.cfg.VIP, s.prefsFor(h))
	}
}

// probeRound pings every backend once, serially, and applies fall/rise
// transitions. A backend probed from its own stack degenerates to a
// liveness truism (the prober shares its fate) and counts as success
// without wire traffic.
func (s *Service) probeRound(p *sim.Proc) {
	for _, b := range s.backends {
		st := s.state[b.Name]
		var err error
		s.ProbesSent++
		if b.Stack != s.prober {
			_, err = s.prober.Ping(p, b.IP, 32, s.cfg.Timeout)
		}
		if p.Interrupted() {
			return // stopped while parked in a probe
		}
		if err != nil {
			s.ProbesFailed++
			st.oks = 0
			st.fails++
			if st.fails == 1 && st.healthy {
				st.failSpan = s.cfg.Tracer.Start(nil, "service.failover", obs.Labels{
					Tenant: s.cfg.Tenant, Net: s.cfg.Net, Host: b.Host,
				})
				st.failSpan.Event("service %s backend %s missed a probe", s.cfg.Name, b.Name)
			}
			if st.fails >= s.cfg.Fall && st.healthy {
				s.transition(b, st, false)
			}
			continue
		}
		st.fails = 0
		st.oks++
		if st.failSpan != nil && st.healthy {
			st.failSpan.Event("recovered before fall budget")
			st.failSpan.End()
			st.failSpan = nil
		}
		if st.oks >= s.cfg.Rise && !st.healthy {
			s.transition(b, st, true)
		}
	}
}

// transition applies one health flip end to end: steering tables on
// every member, a 0x19 flood over the tunnel mesh, the rendezvous-layer
// record, and — when a failover-ordered service's active backend moved
// — a fabric-wide gratuitous ARP from the new active so established
// client caches re-point without waiting for re-ARP.
func (s *Service) transition(b Backend, st *backendState, healthy bool) {
	prevMAC, prevOK := s.anchor.VIPChoice(s.cfg.VNI, s.cfg.VIP)
	st.healthy = healthy
	st.fails, st.oks = 0, 0
	s.programHosts()
	s.anchor.AnnounceVIP(s.cfg.VNI, s.cfg.VIP, b.MAC, b.Name, healthy)
	if healthy {
		s.Recoveries++
		s.anchor.AnnounceVIPRecord(s.record(b))
	} else {
		s.Withdrawals++
		s.anchor.WithdrawVIPRecord(s.record(b))
	}
	newMAC, newOK := s.anchor.VIPChoice(s.cfg.VNI, s.cfg.VIP)
	moved := prevOK != newOK || prevMAC != newMAC
	if moved && newOK {
		s.Failovers++
		if next, ok := s.backendByMAC(newMAC); ok && s.cfg.Policy == rendezvous.PolicyFailoverOrdered {
			next.Stack.AnnounceGratuitousARPFor(s.cfg.VIP)
		}
	}
	if !healthy {
		if st.failSpan == nil {
			st.failSpan = s.cfg.Tracer.Start(nil, "service.failover", obs.Labels{
				Tenant: s.cfg.Tenant, Net: s.cfg.Net, Host: b.Host,
			})
		}
		st.failSpan.Event("withdrew backend %s after %d missed probes", b.Name, s.cfg.Fall)
		if moved {
			if next, ok := s.backendByMAC(newMAC); ok {
				st.failSpan.Event("steered %s to backend %s on %s", s.cfg.VIP, next.Name, next.Host)
			}
		} else if !newOK {
			st.failSpan.Event("no healthy backend remains for %s", s.cfg.VIP)
		}
		st.failSpan.End()
		st.failSpan = nil
	}
}

// backendByMAC resolves a steering choice back to the backend.
func (s *Service) backendByMAC(mac ether.MAC) (Backend, bool) {
	for _, b := range s.backends {
		if b.MAC == mac {
			return b, true
		}
	}
	return Backend{}, false
}
