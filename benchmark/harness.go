package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"wavnet/internal/ipstack"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// A workload builds its own world from the seed, runs one fixed amount
// of work through it and verifies what came out. Everything it learns
// goes into the rep it is handed.
type workload struct {
	name string
	why  string
	run  func(r *rep) error
	// looseSim marks a workload whose simulation is not bit-identical
	// from rep to rep on one seed, so the harness reports a mismatch
	// instead of failing on it. control_scrape needs it: the primary
	// broker's refresh ticker walks its session map and sends one
	// replication packet per session, so the order of that burst on the
	// broker's uplink — and the queueing delay of any lookup caught
	// behind it — is Go's map order. On the seeds where a lookup meets
	// such a burst, reps differ by nanoseconds of lookup latency. The
	// other three workloads never replicate and repeat exactly.
	looseSim bool
}

var workloads = []workload{
	{name: "bulk_tagged", why: "one closed-loop TCP flow of MTU-size frames over a direct tagged tunnel: per-byte copies and one batch buffer per frame dominate, control plane and coalescing idle", run: runBulkTagged},
	{name: "udp_small_burst", why: "open-loop bursts of 64 B datagrams on a sim-time schedule, no procs and no TCP: per-frame and per-event cost is everything and the egress batcher coalesces 8 frames per packet", run: runUDPSmallBurst},
	{name: "rr_relay_mesh", why: "72 closed-loop workers, one TCP connection per 8 KiB request across the nine-site WAN with symmetric NATs: connection churn, timers, proc parks, deep event heap and the broker relay path", run: runRRRelayMesh},
	{name: "control_scrape", why: "control plane only: four 48-member DHCP tenants admitted across two brokers, then paced cross-broker lookups under per-second Scrape and FlowScrape; almost no tenant payload", run: runControlScrape, looseSim: true},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// rep is one repetition of one workload: inputs on top, results below.
type rep struct {
	seed  int64
	scale float64 // 1 = the committed size; the warm-up runs at 1/8
	trace *tracer // nil on untraced reps
	spans *spanLog
	world *scenario.World

	setupT0 time.Time
	applyT0 sim.Time // virtual time of the first Apply
	applyT1 sim.Time // virtual time the last Apply returned
	applied bool
	inPhase bool
	// setupOnly stops the rep once the workload is ready: a set-up probe.
	setupOnly bool

	// Host clock.
	SetupS, WallS                    float64
	AllocMB, AllocsPerOp, LiveHeapMB float64
	mallocs                          uint64

	// Sim clock.
	SimSetupS, SimPhaseS float64
	SimEnd               sim.Time
	LatP50Ms, LatTailMs  float64
	TailPct              float64
	LatSamples           int

	// Work.
	Ops, Attempted, Failed uint64
	PayloadBytes           uint64
	VerifyErr              string

	// Per-layer counts over the measured phase.
	Counts map[string]float64
}

// scaled returns n scaled by the rep's size, at least floor.
func (r *rep) scaled(n, floor int) int {
	if v := int(math.Round(float64(n) * r.scale)); v > floor {
		return v
	}
	return floor
}

func (r *rep) beginSetup() {
	r.setupT0 = time.Now()
	r.spans.begin("setup", "rep")
	r.spans.begin("setup_build", "setup")
}

// build wraps scenario.Build with the seeded WAN jitter every workload
// shares: jitter is a fraction of each path's one-way delay, drawn from
// the engine's seeded source, so two seeds give two (slightly) different
// delivery schedules and one seed always gives the same one.
func (r *rep) build(specs []scenario.Spec, overrides map[[2]string]sim.Duration) (*scenario.World, error) {
	w, err := scenario.Build(r.seed, specs, overrides)
	if err != nil {
		return nil, err
	}
	w.Net.JitterFrac = wanJitterFrac * (0.5 + rand.New(rand.NewSource(r.seed)).Float64())
	r.world = w
	return w, nil
}

// wanJitterFrac is the middle of the jitter range: a seed draws its
// fraction between half and one and a half times this. It is small enough
// that frames of one flow never overtake each other on the emulated 1 ms
// paths (at most ±3 µs against ≥5 µs of serialisation per frame) yet
// moves every sim-time metric by a few digits from seed to seed.
const wanJitterFrac = 0.002

// apply converges one tenant spec and notes the virtual instant the
// reconciler returned. scenario.ApplySync drives the clock in whole
// seconds, which would quantise sim_setup_s; this is the same public
// World.Apply in a proc, driven in 10 ms slices.
func (r *rep) apply(w *scenario.World, spec vpc.TenantSpec) (*vpc.ApplyReport, error) {
	if !r.applied {
		r.applied = true
		r.applyT0 = w.Eng.Now()
		r.spans.end("setup_build")
	}
	// control_scrape applies inside its measured phase; the others in set-up.
	parent := "setup"
	if r.inPhase {
		parent = "measure"
	}
	r.spans.begin("setup_apply", parent)
	defer r.spans.end("setup_apply")
	var ar *vpc.ApplyReport
	var err error
	done := false
	w.Eng.Spawn("apply-"+spec.Tenant, func(p *sim.Proc) {
		ar, err = w.Apply(p, spec)
		done, r.applyT1 = true, p.Now()
	})
	members := 0
	for _, ns := range spec.Networks {
		members += len(ns.Members)
	}
	budget := time.Duration(members+1) * time.Minute
	for spent := sim.Duration(0); !done && spent < budget; spent += 10 * sim.Millisecond {
		w.Eng.RunFor(10 * sim.Millisecond)
	}
	if err != nil {
		return ar, err
	}
	if !done {
		return ar, fmt.Errorf("apply for tenant %s still pending after %v", spec.Tenant, budget)
	}
	return ar, nil
}

// endSetup closes the set-up clock: the world is built, its tenants are
// applied (except where applying is the workload) and ARP and MAC tables
// are warm. It reports whether the rep ends here.
func (r *rep) endSetup() (stop bool) {
	r.SetupS = time.Since(r.setupT0).Seconds()
	r.spans.end("setup_build")
	r.spans.end("setup")
	return r.setupOnly
}

// phase is the measured part of a rep.
type phase struct {
	r  *rep
	w  *scenario.World
	t0 time.Time
	m0 runtime.MemStats
	c0 worldCounts
	s0 sim.Time

	// doneAt is the virtual instant the workload's last op completed; the
	// clock itself stops at the next slice boundary after it.
	doneAt     sim.Time
	pendingMax int
	backlogMax int
	tcp        tcpStats
}

func (r *rep) beginMeasure(w *scenario.World) *phase {
	ph := &phase{r: r, w: w}
	runtime.GC()
	ph.c0 = gatherCounts(w)
	ph.s0 = w.Eng.Now()
	if r.trace != nil {
		r.trace.start(w)
	}
	r.spans.begin("measure", "rep")
	r.inPhase = true
	runtime.ReadMemStats(&ph.m0)
	ph.t0 = time.Now()
	return ph
}

// drive advances the world in slices until done reports true, sampling
// the queue depths the per-layer table wants at every slice boundary.
func (ph *phase) drive(slice, budget sim.Duration, done func() bool) error {
	eng := ph.w.Eng
	deadline := eng.Now().Add(budget)
	for !done() {
		if eng.Now() >= deadline {
			return fmt.Errorf("measured phase still running after %v of virtual time", budget)
		}
		eng.RunFor(slice)
		ph.sample()
	}
	return nil
}

func (ph *phase) sample() {
	if n := ph.w.Eng.Pending(); n > ph.pendingMax {
		ph.pendingMax = n
	}
	for _, m := range ph.w.Machines {
		if b := m.GW.Host().Uplink().Backlog(); b > ph.backlogMax {
			ph.backlogMax = b
		}
	}
}

// end closes the measured phase. The world stays referenced until the
// live heap has been read, so live_heap_mb is the world's own weight.
func (ph *phase) end() {
	r := ph.r
	r.WallS = time.Since(ph.t0).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.spans.end("measure")
	r.inPhase = false
	if r.trace != nil {
		r.trace.stop()
	}
	r.AllocMB = float64(m1.TotalAlloc-ph.m0.TotalAlloc) / 1e6
	r.mallocs = m1.Mallocs - ph.m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.LiveHeapMB = float64(m1.HeapAlloc) / 1e6
	r.SimEnd = ph.w.Eng.Now()
	if ph.doneAt == 0 {
		ph.doneAt = r.SimEnd
	}
	r.SimPhaseS = ph.doneAt.Sub(ph.s0).Seconds()
	c1 := gatherCounts(ph.w)
	r.Counts = c1.since(ph.c0)
	r.Counts["sim.pending_max"] = float64(ph.pendingMax)
	r.Counts["netsim.uplink_backlog_max_bytes"] = float64(ph.backlogMax)
	r.Counts["ipstack.segs_out"] = float64(ph.tcp.segsOut)
	r.Counts["ipstack.retransmits"] = float64(ph.tcp.retransmits)
	r.Counts["ipstack.timeouts"] = float64(ph.tcp.timeouts)
	r.Counts["ipstack.dup_acks"] = float64(ph.tcp.dupAcks)
	runtime.KeepAlive(ph.w)
}

// finish derives the per-op figures once the workload has counted its
// ops and collected its latencies (virtual milliseconds).
func (r *rep) finish(latMs []float64) {
	if r.Ops > 0 {
		r.AllocsPerOp = float64(r.mallocs) / float64(r.Ops)
		r.Counts["sim.events_per_op"] = r.Counts["sim.events"] / float64(r.Ops)
		r.Counts["netsim.packets_per_op"] = r.Counts["netsim.packets"] / float64(r.Ops)
	}
	if r.SimPhaseS > 0 {
		r.Counts["harness.sim_goodput_mbps"] = float64(r.PayloadBytes) * 8 / r.SimPhaseS / 1e6
	}
	sort.Float64s(latMs)
	r.LatSamples = len(latMs)
	r.LatP50Ms = percentile(latMs, 50)
	r.TailPct = tailPercentile(len(latMs))
	r.LatTailMs = percentile(latMs, r.TailPct)
	r.Counts["harness.lat_samples"] = float64(r.LatSamples)
	r.Counts["harness.lat_tail_percentile"] = r.TailPct
}

// fail records n failed ops; the first message is kept.
func (r *rep) fail(n uint64, format string, args ...any) {
	r.Failed += n
	if r.VerifyErr == "" {
		r.VerifyErr = fmt.Sprintf(format, args...)
	}
}

// SimOpsPerS is completed ops per virtual second of the measured phase.
func (r *rep) SimOpsPerS() float64 {
	if r.SimPhaseS <= 0 {
		return 0
	}
	return float64(r.Ops) / r.SimPhaseS
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile is the highest percentile of the ladder that still has
// at least ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9, 99.99} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// tcpStats sums the per-connection TCP counters of connections the
// harness opened, read as each connection is let go.
type tcpStats struct {
	segsOut, retransmits, timeouts, dupAcks uint64
}

func (t *tcpStats) add(c *ipstack.Conn) {
	t.segsOut += c.SegsOut
	t.retransmits += c.Retransmits
	t.timeouts += c.Timeouts
	t.dupAcks += c.DupAcksSeen
}

// worldCounts are the public counters of every layer, summed over the
// world. Gathered twice; the difference is the measured phase.
type worldCounts struct {
	v map[string]float64
	// relayedTunnels is a level, not a counter: tunnel ends that are
	// broker-relayed when the phase ends.
	relayedTunnels float64
}

func gatherCounts(w *scenario.World) worldCounts {
	v := map[string]float64{
		"sim.events":         float64(w.Eng.Dispatched()),
		"netsim.packets":     float64(w.Net.Delivered),
		"netsim.queue_drops": float64(w.Net.QueueDrops),
		"netsim.wan_lost":    float64(w.Net.LostWAN),
	}
	relayed := 0.0
	for _, m := range w.Machines {
		v["nat.translated"] += float64(m.GW.Translated)
		v["nat.filtered_drops"] += float64(m.GW.FilteredDrops)
		h := m.WAV
		if h == nil {
			continue
		}
		v["core.frames_sent"] += float64(h.FramesSent)
		v["core.batch_flushes"] += float64(h.BatchFlushes)
		v["core.batched_frames"] += float64(h.BatchedFrames)
		v["core.flooded_frames"] += float64(h.FloodedFrames)
		v["core.flow_overflows"] += float64(h.Flows().Overflows())
		for _, vni := range h.VNIs() {
			if br, ok := h.SegmentBridge(vni); ok {
				v["ether.bridge_forwarded"] += float64(br.Forwarded)
				v["ether.bridge_flooded"] += float64(br.Flooded)
			}
		}
		for _, t := range h.Tunnels() {
			if t.Relayed {
				relayed++
			}
		}
	}
	for _, s := range w.Brokers {
		v["rendezvous.lookups"] += float64(s.Lookups)
		v["rendezvous.relay_frames"] += float64(s.RelayFrames)
		v["rendezvous.replications_out"] += float64(s.ReplicationsOut)
		v["rendezvous.pulses"] += float64(s.Pulses)
	}
	for _, n := range w.VPC().Networks() {
		for _, m := range n.Members() {
			v["ipstack.frames_out"] += float64(m.Stack.FramesOut)
			v["ipstack.frames_in"] += float64(m.Stack.FramesIn)
		}
	}
	return worldCounts{v: v, relayedTunnels: relayed}
}

func (c worldCounts) since(c0 worldCounts) map[string]float64 {
	out := make(map[string]float64, len(c.v)+16)
	for k, v := range c.v {
		out[k] = v - c0.v[k]
	}
	out["core.relayed_tunnels"] = c.relayedTunnels
	if f := out["core.batch_flushes"]; f > 0 {
		out["core.frames_per_batch"] = out["core.batched_frames"] / f
	}
	return out
}

// spanLog keeps the harness's own spans in memory: one per step of a
// rep, around the calls into the system, written out when the run ends.
type spanLog struct {
	t0    time.Time
	open  map[string]int
	Spans []span
}

type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), open: map[string]int{}} }

func (s *spanLog) begin(name, parent string) {
	if s == nil {
		return
	}
	s.open[name] = len(s.Spans)
	s.Spans = append(s.Spans, span{Name: name, Parent: parent, Start: time.Since(s.t0).Seconds()})
}

// end closes the named span; closing a span that is not open is a no-op.
func (s *spanLog) end(name string) {
	if s == nil {
		return
	}
	if i, ok := s.open[name]; ok {
		s.Spans[i].End = time.Since(s.t0).Seconds()
		delete(s.open, name)
	}
}

// total is the summed duration of every closed span of that name.
func (s *spanLog) total(name string) float64 {
	sum := 0.0
	for _, sp := range s.Spans {
		if sp.Name == name && sp.End >= sp.Start {
			sum += sp.End - sp.Start
		}
	}
	return sum
}

// runRep runs one repetition on a rep holding its inputs, and unwinds the
// world it built whatever the outcome.
func runRep(wl workload, r *rep) (*rep, error) {
	if !r.setupOnly {
		r.spans = newSpanLog()
	}
	r.spans.begin("rep", "")
	err := wl.run(r)
	if r.world != nil {
		// Unwind the world's parked procs: their goroutines would
		// otherwise keep the whole world reachable into the next rep.
		r.world.Eng.Stop()
		r.world = nil
	}
	if err != nil {
		// A profile left running would poison the next rep.
		pprof.StopCPUProfile()
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	r.spans.end("rep")
	if r.trace != nil {
		r.trace.spans = r.spans
	}
	runtime.GC()
	return r, nil
}
