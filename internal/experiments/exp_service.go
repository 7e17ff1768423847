package experiments

import (
	"fmt"

	"wavnet/internal/core"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/service"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// ServiceRow is one point of the tenant-service failover sweep: a VIP
// with a declared backend count over a broker count, its active backend
// isolated mid-measurement. It reports the client-observed failover
// time (last ping into the dead backend to first ping served by the
// next), request success across the whole episode, and the probe
// budget the failover must stay under.
type ServiceRow struct {
	Backends int
	Fall     int
	Brokers  int

	// Budget is the worst-case detection window: Fall probe intervals
	// plus one probe timeout.
	Budget sim.Duration
	// Failover is the client-observed VIP outage after the kill.
	Failover sim.Duration
	// Pings/OK count every client request of the episode (before,
	// during and after the outage).
	Pings, OK int

	// Withdrawals and Failovers from the service controller's counters.
	Withdrawals, Failovers uint64
	// Stray is the tenant's record count on the unnamed witness broker
	// (must stay 0).
	Stray int
}

// SuccessRatio is the fraction of client requests the VIP served.
func (r ServiceRow) SuccessRatio() float64 {
	if r.Pings == 0 {
		return 0
	}
	return float64(r.OK) / float64(r.Pings)
}

// ServiceResult reports the sweep.
type ServiceResult struct {
	Rows []ServiceRow
}

// String renders the table.
func (r *ServiceResult) String() string {
	t := table{
		title: "Tenant services — VIP failover time and request success vs probe budget, backend count and broker count (beyond the paper)",
		header: []string{"Backends", "Fall", "Brokers", "Budget (s)", "Failover (s)",
			"Requests", "Success", "Withdrawals", "Failovers", "Stray"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%d", row.Backends),
			fmt.Sprintf("%d", row.Fall),
			fmt.Sprintf("%d", row.Brokers),
			secs(row.Budget),
			fmt.Sprintf("%.2f", row.Failover.Seconds()),
			fmt.Sprintf("%d/%d", row.OK, row.Pings),
			fmt.Sprintf("%.3f", row.SuccessRatio()),
			fmt.Sprintf("%d", row.Withdrawals),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%d", row.Stray),
		)
	}
	t.notes = append(t.notes,
		"failover: active backend isolated -> first client request served by the next backend",
		"budget: Fall probe intervals + one probe timeout (the detection window); the",
		"  client-observed failover adds at most one request timeout + pacing on top of it",
		"stray: tenant records on the unnamed witness broker (must be 0)")
	return t.String()
}

// ServiceFailover sweeps the probe fall budget, then backend count,
// then broker count.
func ServiceFailover(o Options) (*ServiceResult, error) {
	o = o.withDefaults()
	type point struct{ backends, fall, brokers int }
	points := []point{
		{2, 2, 2}, {2, 3, 2}, {2, 5, 2}, // probe budget
		{3, 3, 2},            // backend count
		{2, 3, 1}, {2, 3, 3}, // broker count
	}
	if !o.Quick {
		points = append(points, point{4, 3, 2}, point{2, 8, 2}, point{3, 3, 4})
	}
	rows, err := sweep(points, func(_ int, pt point) (*ServiceRow, error) {
		return ServiceOnce(o, pt.backends, pt.fall, pt.brokers)
	}, func(pt point) string {
		return fmt.Sprintf("service %d backends, fall %d, %d brokers", pt.backends, pt.fall, pt.brokers)
	})
	if err != nil {
		return nil, err
	}
	return &ServiceResult{Rows: rows}, nil
}

// ServiceOnce measures one (backend count, fall budget, broker count)
// point: a failover-ordered VIP probed every 500 ms, its active backend
// isolated from the whole fabric five seconds in, a client pinging the
// VIP throughout.
func ServiceOnce(o Options, backends, fall, brokers int) (*ServiceRow, error) {
	o = o.withDefaults()
	if backends < 2 {
		return nil, fmt.Errorf("service failover needs at least 2 backends")
	}
	const (
		interval = 500 * sim.Millisecond
		timeout  = 200 * sim.Millisecond
	)
	// pc00 anchors (and probes), pc01..pcN back the VIP, the last
	// machine is the client.
	total := backends + 2
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(total, 100e6), nil, func(w *scenario.World) (*ServiceRow, error) {
		w.HostCfg = core.Config{
			RendezvousPulsePeriod: 2 * sim.Second,
			BrokerTimeout:         6 * sim.Second,
		}
		bcfg := rendezvous.Config{SessionTTL: 30 * sim.Second}
		members := pcs(total)
		bs, err := addBrokers(w, brokers, bcfg, bcfg, members)
		if err != nil {
			return nil, err
		}
		backendSpecs := make([]vpc.BackendSpec, backends)
		for i := range backendSpecs {
			backendSpecs[i] = vpc.BackendSpec{Member: pc(i + 1)}
		}
		spec := vpc.TenantSpec{
			Tenant: "svc",
			Networks: []vpc.NetworkSpec{{
				Name: "snet", CIDR: "10.91.0.0/24", StaticAddressing: true,
				ServicePool: "10.91.0.192/28",
				Members:     members, Brokers: bs.names,
			}},
			Services: []vpc.ServiceSpec{{
				Name: "vip", Network: "snet",
				Policy:   service.PolicyFailoverOrdered,
				Backends: backendSpecs,
				Interval: interval, Timeout: timeout, Fall: fall, Rise: 2,
			}},
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		vip, ok := w.ServiceVIP("vip")
		if !ok {
			return nil, fmt.Errorf("service VIP unresolved")
		}
		svc, _ := w.ResolveService("vip")
		row := &ServiceRow{
			Backends: backends, Fall: fall, Brokers: brokers,
			Budget: sim.Duration(fall)*interval + timeout,
		}

		// The client pings the VIP every 200 ms for the whole episode.
		n, _ := w.VPC().Get("snet")
		client, _ := n.Member(pc(total - 1))
		type sample struct {
			at sim.Time // completion time
			ok bool
		}
		var samples []sample
		stop := false
		w.Eng.Spawn("client", func(p *sim.Proc) {
			for !stop {
				_, err := client.Stack.Ping(p, vip, 56, 500*sim.Millisecond)
				samples = append(samples, sample{at: p.Now(), ok: err == nil})
				if !p.Sleep(200 * sim.Millisecond) {
					return
				}
			}
		})
		w.Eng.RunFor(5 * sim.Second) // settle: tunnels, steering, first probes
		w.Scrape()                   // rate baseline for the withdrawal alert

		// Isolate the active backend (pc01, the first declared rank) from
		// every machine and broker: a partial cut would let the fabric's
		// relay fallback keep it reachable.
		killTime := w.Eng.Now()
		for i := 0; i < total; i++ {
			if i == 1 {
				continue
			}
			if err := w.Partition(pc(1), pc(i)); err != nil {
				return nil, err
			}
		}
		for _, b := range append(bs.names, "witness") {
			if err := w.Partition(pc(1), b); err != nil {
				return nil, err
			}
		}
		w.Eng.RunFor(row.Budget + 10*sim.Second)
		stop = true
		w.Eng.RunFor(sim.Second)

		if got, _ := svc.Active(); got != pc(2) {
			return nil, fmt.Errorf("active backend %q after kill, want %s", got, pc(2))
		}
		firstOK := sim.Time(0)
		for _, s := range samples {
			row.Pings++
			if s.ok {
				row.OK++
			}
			if s.ok && s.at > killTime && firstOK == 0 {
				firstOK = s.at
			}
		}
		if firstOK == 0 {
			return nil, fmt.Errorf("VIP never recovered after the kill (%d/%d pings ok)", row.OK, row.Pings)
		}
		row.Failover = firstOK.Sub(killTime)
		row.Withdrawals = svc.Withdrawals
		row.Failovers = svc.Failovers
		row.Stray = bs.witness.RecordsFor("snet")
		// Flow telemetry: the client's accounting must carry the ICMP flow
		// into the VIP itself (steering happens under the VIP's address, so
		// the client-side key keeps it).
		flowSeen := false
		for _, st := range client.Host.Flows().Snapshot() {
			if st.Key.Proto == 1 && st.Key.DstIP == vip && st.Frames > 0 {
				flowSeen = true
			}
		}
		if !flowSeen {
			return nil, fmt.Errorf("client flow table lacks the ICMP flow to VIP %s", vip)
		}
		// And the withdrawal surfaced as an alert: this scrape rates the
		// service withdrawal counter against the settle-time baseline.
		w.Scrape()
		if w.Alerts.Fired("vip-backend-withdrawn") == 0 {
			return nil, fmt.Errorf("vip-backend-withdrawn alert never fired (withdrawals=%d)",
				row.Withdrawals)
		}
		return row, nil
	})
}
