package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vm"
)

// Figure9Series is one network's bandwidth timeline during migration.
type Figure9Series struct {
	Name          string
	Interval      *apps.Series // receiver Mbps every 500 ms
	MigrationTime sim.Duration
	Downtime      sim.Duration
	StalledAfter  bool // the IPOP symptom: stream dead after migration
	MeanMbps      float64
}

// Figure9Result compares VM bandwidth during live migration under LAN,
// WAVNet and IPOP.
type Figure9Result struct{ Series []Figure9Series }

// String summarizes the timelines.
func (r *Figure9Result) String() string {
	t := table{
		title:  "Figure 9 — VM network bandwidth during live migration (netperf polled every 500 ms)",
		header: []string{"Network", "Mean Mbps", "Migration (s)", "Downtime (s)", "Stream after migration"},
	}
	for _, s := range r.Series {
		after := "continues"
		if s.StalledAfter {
			after = "STALLED"
		}
		t.addRow(s.Name, mbps(s.MeanMbps), secs(s.MigrationTime), fmt.Sprintf("%.2f", s.Downtime.Seconds()), after)
	}
	t.notes = append(t.notes,
		"paper shape: LAN ≈ native with ~20 s migration; WAVNet ≈ 60% native, <30 s, stream survives; IPOP <10% native, ~130 s, stream stalls after migration")
	return t.String()
}

// Figure9 runs the three variants. The LAN case uses an unshaped
// three-machine world; WAVNet/IPOP use the 100 Mbps emulated WAN.
func Figure9(o Options) (*Figure9Result, error) {
	o = o.withDefaults()
	memMB := 256
	if o.Quick {
		memMB = 64
	}
	streamFor := scaled(o, 60*time.Second, 340*time.Second)
	res := &Figure9Result{}
	// The VM migrates from machine 0 to machine 1 while machine 2 streams
	// to it.
	variants := []struct {
		name   string
		seed   int64
		wanBps float64
	}{
		// LAN: the paper's LAN row is native bridged Ethernet at 100 Mbps;
		// direct physical stacks would not carry a VM, so it is modelled
		// with WAVNet over an unshaped LAN-latency fabric, which measures
		// within a few percent of native at 100 Mbps.
		{"lan", o.Seed, 95e6},
		// WAVNet over the shaped emulated WAN.
		{"wavnet", o.Seed + 1, 100e6},
		// IPOP baseline.
		{"ipop", o.Seed + 2, 100e6},
	}
	for _, vr := range variants {
		name := vr.name
		s, err := withWorld(o, vr.seed, scenario.EmulatedWANSpecs(3, vr.wanBps), nil, func(w *scenario.World) (*Figure9Series, error) {
			m := w.Machines
			var vmHost, dstHost vm.HostPort
			var observer *ipstack.Stack
			dur := streamFor
			if name == "ipop" {
				if err := w.IPOPUp(); err != nil {
					return nil, err
				}
				vmHost, dstHost, observer = m[0].IPOP, m[1].IPOP, m[2].IPOP.Dom0()
				// IPOP's migration itself crawls at the overlay's capped
				// throughput; keep streaming long enough to observe the
				// post-migration behaviour.
				dur = streamFor * 8
			} else {
				if err := w.WAVNetUp(); err != nil {
					return nil, err
				}
				vmHost, dstHost, observer = m[0].WAV, m[1].WAV, m[2].Dom0()
			}
			v := vm.New(vmHost, "vm-"+name, netsim.MustParseIP("10.77.0.9"), vm.Config{MemoryMB: memMB})
			if name == "ipop" {
				w.IPOPNet.RegisterIP(v.IP(), m[0].IPOP)
			}
			np, err := apps.StartNetperf(observer, v.Stack(), 5001, dur, 500*time.Millisecond)
			if err != nil {
				return nil, err
			}
			var rep *vm.MigrationReport
			var migErr error
			w.Eng.Spawn("migrate", func(p *sim.Proc) {
				p.Sleep(scaled(o, 10*time.Second, 40*time.Second))
				rep, migErr = v.Migrate(p, dstHost)
			})
			w.Eng.RunFor(dur + 10*time.Minute)
			if migErr != nil {
				return nil, fmt.Errorf("figure9 %s migrate: %w", name, migErr)
			}
			s := &Figure9Series{Name: name, Interval: np.IntervalMbps, MeanMbps: np.Mbps()}
			if rep != nil {
				s.MigrationTime = rep.Total()
				s.Downtime = rep.Downtime
				// When the stream never finishes (the IPOP stall), report the
				// pre-migration mean instead of zero.
				if s.MeanMbps == 0 {
					if pre := np.IntervalMbps.Between(0, rep.Start); pre.Len() > 0 {
						s.MeanMbps = pre.Summary().Mean
					}
				}
			}
			// Stalled if the last quarter of intervals carried (almost) no
			// traffic.
			samples := np.IntervalMbps.Samples
			if len(samples) >= 8 {
				tail := samples[len(samples)*3/4:]
				var sum float64
				for _, smp := range tail {
					sum += smp.Value
				}
				s.StalledAfter = sum/float64(len(tail)) < 0.5
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, *s)
	}
	return res, nil
}

// TableIIIRow is one before/after HTTP connection-time measurement.
type TableIIIRow struct {
	Label          string
	PingRTT        sim.Duration
	Min, Mean, Max float64 // connection time, ms
}

// TableIIIResult holds Table III.
type TableIIIResult struct{ Rows []TableIIIRow }

// String renders the table.
func (r *TableIIIResult) String() string {
	t := table{
		title:  "Table III — HTTP connection time before/after VM migration",
		header: []string{"Client and VM location", "Ping (ms)", "Min", "Mean", "Max"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Label, ms(row.PingRTT), msf(row.Min), msf(row.Mean), msf(row.Max))
	}
	t.notes = append(t.notes,
		"paper: Sinica→VM@SIAT 99/107/148 → @HKU2 25/33/67; HKU1→VM@SIAT 76/80/90 → @HKU2 0/7/16")
	return t.String()
}

// TableIVRow is one before/after throughput measurement.
type TableIVRow struct {
	Label        string
	NetperfMbps  float64
	Req1K, Req8K float64
	Req64K       float64
}

// TableIVResult holds Table IV.
type TableIVResult struct{ Rows []TableIVRow }

// String renders the table.
func (r *TableIVResult) String() string {
	t := table{
		title:  "Table IV — HTTP throughput before/after VM migration (requests/second)",
		header: []string{"Client and VM location", "WAVNet bw (Mbps)", "1K", "8K", "64K"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Label, mbps(row.NetperfMbps), msf(row.Req1K), msf(row.Req8K), msf(row.Req64K))
	}
	t.notes = append(t.notes,
		"paper: Sinica 18.05→21.69 Mbps, 432.9→583.3 req/s @1K; HKU1 18.6→79.15 Mbps, 473.1→775.5 req/s @1K")
	return t.String()
}

// tables34 runs the shared scenario behind Tables III and IV: an HTTP
// server VM at SIAT serving clients at HKU1 and Sinica, migrated to HKU2.
func tables34(o Options) (*TableIIIResult, *TableIVResult, error) {
	o = o.withDefaults()
	res4 := &TableIVResult{}
	res3, err := withWorld(o, o.Seed, scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (*TableIIIResult, error) {
		keys := []string{"HKU1", "HKU2", "Sinica", "SIAT"}
		if err := w.WAVNetUp(keys...); err != nil {
			return nil, err
		}
		v := vm.New(w.M("SIAT").WAV, "httpd-vm", netsim.MustParseIP("10.77.0.10"), vm.Config{MemoryMB: 128})
		if err := apps.StartHTTPServer(v.Stack(), 80); err != nil {
			return nil, err
		}
		res3 := &TableIIIResult{}
		abFor := scaled(o, 10*time.Second, 60*time.Second)

		measure := func(clientKey, label string) error {
			client := w.M(clientKey).Dom0()
			// Ping RTT to the VM.
			var rtt sim.Duration
			w.RunProc("ping", 15*time.Second, 15*time.Second, func(p *sim.Proc) {
				client.Ping(p, v.IP(), 56, 5*time.Second)
				rtt, _ = client.Ping(p, v.IP(), 56, 5*time.Second)
			})
			// Netperf throughput to the VM.
			np, err := apps.StartNetperf(client, v.Stack(), 5600, scaled(o, 8*time.Second, 30*time.Second), time.Second)
			if err != nil {
				return err
			}
			w.Eng.RunFor(scaled(o, 8*time.Second, 30*time.Second) + 30*time.Second)
			row4 := TableIVRow{Label: label, NetperfMbps: np.Mbps()}
			// AB with 1K/8K/64K files (concurrency 8 as a stand-in for the
			// paper's unspecified AB settings in these tables).
			var reqRates [3]float64
			var connStats apps.Summary
			for i, size := range []int{1 << 10, 8 << 10, 64 << 10} {
				ab := apps.StartAB(client, netsim.Addr{IP: v.IP(), Port: 80}, size, 50, abFor, 0)
				w.Eng.RunFor(abFor + 30*time.Second)
				if !ab.Done {
					return fmt.Errorf("AB %s size %d did not finish", label, size)
				}
				reqRates[i] = ab.ReqPerSec()
				if i == 0 {
					connStats = ab.ConnMs
				}
			}
			row4.Req1K, row4.Req8K, row4.Req64K = reqRates[0], reqRates[1], reqRates[2]
			res4.Rows = append(res4.Rows, row4)
			res3.Rows = append(res3.Rows, TableIIIRow{
				Label: label, PingRTT: rtt,
				Min: connStats.Min, Mean: connStats.Mean, Max: connStats.Max,
			})
			return nil
		}

		if err := measure("Sinica", "Sinica to VM@SIAT (before)"); err != nil {
			return nil, err
		}
		if err := measure("HKU1", "HKU1 to VM@SIAT (before)"); err != nil {
			return nil, err
		}
		// Migrate SIAT → HKU2.
		var migErr error
		done := w.RunProc("migrate", 20*time.Minute, 20*time.Minute, func(p *sim.Proc) {
			_, migErr = v.Migrate(p, w.M("HKU2").WAV)
		})
		if !done || migErr != nil {
			return nil, fmt.Errorf("tables 3/4 migration: done=%v err=%v", done, migErr)
		}
		if err := measure("Sinica", "Sinica to VM@HKU2 (after)"); err != nil {
			return nil, err
		}
		if err := measure("HKU1", "HKU1 to VM@HKU2 (after)"); err != nil {
			return nil, err
		}
		return res3, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res3, res4, nil
}

// TableIII measures HTTP connection times before/after migration.
func TableIII(o Options) (*TableIIIResult, error) {
	r3, _, err := tables34(o)
	return r3, err
}

// TableIV measures HTTP throughput before/after migration.
func TableIV(o Options) (*TableIVResult, error) {
	_, r4, err := tables34(o)
	return r4, err
}

// Figure10Run is one site-pair migration timeline.
type Figure10Run struct {
	Pair      string
	RTTms     *apps.Series
	ABSeries  *apps.Series
	Losses    []sim.Time
	Downtime  sim.Duration
	Migration sim.Duration
	ThpBefore float64
	ThpAfter  float64
}

// Figure10Result holds the three timelines of Figure 10.
type Figure10Result struct{ Runs []Figure10Run }

// String summarizes downtime, loss and throughput improvement.
func (r *Figure10Result) String() string {
	t := table{
		title:  "Figure 10 — ICMP RTT and HTTP throughput during live migration (1 KB file, c=50)",
		header: []string{"Migration", "Downtime (s)", "ICMP losses", "Thp before (req/s)", "Thp after (req/s)", "Migration (s)"},
	}
	for _, run := range r.Runs {
		t.addRow(run.Pair, fmt.Sprintf("%.2f", run.Downtime.Seconds()),
			fmt.Sprintf("%d", len(run.Losses)), msf(run.ThpBefore), msf(run.ThpAfter), secs(run.Migration))
	}
	t.notes = append(t.notes,
		"paper: downtimes 2.1 s (AIST), 1.0 s (SIAT), 0.6 s (OffCam); throughput jumps ~600 → 1500+ req/s after relocating near the clients")
	return t.String()
}

// Figure10 migrates a 128 MB HTTP-serving VM from AIST/SIAT/OffCam to
// HKU2 while an HKU1 client hammers it with AB and pings it.
func Figure10(o Options) (*Figure10Result, error) {
	o = o.withDefaults()
	res := &Figure10Result{}
	for i, from := range []string{"AIST", "SIAT", "OffCam"} {
		run, err := withWorld(o, o.Seed+int64(i), scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (*Figure10Run, error) {
			if err := w.WAVNetUp("HKU1", "HKU2", from); err != nil {
				return nil, err
			}
			vmMem := 128
			if o.Quick {
				vmMem = 64
			}
			v := vm.New(w.M(from).WAV, "httpd-vm", netsim.MustParseIP("10.77.0.11"),
				vm.Config{MemoryMB: vmMem, DirtyRate: 300})
			if err := apps.StartHTTPServer(v.Stack(), 80); err != nil {
				return nil, err
			}
			client := w.M("HKU1").Dom0()
			total := scaled(o, 110*time.Second, 150*time.Second)
			ping, _ := apps.StartPinger(client, v.IP(), 500*time.Millisecond, total)
			ab := apps.StartAB(client, netsim.Addr{IP: v.IP(), Port: 80}, 1<<10, 50, total, time.Second)
			var rep *vm.MigrationReport
			var migErr error
			w.Eng.Spawn("migrate", func(p *sim.Proc) {
				p.Sleep(scaled(o, 10*time.Second, 30*time.Second))
				rep, migErr = v.Migrate(p, w.M("HKU2").WAV)
			})
			w.Eng.RunFor(total + 10*time.Minute)
			if migErr != nil {
				return nil, fmt.Errorf("figure10 %s: %w", from, migErr)
			}
			run := &Figure10Run{
				Pair: from + "-HKU", RTTms: ping.RTTms, ABSeries: ab.ThroughputSeries,
				Losses: ping.Losses,
			}
			if rep != nil {
				run.Downtime = rep.Downtime
				run.Migration = rep.Total()
				// Throughput before: AB windows fully before migration
				// start; after: windows after it ends.
				before := ab.ThroughputSeries.Between(0, rep.Start)
				after := ab.ThroughputSeries.Between(rep.End.Add(2*time.Second), 1<<62)
				if before.Len() > 0 {
					run.ThpBefore = before.Summary().Mean
				}
				if after.Len() > 0 {
					run.ThpAfter = after.Summary().Mean
				}
			}
			return run, nil
		})
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

// TableVRow is one site-pair/memory-size migration timing.
type TableVRow struct {
	Pair        string
	RTT         sim.Duration
	NetperfMbps float64
	T128, T512  sim.Duration
}

// TableVResult holds Table V.
type TableVResult struct{ Rows []TableVRow }

// String renders the table.
func (r *TableVResult) String() string {
	t := table{
		title:  "Table V — time of VM live migration among different sites (seconds)",
		header: []string{"Sites", "RTT (ms)", "WAVNet bw (Mbps)", "128 MB", "512 MB"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Pair, ms(row.RTT), mbps(row.NetperfMbps), secs(row.T128), secs(row.T512))
	}
	t.notes = append(t.notes,
		"paper: OffCam 16/120, Sinica 92.5/202.5, AIST 107.5/208, SIAT 130/377.5, SDSC 310.5/1023 (seconds; non-proportionality from pre-copy dirty rounds)")
	return t.String()
}

// TableV migrates VMs of 128 and 512 MB from each remote site to HKU2.
func TableV(o Options) (*TableVResult, error) {
	o = o.withDefaults()
	sizes := []int{128, 512}
	if o.Quick {
		sizes = []int{32, 128}
	}
	res := &TableVResult{}
	for i, from := range []string{"OffCam", "Sinica", "AIST", "SIAT", "SDSC"} {
		row := TableVRow{Pair: from + "-HKU"}
		for si, memMB := range sizes {
			took, err := withWorld(o, o.Seed+int64(i), scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (sim.Duration, error) {
				if err := w.WAVNetUp("HKU2", from); err != nil {
					return 0, err
				}
				if si == 0 {
					// Measure path RTT and WAVNet bandwidth once.
					var rtt sim.Duration
					w.RunProc("rtt", 10*time.Second, 10*time.Second, func(p *sim.Proc) {
						rtt, _ = w.M(from).WAV.TunnelRTT(p, "HKU2")
					})
					row.RTT = rtt
					np, err := apps.StartNetperf(w.M(from).Dom0(), w.M("HKU2").Dom0(), 5700,
						scaled(o, 8*time.Second, 30*time.Second), time.Second)
					if err != nil {
						return 0, err
					}
					w.Eng.RunFor(scaled(o, 8*time.Second, 30*time.Second) + 30*time.Second)
					row.NetperfMbps = np.Mbps()
				}
				v := vm.New(w.M(from).WAV, "vm", netsim.MustParseIP("10.77.0.12"),
					vm.Config{MemoryMB: memMB, DirtyRate: 1500})
				var rep *vm.MigrationReport
				var migErr error
				done := w.RunProc("migrate", 4*time.Hour, 4*time.Hour, func(p *sim.Proc) {
					rep, migErr = v.Migrate(p, w.M("HKU2").WAV)
				})
				if !done || migErr != nil {
					return 0, fmt.Errorf("tableV %s %dMB: done=%v err=%v", from, memMB, done, migErr)
				}
				return rep.Total(), nil
			})
			if err != nil {
				return nil, err
			}
			if si == 0 {
				row.T128 = took
			} else {
				row.T512 = took
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
