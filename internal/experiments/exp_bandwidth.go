package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// Figure6Row is one ttcp transfer-size measurement (rate in KB/s).
type Figure6Row struct {
	SizeMB                 int
	Physical, WAVNet, IPOP float64
}

// Figure6Result reproduces the TTCP bar chart.
type Figure6Result struct{ Rows []Figure6Row }

// String renders the series.
func (r *Figure6Result) String() string {
	t := table{
		title:  "Figure 6 — TTCP benchmarking over WAN HKU-SIAT (transfer rate, KB/s; buf 16384 B)",
		header: []string{"Transfer", "Physical", "WAVNet", "IPOP"},
	}
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%dMB", row.SizeMB), msf(row.Physical), msf(row.WAVNet), msf(row.IPOP))
	}
	t.notes = append(t.notes,
		"paper shape: both VPNs reach 57-85% of physical; WAVNet above IPOP in every case")
	return t.String()
}

// Figure6 runs ttcp for 64/128/256 MB between HKU and SIAT on all three
// paths (quick mode scales sizes by 1/8).
func Figure6(o Options) (*Figure6Result, error) {
	o = o.withDefaults()
	return withWorld(o, o.Seed, scenario.RealWANSpecs(), scenario.RealWANOverrides(), func(w *scenario.World) (*Figure6Result, error) {
		if err := w.WAVNetUp("HKU1", "SIAT"); err != nil {
			return nil, err
		}
		if err := w.IPOPUp("HKU1", "SIAT"); err != nil {
			return nil, err
		}
		hku, siat := w.M("HKU1"), w.M("SIAT")
		pa, pb, err := w.PhysicalPair(hku, siat)
		if err != nil {
			return nil, err
		}
		for _, sink := range []*ipstack.Stack{pb, siat.Dom0(), siat.IPOP.Dom0()} {
			if err := apps.StartSink(sink, 5001); err != nil {
				return nil, err
			}
		}

		runs := []struct {
			name string
			src  *ipstack.Stack
			dst  netsim.IP
		}{
			{"physical", pa, pb.IP()},
			{"wavnet", hku.Dom0(), siat.VIP},
			{"ipop", hku.IPOP.Dom0(), siat.IPOPVIP},
		}
		res := &Figure6Result{}
		for _, sizeMB := range []int{64, 128, 256} {
			bytes := scaled(o, int64(sizeMB)<<20/8, int64(sizeMB)<<20)
			var vals [3]float64
			for i, r := range runs {
				v, err := ttcpOnce(w, r.src, netsim.Addr{IP: r.dst, Port: 5001}, bytes)
				if err != nil {
					return nil, fmt.Errorf("figure6 %s %dMB: %w", r.name, sizeMB, err)
				}
				vals[i] = v
			}
			res.Rows = append(res.Rows, Figure6Row{SizeMB: sizeMB, Physical: vals[0], WAVNet: vals[1], IPOP: vals[2]})
		}
		return res, nil
	})
}

func ttcpOnce(w *scenario.World, src *ipstack.Stack, dst netsim.Addr, bytes int64) (float64, error) {
	var rate float64
	var err error
	if !w.RunProc("ttcp", 60*time.Minute, 60*time.Minute, func(p *sim.Proc) {
		var r *apps.TTCPResult
		if r, err = apps.TTCP(p, src, dst, bytes, 16384); r != nil {
			rate = r.KBps
		}
	}) {
		return 0, fmt.Errorf("ttcp did not finish")
	}
	return rate, err
}

// Figure7Row is one shaped-bandwidth point.
type Figure7Row struct {
	WANMbps                float64
	Physical, WAVNet, IPOP float64 // measured Mbps
}

// Figure7Result reproduces the relative-bandwidth chart.
type Figure7Result struct{ Rows []Figure7Row }

// String renders measured and relative bandwidth.
func (r *Figure7Result) String() string {
	t := table{
		title:  "Figure 7 — bandwidth utilization under different WAN conditions (relative to physical)",
		header: []string{"WAN Mbps", "Physical", "WAVNet", "IPOP", "WAVNet rel", "IPOP rel"},
	}
	for _, row := range r.Rows {
		t.addRow(mbps(row.WANMbps), mbps(row.Physical), mbps(row.WAVNet), mbps(row.IPOP),
			fmt.Sprintf("%.2f", row.WAVNet/row.Physical), fmt.Sprintf("%.2f", row.IPOP/row.Physical))
	}
	t.notes = append(t.notes,
		"paper shape: WAVNet near native at every rate; IPOP adequate when congested but <20% of native at 100 Mbps")
	return t.String()
}

// Figure7 shapes the emulated WAN to 6.25..100 Mbps and measures netperf
// TCP_STREAM on each path.
func Figure7(o Options) (*Figure7Result, error) {
	o = o.withDefaults()
	duration := scaled(o, 15*time.Second, 360*time.Second)
	res := &Figure7Result{}
	for _, wan := range []float64{6.25e6, 12.5e6, 25e6, 50e6, 100e6} {
		row, err := withWorld(o, o.Seed, scenario.EmulatedWANSpecs(2, wan), nil, func(w *scenario.World) (*Figure7Row, error) {
			if err := w.WAVNetUp(); err != nil {
				return nil, err
			}
			if err := w.IPOPUp(); err != nil {
				return nil, err
			}
			a, b := w.Machines[0], w.Machines[1]
			pa, pb, err := w.PhysicalPair(a, b)
			if err != nil {
				return nil, err
			}
			runs, err := netperfPaths(w, 5001, duration, 2*time.Minute,
				[][2]*ipstack.Stack{{pa, pb}, {a.Dom0(), b.Dom0()}, {a.IPOP.Dom0(), b.IPOP.Dom0()}})
			if err != nil {
				return nil, err
			}
			phys, wav, ipp := runs[0], runs[1], runs[2]
			if phys.Err != nil || wav.Err != nil || ipp.Err != nil {
				return nil, fmt.Errorf("figure7 %g: %v %v %v", wan, phys.Err, wav.Err, ipp.Err)
			}
			return &Figure7Row{WANMbps: wan / 1e6, Physical: phys.Mbps(), WAVNet: wav.Mbps(), IPOP: ipp.Mbps()}, nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// Figure8Row is one cluster-size scalability point.
type Figure8Row struct {
	Nodes            int
	Physical, WAVNet float64 // mean Mbps from the probe node to the rest
	IPOP             float64
}

// Figure8Result reproduces the scalability chart.
type Figure8Result struct{ Rows []Figure8Row }

// String renders the series.
func (r *Figure8Result) String() string {
	t := table{
		title:  "Figure 8 — Netperf while scaling virtual cluster size (mean Mbps, probe node to peers)",
		header: []string{"Nodes", "Physical", "WAVNet", "IPOP"},
	}
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%d", row.Nodes), mbps(row.Physical), mbps(row.WAVNet), mbps(row.IPOP))
	}
	t.notes = append(t.notes,
		"paper shape: WAVNet flat as the cluster grows (keepalives are negligible); IPOP degrades with size")
	return t.String()
}

// netperfPaths runs one netperf TCP_STREAM per path, one after another
// on ports base, base+1, ..., each given duration plus slack to drain:
// the paper measures each path in a separate run, since concurrent flows
// would contend for the same shaped WAN link and skew every number.
func netperfPaths(w *scenario.World, base uint16, duration, slack sim.Duration, paths [][2]*ipstack.Stack) ([]*apps.NetperfRun, error) {
	runs := make([]*apps.NetperfRun, len(paths))
	for i, path := range paths {
		np, err := apps.StartNetperf(path[0], path[1], base+uint16(i), duration, duration)
		if err != nil {
			return nil, err
		}
		w.Eng.RunFor(duration + slack)
		runs[i] = np
	}
	return runs, nil
}

// Figure8 builds clusters of 8..64 hosts with a full WAVNet mesh (5 s
// CONNECT_PULSE keepalives on every tunnel), then measures sequential
// netperf runs from one probe node to a sample of peers.
func Figure8(o Options) (*Figure8Result, error) {
	o = o.withDefaults()
	sizes := []int{8, 16, 24, 32, 48, 64}
	if o.Quick {
		sizes = []int{8, 16, 32, 64}
	}
	duration := scaled(o, 3*time.Second, 10*time.Second)
	res := &Figure8Result{}
	for _, n := range sizes {
		row, err := withWorld(o, o.Seed, scenario.EmulatedWANSpecs(n, 100e6), nil, func(w *scenario.World) (*Figure8Row, error) {
			if err := w.WAVNetUp(); err != nil {
				return nil, err
			}
			if err := w.IPOPUp(); err != nil {
				return nil, err
			}
			probe := w.Machines[0]
			// Sample peers to keep runtime bounded: every peer for small
			// clusters, eight spread peers for big ones.
			peers := w.Machines[1:]
			if len(peers) > 8 {
				step := len(peers) / 8
				var sampled []*scenario.Machine
				for i := 0; i < len(peers); i += step {
					sampled = append(sampled, peers[i])
				}
				peers = sampled[:8]
			}
			var physSum, wavSum, ipopSum float64
			for pi, peer := range peers {
				pa, pb, err := w.PhysicalPair(probe, peer)
				if err != nil {
					return nil, err
				}
				runs, err := netperfPaths(w, uint16(6000+pi*4), duration, 20*time.Second,
					[][2]*ipstack.Stack{{pa, pb}, {probe.Dom0(), peer.Dom0()}, {probe.IPOP.Dom0(), peer.IPOP.Dom0()}})
				if err != nil {
					return nil, err
				}
				phys, wav, ipp := runs[0], runs[1], runs[2]
				if phys.Err != nil || wav.Err != nil || ipp.Err != nil {
					return nil, fmt.Errorf("figure8 n=%d peer %s: %v %v %v", n, peer.Key, phys.Err, wav.Err, ipp.Err)
				}
				physSum += phys.Mbps()
				wavSum += wav.Mbps()
				ipopSum += ipp.Mbps()
			}
			k := float64(len(peers))
			return &Figure8Row{Nodes: n, Physical: physSum / k, WAVNet: wavSum / k, IPOP: ipopSum / k}, nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}
