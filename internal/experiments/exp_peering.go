package experiments

import (
	"fmt"
	"time"

	"wavnet/internal/apps"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

// PeeringRow is one policy case of the peered-vs-isolated sweep: two
// networks of one tenant, probed from the first network toward the
// second's anchor (inside every allow policy used) and toward its
// second member (outside the partial policy).
type PeeringRow struct {
	Case        string
	ToAnchorOK  bool
	ToMemberOK  bool
	Forwards    uint64 // gateway re-injections at the receiving side
	PolicyDrops uint64 // gateway policy refusals at the receiving side
}

// QuotaRow is one contention point of the quota fairness sweep: two
// tenants run identical concurrent bulk transfers; one is metered.
type QuotaRow struct {
	QuotaMbps   float64 // 0 = unmetered baseline
	LimitedMbps float64 // metered tenant's achieved throughput
	OpenMbps    float64 // unmetered tenant's achieved throughput
	QuotaDrops  uint64  // frames dropped by the metered tenant's buckets
}

// PeeringResult reports the peering policy and quota fairness sweeps.
type PeeringResult struct {
	Policy []PeeringRow
	Quota  []QuotaRow
}

// String renders both tables.
func (r *PeeringResult) String() string {
	pt := table{
		title:  "VPC peering — policy-controlled routes between two networks of one tenant (beyond the paper)",
		header: []string{"Case", "To anchor", "To member", "Gw forwards", "Policy drops"},
	}
	okStr := func(ok bool) string {
		if ok {
			return "delivered"
		}
		return "blocked"
	}
	for _, row := range r.Policy {
		pt.addRow(row.Case, okStr(row.ToAnchorOK), okStr(row.ToMemberOK),
			fmt.Sprintf("%d", row.Forwards), fmt.Sprintf("%d", row.PolicyDrops))
	}
	pt.notes = append(pt.notes,
		"isolated: no PeeringSpec, nothing crosses; partial: AllowB covers only the anchor's /31")
	qt := table{
		title:  "VPC quotas — per-(tenant, tunnel) token buckets under contention",
		header: []string{"Quota (Mbps)", "Limited tenant (Mbps)", "Open tenant (Mbps)", "Quota drops"},
	}
	for _, row := range r.Quota {
		q := "none"
		if row.QuotaMbps > 0 {
			q = fmt.Sprintf("%.0f", row.QuotaMbps)
		}
		qt.addRow(q, mbps(row.LimitedMbps), mbps(row.OpenMbps), fmt.Sprintf("%d", row.QuotaDrops))
	}
	qt.notes = append(qt.notes,
		"both tenants transfer concurrently over one shared WAN; the open tenant must stay unaffected")
	return pt.String() + "\n" + qt.String()
}

// PeeringQuota runs the peered-vs-isolated pair sweep and the quota
// fairness sweep, all through the declarative Apply API.
func PeeringQuota(o Options) (*PeeringResult, error) {
	o = o.withDefaults()
	type policyCase struct {
		name    string
		peering []vpc.PeeringSpec
	}
	cases := []policyCase{
		{"isolated", nil},
		{"peered-full", []vpc.PeeringSpec{{A: "red", B: "blue"}}},
		{"peered-partial", []vpc.PeeringSpec{{A: "red", B: "blue", AllowB: []string{"10.20.0.0/31"}}}},
	}
	policy, err := sweep(cases, func(_ int, c policyCase) (*PeeringRow, error) {
		return peeringOnce(o, c.name, c.peering)
	}, func(c policyCase) string { return "peering case " + c.name })
	if err != nil {
		return nil, err
	}
	quotas := []float64{0, 4e6}
	if !o.Quick {
		quotas = []float64{0, 2e6, 8e6}
	}
	quota, err := sweep(quotas, func(_ int, q float64) (*QuotaRow, error) {
		return quotaOnce(o, q)
	}, func(q float64) string { return fmt.Sprintf("quota sweep %.0f bps", q) })
	if err != nil {
		return nil, err
	}
	return &PeeringResult{Policy: policy, Quota: quota}, nil
}

func peeringOnce(o Options, name string, peerings []vpc.PeeringSpec) (*PeeringRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(4, 100e6), nil, func(w *scenario.World) (*PeeringRow, error) {
		spec := vpc.TenantSpec{
			Tenant: "acme",
			Networks: []vpc.NetworkSpec{
				{Name: "red", CIDR: "10.10.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true},
				{Name: "blue", CIDR: "10.20.0.0/24", Members: []string{"pc02", "pc03"}, StaticAddressing: true},
			},
			Peerings: peerings,
		}
		if _, err := w.ApplySync(spec); err != nil {
			return nil, err
		}
		red, _ := w.VPC().Get("red")
		blue, _ := w.VPC().Get("blue")
		sender := red.Members()[0]
		row := &PeeringRow{Case: name}
		ping := func(p *sim.Proc, ip netsim.IP) bool {
			if _, err := sender.Stack.Ping(p, ip, 32, 4*time.Second); err == nil {
				return true
			}
			_, err := sender.Stack.Ping(p, ip, 32, 4*time.Second)
			return err == nil
		}
		w.RunProc("probe", time.Minute, time.Minute, func(p *sim.Proc) {
			row.ToAnchorOK = ping(p, blue.Members()[0].IP)
			row.ToMemberOK = ping(p, blue.Members()[1].IP)
		})
		for _, m := range blue.Members() {
			row.Forwards += m.Host.PeeredForwards
			row.PolicyDrops += m.Host.PeerPolicyDrops
		}
		return row, nil
	})
}

func quotaOnce(o Options, quotaBps float64) (*QuotaRow, error) {
	return withWorld(o, o.Seed, scenario.EmulatedWANSpecs(4, 100e6), nil, func(w *scenario.World) (*QuotaRow, error) {
		limited := vpc.TenantSpec{
			Tenant: "limited",
			Networks: []vpc.NetworkSpec{
				{Name: "lim", CIDR: "10.40.0.0/24", Members: []string{"pc00", "pc01"}, StaticAddressing: true},
			},
			Quota: vpc.QuotaSpec{RateBps: quotaBps},
		}
		open := vpc.TenantSpec{
			Tenant: "open",
			Networks: []vpc.NetworkSpec{
				{Name: "opn", CIDR: "10.50.0.0/24", Members: []string{"pc02", "pc03"}, StaticAddressing: true},
			},
		}
		if _, err := w.ApplySync(limited); err != nil {
			return nil, err
		}
		if _, err := w.ApplySync(open); err != nil {
			return nil, err
		}
		lim, _ := w.VPC().Get("lim")
		opn, _ := w.VPC().Get("opn")
		bytes := scaled(o, int64(1<<20), 4<<20)
		row := &QuotaRow{QuotaMbps: quotaBps / 1e6}
		run := func(n *vpc.Network, out *float64, errOut *error) {
			src, dst := n.Members()[0], n.Members()[1]
			if err := apps.StartSink(dst.Stack, 5001); err != nil {
				*errOut = err
				return
			}
			w.Eng.Spawn("ttcp-"+n.Name, func(p *sim.Proc) {
				r, err := apps.TTCP(p, src.Stack, netsim.Addr{IP: dst.IP, Port: 5001}, bytes, 16384)
				if err != nil {
					*errOut = err
					return
				}
				*out = r.Mbps()
			})
		}
		var limErr, opnErr error
		run(lim, &row.LimitedMbps, &limErr)
		run(opn, &row.OpenMbps, &opnErr)
		// Budget for the slowest case: the whole transfer at the quota rate,
		// padded generously for TCP recovery after policer drops.
		budget := 4 * time.Minute
		if quotaBps > 0 {
			budget += time.Duration(float64(bytes*8)/quotaBps*4) * time.Second
		}
		w.Eng.RunFor(budget)
		if limErr != nil {
			return nil, fmt.Errorf("limited tenant transfer: %w", limErr)
		}
		if opnErr != nil {
			return nil, fmt.Errorf("open tenant transfer: %w", opnErr)
		}
		for _, m := range lim.Members() {
			row.QuotaDrops += m.Host.QuotaDrops
		}
		return row, nil
	})
}
