package main

import (
	"fmt"
	"math/rand"

	"wavnet/internal/core"
	"wavnet/internal/obs"
	"wavnet/internal/rendezvous"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

const (
	ctlHosts     = 192
	ctlTenants   = 4
	ctlSeconds   = 30
	ctlLookupGap = 100 * sim.Millisecond
	ctlBroker2   = "b1"
)

// runControlScrape measures the control plane alone: the four tenants
// are admitted inside the measured phase, then every member looks up a
// co-tenant homed on the other broker ten times a virtual second while
// the harness scrapes the world once a second.
func runControlScrape(r *rep) error {
	hosts := r.scaled(ctlHosts, 4*ctlTenants)
	hosts -= hosts % (3 * ctlTenants)
	seconds := r.scaled(ctlSeconds, 2)
	perMember := seconds * int(sim.Second/ctlLookupGap)
	perTenant := hosts / ctlTenants

	r.beginSetup()
	w, err := r.build(scenario.EmulatedWANSpecs(hosts, 100e6), nil)
	if err != nil {
		return err
	}
	if _, err := w.AddBroker(ctlBroker2, rendezvous.Config{}); err != nil {
		return err
	}
	for i, m := range w.Machines {
		if onBroker2(i) {
			if err := w.SetHome(m.Key, ctlBroker2); err != nil {
				return err
			}
		}
	}
	specs := make([]vpc.TenantSpec, ctlTenants)
	for t := range specs {
		keys := make([]string, perTenant)
		for i := range keys {
			keys[i] = w.Machines[t*perTenant+i].Key
		}
		specs[t] = vpc.TenantSpec{
			Tenant: fmt.Sprintf("tenant%d", t),
			Networks: []vpc.NetworkSpec{{
				Name: fmt.Sprintf("net%d", t), CIDR: fmt.Sprintf("10.%d.0.0/24", 70+t),
				Members: keys, Brokers: []string{scenario.PrimaryBroker, ctlBroker2},
			}},
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	if r.endSetup() {
		return nil
	}

	ph := r.beginMeasure(w)
	actions, admitted := 0, uint64(0)
	for _, spec := range specs {
		ar, err := r.apply(w, spec)
		if err != nil {
			return err
		}
		actions += len(ar.Actions)
		for _, a := range ar.Actions {
			if a.Op == "admit" {
				admitted++
			}
		}
	}
	if r.trace != nil {
		r.trace.shimMembers(w)
	}

	lat := make([]float64, 0, hosts*perMember)
	running := hosts
	start := w.Eng.Now()
	for t := 0; t < ctlTenants; t++ {
		for i := 0; i < perTenant; i++ {
			idx := t*perTenant + i
			h := w.Machines[idx].WAV
			// A co-tenant homed on the other broker, chosen by the seed.
			other := t*perTenant + rng.Intn(perTenant)
			for onBroker2(other) == onBroker2(idx) {
				other = t*perTenant + rng.Intn(perTenant)
			}
			target := w.Machines[other].Key
			phase := sim.Duration(rng.Int63n(int64(ctlLookupGap)))
			w.Eng.Spawn("ctl-lookup", func(p *sim.Proc) {
				defer func() { running--; ph.doneAt = p.Now() }()
				lookupLoop(p, r, h, target, start.Add(phase), perMember, &lat)
			})
		}
	}
	var scrapeCalls, scrapeSeries, scrapesOK uint64
	wantSeries, wantFlowSeries := -1, -1
	scrape := func() {
		r.spans.begin("scrape", "measure")
		defer r.spans.end("scrape")
		reg := w.Scrape()
		scrapeCalls++
		scrapeSeries += uint64(reg.Len())
		delivered, _ := reg.CounterValue("net.delivered", obs.Labels{})
		if wantSeries < 0 {
			wantSeries = reg.Len()
		}
		if reg.Len() != wantSeries || reg.Len() == 0 || delivered != w.Net.Delivered {
			r.fail(1, "scrape at %v: %d series (want %d), net.delivered %d against %d", w.Eng.Now(), reg.Len(), wantSeries, delivered, w.Net.Delivered)
		} else {
			scrapesOK++
		}
		flows := w.FlowScrape()
		scrapeCalls++
		scrapeSeries += uint64(flows.Len())
		if wantFlowSeries < 0 {
			wantFlowSeries = flows.Len()
		}
		// Flow series only ever accrue: idle flows move from the tables
		// to the flow log, which the scrape reads too.
		if flows.Len() < wantFlowSeries || flows.Len() == 0 {
			r.fail(1, "flow scrape at %v: %d series, %d before", w.Eng.Now(), flows.Len(), wantFlowSeries)
		} else {
			scrapesOK++
		}
		wantFlowSeries = flows.Len()
	}
	for s := 1; s <= seconds; s++ {
		if err := ph.drive(ctlLookupGap, sim.Second, func() bool { return w.Eng.Now() >= start.Add(sim.Duration(s)*sim.Second) }); err != nil {
			return err
		}
		scrape()
	}
	if err := ph.drive(10*sim.Millisecond, 30*sim.Second, func() bool { return running == 0 }); err != nil {
		return err
	}
	ph.end()
	r.Counts["vpc.apply_actions"] = float64(actions)
	r.Counts["obs.scrape_calls"] = float64(scrapeCalls)
	r.Counts["obs.scrape_series"] = float64(scrapeSeries)

	r.spans.begin("verify", "rep")
	defer r.spans.end("verify")
	r.SimSetupS = r.applyT1.Sub(r.applyT0).Seconds()
	if admitted != uint64(hosts) {
		r.fail(1, "%d members admitted, %d declared", admitted, hosts)
	}
	r.Ops = admitted + uint64(len(lat)) + scrapesOK
	r.Attempted = r.Ops + r.Failed
	r.finish(lat)
	return nil
}

// onBroker2 homes every third machine on the second broker. Lookups
// through it take a millisecond longer, so the split must not be even: a
// median that sits on the edge between the two halves jumps with the seed.
func onBroker2(i int) bool { return i%3 == 2 }

// lookupLoop performs n paced lookups of one target and checks that each
// answer names it.
func lookupLoop(p *sim.Proc, r *rep, h *core.Host, target string, first sim.Time, n int, lat *[]float64) {
	for q := 0; q < n; q++ {
		if d := first.Add(sim.Duration(q) * ctlLookupGap).Sub(p.Now()); d > 0 {
			p.Sleep(d)
		}
		t0 := p.Now()
		recs, err := h.Lookup(p, target)
		switch {
		case err != nil:
			r.fail(1, "%s lookup %d of %s: %v", h.Name(), q, target, err)
		case len(recs) == 0 || recs[0].Name != target:
			r.fail(1, "%s lookup %d of %s: answer names %d records, not the target", h.Name(), q, target, len(recs))
		default:
			*lat = append(*lat, p.Now().Sub(t0).Seconds()*1e3)
		}
	}
}
