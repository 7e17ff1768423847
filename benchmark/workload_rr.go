package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"wavnet/internal/ipstack"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/scenario"
	"wavnet/internal/sim"
	"wavnet/internal/vpc"
)

const (
	rrPort      = 8080
	rrReqLen    = 16
	rrRespLen   = 8 << 10
	rrGroups    = 2 // per member: against members +2 and +4 of the ring
	rrWorkers   = 4 // per group
	rrRequests  = 350
	rrReqBudget = 5 * sim.Second
)

// rrSpecs is the paper's nine-site WAN with three sites behind symmetric
// NATs, which hole punching cannot cross: their tunnels to one another
// and to port-restricted sites come up relayed through the broker.
func rrSpecs() []scenario.Spec {
	specs := scenario.RealWANSpecs()
	for i := range specs {
		switch specs[i].Key {
		case "PU", "SDSC", "SIAT":
			specs[i].NAT = nat.Symmetric
		}
	}
	return specs
}

// runRRRelayMesh runs a fixed number of request/response exchanges, one
// TCP connection each, from every member to two others, through the
// harness's own client and server loops over the public ipstack API.
func runRRRelayMesh(r *rep) error {
	perWorker := r.scaled(rrRequests, 2)

	r.beginSetup()
	specs := rrSpecs()
	w, err := r.build(specs, scenario.RealWANOverrides())
	if err != nil {
		return err
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = sp.Key
	}
	if _, err := r.apply(w, vpc.TenantSpec{
		Tenant: "bench",
		Networks: []vpc.NetworkSpec{{
			Name: "mesh", CIDR: "10.62.0.0/24", StaticAddressing: true, Members: keys,
		}},
	}); err != nil {
		return err
	}
	n, _ := w.VPC().Get("mesh")
	members := n.Members()
	nm := len(members)
	var pairs [][2]*vpc.Member
	for i, m := range members {
		for _, d := range []int{2, 4} {
			pairs = append(pairs, [2]*vpc.Member{m, members[(i+d)%nm]})
		}
	}
	if err := warmPairs(w, pairs); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	templates := make([][]byte, nm)
	listeners := make([]*ipstack.Listener, nm)
	for i, m := range members {
		templates[i] = make([]byte, rrRespLen)
		rng.Read(templates[i])
		if listeners[i], err = m.Stack.Listen(rrPort); err != nil {
			return err
		}
	}
	if r.endSetup() {
		return nil
	}

	ph := r.beginMeasure(w)
	var (
		firstByte sim.Time
		served    uint64
		lat       = make([]float64, 0, nm*rrGroups*rrWorkers*perWorker)
		running   = nm * rrGroups * rrWorkers
	)
	for i := range members {
		lis, tmpl := listeners[i], templates[i]
		w.Eng.Spawn("rr-accept", func(p *sim.Proc) {
			for {
				conn, err := lis.Accept(p)
				if err != nil {
					return
				}
				w.Eng.Spawn("rr-serve", func(p *sim.Proc) {
					defer ph.tcp.add(conn)
					resp := make([]byte, rrRespLen)
					if _, err := conn.ReadFull(p, resp[:rrReqLen]); err != nil {
						conn.Abort()
						return
					}
					copy(resp[rrReqLen:], tmpl[rrReqLen:])
					if _, err := conn.Write(p, resp); err != nil {
						conn.Abort()
						return
					}
					served++
					conn.Close()
					// Hold the connection until the client has closed its
					// side, so its counters are final when they are read.
					conn.Read(p, resp[:1])
				})
			}
		})
	}
	for i, m := range members {
		for g := 0; g < rrGroups; g++ {
			target := (i + 2*(g+1)) % nm
			dst := netsim.Addr{IP: members[target].IP, Port: rrPort}
			tmpl := templates[target]
			for k := 0; k < rrWorkers; k++ {
				st := m.Stack
				id := uint64(i*rrGroups*rrWorkers + g*rrWorkers + k)
				stagger := sim.Duration(rng.Int63n(int64(50 * sim.Millisecond)))
				w.Eng.Spawn("rr-client", func(p *sim.Proc) {
					defer func() { running--; ph.doneAt = p.Now() }()
					p.Sleep(stagger)
					req := make([]byte, rrReqLen)
					resp := make([]byte, rrRespLen)
					for q := 0; q < perWorker; q++ {
						t0 := p.Now()
						binary.BigEndian.PutUint64(req, id)
						binary.BigEndian.PutUint64(req[8:], uint64(q))
						conn, err := st.Dial(p, dst)
						if err != nil {
							r.fail(1, "worker %d request %d: dial: %v", id, q, err)
							continue
						}
						_, err = conn.Write(p, req)
						got := 0
						if err == nil {
							got, err = conn.ReadFull(p, resp)
						}
						conn.Close()
						ph.tcp.add(conn)
						switch {
						case err != nil:
							r.fail(1, "worker %d request %d: %v after %d bytes", id, q, err, got)
						case !bytes.Equal(resp[:rrReqLen], req) || !bytes.Equal(resp[rrReqLen:], tmpl[rrReqLen:]):
							r.fail(1, "worker %d request %d: response does not match the server's pattern", id, q)
						default:
							if firstByte == 0 {
								firstByte = p.Now()
							}
							lat = append(lat, p.Now().Sub(t0).Seconds()*1e3)
						}
					}
				})
			}
		}
	}
	budget := sim.Duration(perWorker)*rrReqBudget + 10*sim.Second
	if err := ph.drive(100*sim.Millisecond, budget, func() bool { return running == 0 }); err != nil {
		return err
	}
	ph.end()

	r.spans.begin("verify", "rep")
	defer r.spans.end("verify")
	r.SimSetupS = firstByte.Sub(r.applyT0).Seconds()
	r.Ops = uint64(len(lat))
	r.Attempted = r.Ops + r.Failed
	r.PayloadBytes = r.Ops * rrRespLen
	if want := uint64(nm * rrGroups * rrWorkers * perWorker); r.Attempted != want {
		return fmt.Errorf("%d requests accounted for, %d issued", r.Attempted, want)
	}
	if served < r.Ops {
		r.fail(r.Ops-served, "clients verified %d responses, servers wrote %d", r.Ops, served)
	}
	r.finish(lat)
	return nil
}
