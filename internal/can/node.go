package can

import (
	"errors"
	"fmt"
	"sort"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Dims is the dimensionality of the coordinate space.
const Dims = 2

// Node timing and routing constants.
const (
	heartbeatPeriod = 5 * sim.Second // neighbor hello interval
	failAfter       = 3              // heartbeats missed before takeover
	rpcTimeout      = 3 * sim.Second // client request timeout
	maxHops         = 64             // routing TTL
)

type neighborInfo struct {
	addr     netsim.Addr
	zones    []Zone
	lastSeen sim.Time
	// neighborAddrs is the neighbor's own neighbor list from its last
	// hello, used to greet bereaved peers after a failure takeover.
	neighborAddrs []netsim.Addr
}

// pendingReq is one request awaiting its reply; its timer, armed in
// place, times it out.
type pendingReq struct {
	n     *Node
	id    uint64
	cb    func(*wireMsg, error)
	timer sim.Timer
}

// HandleEvent fails the request: no reply came within rpcTimeout.
func (pr *pendingReq) HandleEvent(any) {
	delete(pr.n.pending, pr.id)
	pr.cb(nil, errors.New("can: request timed out"))
}

// Node is one CAN participant (a WAVNet rendezvous server). All methods
// must be called from simulation context.
type Node struct {
	sock *netsim.UDPSocket
	eng  *sim.Engine

	active    bool
	zones     []Zone
	resources map[string]*Resource
	neighbors map[netsim.Addr]*neighborInfo

	pending map[uint64]*pendingReq
	nextID  uint64

	hbEv *sim.Event

	// Stats.
	RouteForwards uint64
	RouteFails    uint64
	MsgsIn        uint64
	MsgsOut       uint64
	Takeovers     uint64
}

// NewNode binds a CAN node to a UDP port on host. The node is inactive
// until Bootstrap or Join.
func NewNode(host *netsim.Host, port uint16) (*Node, error) {
	n := &Node{
		eng:       host.Engine(),
		resources: make(map[string]*Resource),
		neighbors: make(map[netsim.Addr]*neighborInfo),
		pending:   make(map[uint64]*pendingReq),
	}
	sock, err := host.BindUDP(port, n.onPacket)
	if err != nil {
		return nil, err
	}
	n.sock = sock
	return n, nil
}

// Addr returns the node's overlay address.
func (n *Node) Addr() netsim.Addr { return n.sock.LocalAddr() }

// Active reports whether the node currently owns any zone.
func (n *Node) Active() bool { return n.active }

// Close tears the node down abruptly, a crash: the socket is released,
// the heartbeat stops, and all zone and resource state is discarded.
// Neighbors discover the death through their own missed-hello
// detection and take its zones over. A fresh node may rebind the port.
func (n *Node) Close() {
	n.active = false
	n.zones = nil
	n.resources = make(map[string]*Resource)
	n.neighbors = make(map[netsim.Addr]*neighborInfo)
	if n.hbEv != nil {
		n.eng.Cancel(n.hbEv)
		n.hbEv = nil
	}
	n.sock.Close()
}

// Bootstrap makes this node the first member, owning the whole space.
func (n *Node) Bootstrap() {
	n.zones = []Zone{FullZone(Dims)}
	n.active = true
	n.startHeartbeat()
}

// Join contacts a seed node and acquires a zone; cb runs with the outcome.
func (n *Node) Join(seed netsim.Addr, cb func(error)) {
	point := make(Point, Dims)
	for i := range point {
		point[i] = n.eng.Rand().Float64()
	}
	id := n.newRPC(func(m *wireMsg, err error) {
		if err != nil {
			cb(err)
			return
		}
		n.zones = m.Zones
		for _, r := range m.Resources {
			r := r
			n.resources[r.ID] = &r
		}
		n.active = true
		now := n.eng.Now()
		for _, nb := range m.Neighbors {
			if n.adjacentToMe(nb.Zones) {
				n.neighbors[nb.Addr] = &neighborInfo{addr: nb.Addr, zones: nb.Zones, lastSeen: now}
			}
		}
		n.startHeartbeat()
		n.sendHellos()
		cb(nil)
	})
	n.send(seed, &wireMsg{
		Kind:   kindJoinRoute,
		ID:     id,
		Origin: n.Addr(),
		Target: point,
	})
}

// Put stores (or refreshes) a resource at the owner of its key point.
// ttl of zero means no expiry.
func (n *Node) Put(res Resource, ttl sim.Duration, cb func(error)) {
	if !res.Key.Valid() || len(res.Key) != Dims {
		cb(fmt.Errorf("can: invalid key %v", res.Key))
		return
	}
	if ttl > 0 {
		res.Expires = int64(n.eng.Now().Add(ttl))
	}
	id := n.newRPC(func(m *wireMsg, err error) { cb(err) })
	n.route(&wireMsg{
		Kind:     kindPut,
		ID:       id,
		Origin:   n.Addr(),
		Target:   res.Key,
		Resource: &res,
	})
}

// LookupResult is the answer to a Lookup: the owner of the queried point
// and every live resource it stores.
type LookupResult struct {
	Owner     netsim.Addr
	Resources []Resource
	Hops      int
}

// Lookup routes to the owner of point and returns its resource set.
func (n *Node) Lookup(point Point, cb func(LookupResult, error)) {
	if !point.Valid() || len(point) != Dims {
		cb(LookupResult{}, fmt.Errorf("can: invalid point %v", point))
		return
	}
	id := n.newRPC(func(m *wireMsg, err error) {
		if err != nil {
			cb(LookupResult{}, err)
			return
		}
		cb(LookupResult{Owner: m.Origin, Resources: m.Resources, Hops: m.Hops}, nil)
	})
	n.route(&wireMsg{
		Kind:   kindLookup,
		ID:     id,
		Origin: n.Addr(),
		Target: point,
	})
}

func (n *Node) sortedNeighbors() []*neighborInfo {
	out := make([]*neighborInfo, 0, len(n.neighbors))
	for _, nb := range n.neighbors {
		out = append(out, nb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].addr.IP != out[j].addr.IP {
			return out[i].addr.IP < out[j].addr.IP
		}
		return out[i].addr.Port < out[j].addr.Port
	})
	return out
}

func (n *Node) neighborWires() []neighborWire {
	var ws []neighborWire
	for _, nb := range n.sortedNeighbors() {
		ws = append(ws, neighborWire{Addr: nb.addr, Zones: nb.zones})
	}
	return ws
}

func (n *Node) adjacentToMe(zones []Zone) bool { return anyAdjacent(n.zones, zones) }

// ---- messaging ----

func (n *Node) send(to netsim.Addr, m *wireMsg) {
	n.MsgsOut++
	n.sock.SendTo(to, encode(m))
}

func (n *Node) newRPC(cb func(*wireMsg, error)) uint64 {
	n.nextID++
	id := n.nextID
	pr := &pendingReq{n: n, id: id, cb: cb}
	pr.timer.Init(n.eng, pr)
	pr.timer.Reset(rpcTimeout)
	n.pending[id] = pr
	return id
}

func (n *Node) resolveRPC(id uint64, m *wireMsg) {
	pr, ok := n.pending[id]
	if !ok {
		return
	}
	pr.timer.Stop()
	delete(n.pending, id)
	if m.Kind == kindError {
		pr.cb(nil, errors.New("can: "+m.Err))
		return
	}
	pr.cb(m, nil)
}

func (n *Node) onPacket(pkt netsim.Packet) {
	m, err := decode(pkt.Payload)
	if err != nil {
		return
	}
	n.MsgsIn++
	switch m.Kind {
	case kindJoinRoute:
		n.route(m)
	case kindPut, kindLookup:
		n.route(m)
	case kindJoinReply, kindPutAck, kindLookupReply, kindError:
		n.resolveRPC(m.ID, m)
	case kindHello:
		n.onHello(pkt.Src, m)
	}
}

// route delivers m locally if a zone of ours contains the target, else
// greedily forwards toward it.
func (n *Node) route(m *wireMsg) {
	if !n.active {
		n.replyError(m, "node inactive")
		return
	}
	if anyContains(n.zones, m.Target) {
		n.handleLocal(m)
		return
	}
	m.Hops++
	if m.Hops > maxHops {
		n.RouteFails++
		n.replyError(m, "hop limit exceeded")
		return
	}
	// A neighbor that owns the point outright wins immediately; this also
	// resolves boundary points, whose distance to several zones is zero.
	for _, nb := range n.sortedNeighbors() {
		if anyContains(nb.zones, m.Target) {
			n.RouteForwards++
			n.send(nb.addr, m)
			return
		}
	}
	// Greedy step with a strict lexicographic (edge distance, center
	// distance) improvement, which guarantees progress even along zone
	// boundaries where edge distances tie at zero.
	var best *neighborInfo
	bestD := minDistToZones(n.zones, m.Target)
	bestC := n.centerDist(n.zones, m.Target)
	for _, nb := range n.sortedNeighbors() {
		d := minDistToZones(nb.zones, m.Target)
		c := n.centerDist(nb.zones, m.Target)
		if d < bestD || (d == bestD && c < bestC) {
			best, bestD, bestC = nb, d, c
		}
	}
	if best == nil {
		n.RouteFails++
		n.replyError(m, "routing dead end")
		return
	}
	n.RouteForwards++
	n.send(best.addr, m)
}

// centerDist is the smallest distance from a zone center to the target.
func (n *Node) centerDist(zones []Zone, p Point) float64 {
	best := 2.0
	for _, z := range zones {
		if d := Dist(z.Center(), p); d < best {
			best = d
		}
	}
	return best
}

func (n *Node) replyError(m *wireMsg, why string) {
	if m.ID != 0 && !m.Origin.IsZero() {
		n.send(m.Origin, &wireMsg{Kind: kindError, ID: m.ID, Err: why})
	}
}

// handleLocal executes a routed request at the owner.
func (n *Node) handleLocal(m *wireMsg) {
	switch m.Kind {
	case kindJoinRoute:
		n.handleJoin(m)
	case kindPut:
		r := *m.Resource
		n.resources[r.ID] = &r
		n.send(m.Origin, &wireMsg{Kind: kindPutAck, ID: m.ID})
	case kindLookup:
		n.expireResources()
		reply := &wireMsg{Kind: kindLookupReply, ID: m.ID, Origin: n.Addr(), Hops: m.Hops}
		for _, r := range n.resources {
			reply.Resources = append(reply.Resources, *r)
		}
		sort.Slice(reply.Resources, func(i, j int) bool { return reply.Resources[i].ID < reply.Resources[j].ID })
		n.send(m.Origin, reply)
	}
}

func (n *Node) expireResources() {
	now := int64(n.eng.Now())
	for id, r := range n.resources {
		if r.Expires != 0 && r.Expires < now {
			delete(n.resources, id)
		}
	}
}

// handleJoin splits the zone containing the join point and hands the half
// containing it (with its resources and our neighbor set) to the joiner.
func (n *Node) handleJoin(m *wireMsg) {
	zi := -1
	for i, z := range n.zones {
		if z.Contains(m.Target) {
			zi = i
			break
		}
	}
	if zi < 0 {
		n.replyError(m, "join point not owned")
		return
	}
	lower, upper := n.zones[zi].Split(n.zones[zi].LongestDim())
	mine, theirs := lower, upper
	if theirs.Contains(m.Target) {
		// Joiner takes the half with its point.
	} else {
		mine, theirs = upper, lower
	}
	n.zones[zi] = mine

	reply := &wireMsg{
		Kind:  kindJoinReply,
		ID:    m.ID,
		Zones: []Zone{theirs},
	}
	// Hand over resources falling in the joiner's half.
	for id, r := range n.resources {
		if theirs.Contains(r.Key) {
			reply.Resources = append(reply.Resources, *r)
			delete(n.resources, id)
		}
	}
	sort.Slice(reply.Resources, func(i, j int) bool { return reply.Resources[i].ID < reply.Resources[j].ID })
	// Advertise our neighbors plus ourselves.
	reply.Neighbors = append(n.neighborWires(), neighborWire{Addr: n.Addr(), Zones: n.zones})
	n.send(m.Origin, reply)

	// The joiner becomes our neighbor; our zone shrank, so refresh
	// everyone and drop the no-longer-adjacent.
	n.neighbors[m.Origin] = &neighborInfo{addr: m.Origin, zones: []Zone{theirs}, lastSeen: n.eng.Now()}
	n.pruneNeighbors()
	n.sendHellos()
}

func (n *Node) pruneNeighbors() {
	for addr, nb := range n.neighbors {
		if !n.adjacentToMe(nb.zones) {
			delete(n.neighbors, addr)
		}
	}
}

// onHello refreshes (or establishes) a neighbor relationship, and drops
// cached entries the sender's zones prove stale (e.g. a dead node whose
// area the sender has taken over).
func (n *Node) onHello(src netsim.Addr, m *wireMsg) {
	if !n.active {
		return
	}
	for addr, other := range n.neighbors {
		if addr != src && zonesOverlap(other.zones, m.Zones) {
			delete(n.neighbors, addr)
		}
	}
	if !n.adjacentToMe(m.Zones) {
		delete(n.neighbors, src)
		return
	}
	nb, ok := n.neighbors[src]
	if !ok {
		nb = &neighborInfo{addr: src}
		n.neighbors[src] = nb
	}
	nb.zones = m.Zones
	nb.lastSeen = n.eng.Now()
	nb.neighborAddrs = nb.neighborAddrs[:0]
	for _, w := range m.Neighbors {
		nb.neighborAddrs = append(nb.neighborAddrs, w.Addr)
	}
}

// adoptZones merges new zones into our set, coalescing rectangles where
// possible.
func (n *Node) adoptZones(zones []Zone) {
	n.zones = append(n.zones, zones...)
	for {
		merged := false
	outer:
		for i := 0; i < len(n.zones); i++ {
			for j := i + 1; j < len(n.zones); j++ {
				if mz, ok := n.zones[i].MergeableWith(n.zones[j]); ok {
					n.zones[i] = mz
					n.zones = append(n.zones[:j], n.zones[j+1:]...)
					merged = true
					break outer
				}
			}
		}
		if !merged {
			return
		}
	}
}

// ---- heartbeats & failure handling ----

// startHeartbeat begins the jittered hello/failure-detection loop. The
// ±10% jitter decorrelates detectors so one neighbor claims a dead zone
// first and its hellos (which carry the new zone set) stop the rest.
func (n *Node) startHeartbeat() {
	if n.hbEv != nil {
		n.eng.Cancel(n.hbEv)
	}
	var tick func()
	schedule := func() {
		j := 1 + (n.eng.Rand().Float64()*0.2 - 0.1)
		d := sim.Duration(float64(heartbeatPeriod) * j)
		n.hbEv = n.eng.Schedule(d, tick)
	}
	tick = func() {
		if !n.active {
			return
		}
		n.sendHellos()
		n.checkDead()
		schedule()
	}
	schedule()
}

func (n *Node) sendHellos() {
	msg := &wireMsg{Kind: kindHello, Origin: n.Addr(), Zones: n.zones, Neighbors: n.neighborWires()}
	for _, nb := range n.sortedNeighbors() {
		n.send(nb.addr, msg)
	}
}

func (n *Node) checkDead() {
	cutoff := n.eng.Now().Add(-failAfter * heartbeatPeriod)
	for addr, nb := range n.neighbors {
		if nb.lastSeen < cutoff {
			// Takeover: adopt the dead neighbor's last known zones, then
			// greet its former neighbors so they cancel their own claims.
			delete(n.neighbors, addr)
			n.Takeovers++
			n.adoptZones(nb.zones)
			now := n.eng.Now()
			for _, peer := range nb.neighborAddrs {
				if peer == n.Addr() {
					continue
				}
				if _, known := n.neighbors[peer]; !known {
					n.neighbors[peer] = &neighborInfo{addr: peer, lastSeen: now}
				}
			}
			n.sendHellos()
		}
	}
}
