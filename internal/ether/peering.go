package ether

import (
	"sort"

	"wavnet/internal/netsim"
)

// Prefix is an IPv4 prefix used by peering policy: frames may cross
// from one VNI into another only when their destination address falls
// inside an allowed prefix.
type Prefix struct {
	IP   netsim.IP
	Bits int
}

// Mask returns the prefix's netmask.
func (p Prefix) Mask() netsim.IP {
	if p.Bits <= 0 {
		return 0
	}
	return netsim.IP(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip netsim.IP) bool { return ip&p.Mask() == p.IP&p.Mask() }

// PeeringTable is the inter-VNI gateway policy of the WAV-Switch path:
// a directed rule (from, into) permits frames tagged with VNI `from` to
// be re-injected into the local segment of VNI `into`, but only when
// the frame's destination address matches one of the rule's prefixes.
// An empty prefix list allows every destination (the callers normally
// pass the target network's CIDR instead).
type PeeringTable struct {
	rules map[[2]uint32][]Prefix
	// peersCache memoizes PeersOf per VNI: the flood path consults it
	// for every broadcast frame, while rules change only on (re)apply.
	peersCache map[uint32][]uint32
}

// NewPeeringTable returns an empty policy table.
func NewPeeringTable() *PeeringTable {
	return &PeeringTable{rules: make(map[[2]uint32][]Prefix)}
}

// Allow installs (replacing any previous rule) the directed rule
// permitting frames from `from` into `into` for the given destination
// prefixes.
func (t *PeeringTable) Allow(from, into uint32, prefixes []Prefix) {
	t.rules[[2]uint32{from, into}] = append([]Prefix(nil), prefixes...)
	t.peersCache = nil
}

// Revoke removes the directed rule (from, into).
func (t *PeeringTable) Revoke(from, into uint32) {
	delete(t.rules, [2]uint32{from, into})
	t.peersCache = nil
}

// Allows reports whether a frame tagged `from` with destination dst may
// be injected into the segment of `into`.
func (t *PeeringTable) Allows(from, into uint32, dst netsim.IP) bool {
	ps, ok := t.rules[[2]uint32{from, into}]
	if !ok {
		return false
	}
	if len(ps) == 0 {
		return true
	}
	for _, p := range ps {
		if p.Contains(dst) {
			return true
		}
	}
	return false
}

// Routes returns the VNIs reachable from `from` (the rule targets),
// sorted for deterministic gateway iteration.
func (t *PeeringTable) Routes(from uint32) []uint32 {
	var out []uint32
	for key := range t.rules {
		if key[0] == from {
			out = append(out, key[1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeersOf returns every VNI linked to v by a rule in either direction,
// sorted. The result is memoized until the next Allow/Revoke/DropVNI —
// callers must not mutate it.
func (t *PeeringTable) PeersOf(v uint32) []uint32 {
	if t.peersCache == nil {
		t.peersCache = make(map[uint32][]uint32)
	} else if cached, ok := t.peersCache[v]; ok {
		return cached
	}
	seen := make(map[uint32]bool)
	for key := range t.rules {
		if key[0] == v {
			seen[key[1]] = true
		}
		if key[1] == v {
			seen[key[0]] = true
		}
	}
	out := make([]uint32, 0, len(seen))
	for vni := range seen {
		out = append(out, vni)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	t.peersCache[v] = out
	return out
}

// DropVNI removes every rule touching v in either role (used when a
// host leaves the virtual network).
func (t *PeeringTable) DropVNI(v uint32) {
	for key := range t.rules {
		if key[0] == v || key[1] == v {
			delete(t.rules, key)
		}
	}
	t.peersCache = nil
}
