package ether

import "wavnet/internal/sim"

// VNITable is a set of MAC learning tables keyed by VNI (virtual
// network identifier): one independent forwarding table per virtual
// network, so tenants with overlapping MAC or IP address spaces never
// share state. The WAV-Switch uses it to map (VNI, MAC) onto wide-area
// tunnels; a plain MACTable is the degenerate single-tenant case. Like
// MACTable it is a plain map, touched by one goroutine at a time.
type VNITable[P comparable] struct {
	eng     *sim.Engine
	ageTime sim.Duration
	tables  map[uint32]*MACTable[P]
}

// NewVNITable creates an empty per-VNI table set; ageTime <= 0 selects
// the MACTable default (300 s).
func NewVNITable[P comparable](eng *sim.Engine, ageTime sim.Duration) *VNITable[P] {
	return &VNITable[P]{eng: eng, ageTime: ageTime, tables: make(map[uint32]*MACTable[P])}
}

// Learn records that mac was seen on port within the given VNI, creating
// the VNI's table on first use.
func (t *VNITable[P]) Learn(vni uint32, mac MAC, port P) {
	tbl := t.tables[vni]
	if tbl == nil {
		tbl = NewMACTable[P](t.eng, t.ageTime)
		t.tables[vni] = tbl
	}
	tbl.Learn(mac, port)
}

// Lookup returns the port mac was last seen on within the VNI.
func (t *VNITable[P]) Lookup(vni uint32, mac MAC) (P, bool) {
	if tbl := t.tables[vni]; tbl != nil {
		return tbl.Lookup(mac)
	}
	var zero P
	return zero, false
}

// ForgetPort drops every entry pointing at port across all VNIs (used
// when a tunnel goes away).
func (t *VNITable[P]) ForgetPort(port P) {
	for _, tbl := range t.tables {
		tbl.ForgetPort(port)
	}
}

// DropVNI discards the whole table of one VNI (network deletion).
func (t *VNITable[P]) DropVNI(vni uint32) { delete(t.tables, vni) }
