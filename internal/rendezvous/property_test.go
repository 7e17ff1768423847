package rendezvous

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wavnet/internal/can"
	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// randMsg fills every field of a message from rng (kind left unset):
// strings of any bytes, empty ones included, so that restricting it to a
// kind's mask exercises absent and present forms of each field.
func randMsg(rng *rand.Rand) *Msg {
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	addr := func() netsim.Addr { return netsim.Addr{IP: netsim.IP(rng.Uint32()), Port: uint16(rng.Uint32())} }
	point := func() can.Point {
		p := make(can.Point, rng.Intn(4))
		for i := range p {
			// Any bits but a NaN's, which DeepEqual cannot compare;
			// FuzzDecode holds NaNs to the byte-for-byte property.
			if p[i] = math.Float64frombits(rng.Uint64()); math.IsNaN(p[i]) {
				p[i] = math.Inf(-1)
			}
		}
		return p
	}
	rec := func() HostRecord {
		return HostRecord{Name: str(), Mapped: addr(), NAT: nat.Type(rng.Intn(7) - 1), Attrs: point(),
			Server: addr(), Net: str(), VNI: rng.Uint32() >> uint(rng.Intn(32))}
	}
	vip := func() VIPRecord {
		return VIPRecord{Service: str(), Net: str(), VIP: netsim.IP(rng.Uint32()), Backend: str(), Host: str(),
			Order: rng.Intn(200) - 100, Policy: str(), Server: addr()}
	}
	strs := func() []string {
		ss := make([]string, rng.Intn(4))
		for i := range ss {
			ss[i] = str()
		}
		return ss
	}
	r, peer, v := rec(), rec(), vip()
	m := &Msg{ID: rng.Uint64(), Name: str(), Error: str(), Code: str(), Rec: &r, Peer: &peer, Net: str(),
		Nets: strs(), Attrs: point(), K: int(rng.Int63()>>uint(rng.Intn(64))) - 5, Group: strs(),
		RelayChan: rng.Uint64() >> uint(rng.Intn(65)), RelayAddr: addr(),
		VIP: &v, Service: str()}
	for n := rng.Intn(4); n > 0; n-- {
		m.Records = append(m.Records, rec())
		m.VIPs = append(m.VIPs, vip())
		// Ascending by construction: each peer extends the one before.
		m.RTTs = append(m.RTTs, PeerRTT{Peer: str() + "x", NS: rng.Int63() - rng.Int63()})
		if n := len(m.RTTs); n > 1 {
			m.RTTs[n-1].Peer = m.RTTs[n-2].Peer + m.RTTs[n-1].Peer
		}
	}
	return m
}

// restrict zeroes every field of m outside mask.
func restrict(m *Msg, mask uint32) *Msg {
	for bit, zero := range map[uint32]func(){
		fName: func() { m.Name = "" }, fNet: func() { m.Net = "" }, fRec: func() { m.Rec = nil },
		fPeer: func() { m.Peer = nil }, fRecords: func() { m.Records = nil }, fCode: func() { m.Code = "" },
		fError: func() { m.Error = "" }, fAttrs: func() { m.Attrs = nil }, fNets: func() { m.Nets = nil },
		fK: func() { m.K = 0 }, fGroup: func() { m.Group = nil }, fRTTs: func() { m.RTTs = nil },
		fRelayChan: func() { m.RelayChan = 0 }, fRelayAddr: func() { m.RelayAddr = netsim.Addr{} },
		fVIP: func() { m.VIP = nil }, fVIPs: func() { m.VIPs = nil }, fService: func() { m.Service = "" },
	} {
		if mask&bit == 0 {
			zero()
		}
	}
	return m
}

// normalize maps what the wire cannot tell apart onto one form: an
// empty slice or map is absent, like nil.
func normalize(m *Msg) *Msg {
	recs := []*HostRecord{m.Rec, m.Peer}
	for i := range m.Records {
		recs = append(recs, &m.Records[i])
	}
	for _, r := range recs {
		if r != nil && len(r.Attrs) == 0 {
			r.Attrs = nil
		}
	}
	restrict(m, presence(m))
	return m
}

// TestPropertyMsgRoundTrips: for every kind, a message carrying any
// subset of the fields its mask allows — Records, Group, RTTs, Peer,
// VIP, VIPs, Service and Code among them — decodes to what was encoded,
// from a fresh decoder and from a reused one alike.
func TestPropertyMsgRoundTrips(t *testing.T) {
	var reused Decoder
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for k := KindJoin; k.valid(); k++ {
			m := normalize(restrict(randMsg(rng), kinds[k].fields&rng.Uint32()))
			m.Kind = k
			wire := Encode(m)
			for _, decode := range []func([]byte) (*Msg, error){Decode, reused.Decode} {
				got, err := decode(wire)
				if err != nil {
					t.Logf("%v: %v", k, err)
					return false
				}
				if !bytes.Equal(Encode(got), wire) || !reflect.DeepEqual(normalize(got), m) {
					t.Logf("%v:\n sent %+v\n got  %+v", k, m, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		Decode(b) // error is fine; panic is not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLocatorMatrixStaysSymmetric(t *testing.T) {
	f := func(pairs []uint16, rttsRaw []uint32) bool {
		l := NewLocator()
		names := []string{"a", "b", "c", "d", "e", "f"}
		for i, pr := range pairs {
			if i >= len(rttsRaw) {
				break
			}
			x := names[int(pr)%len(names)]
			y := names[int(pr>>8)%len(names)]
			l.Report(x, y, sim.Duration(rttsRaw[i]%1e9))
		}
		m := l.Matrix()
		for i := range m {
			if m[i][i] != 0 {
				return false
			}
			for j := range m[i] {
				if m[i][j] != m[j][i] {
					return false
				}
			}
		}
		return len(l.Hosts()) == len(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelfReportIgnored(t *testing.T) {
	l := NewLocator()
	l.Report("a", "a", sim.Second)
	if len(l.Hosts()) != 0 {
		t.Fatalf("self-report created hosts: %v", l.Hosts())
	}
}
