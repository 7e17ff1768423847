// Package trace is the simulation's tcpdump: a transparent tap on any
// virtual NIC that records frames crossing it in both directions and
// renders them in a tcpdump-like text form. The paper uses tcpdump on
// the tap device to show that WAVNet tunnels the gratuitous ARP
// broadcast a VMM emits when live migration finishes (§III.C); the
// tracer reproduces that observation inside the simulated world.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Dir is the direction of a captured frame relative to the traced NIC.
type Dir int

// Frame directions.
const (
	In  Dir = iota // frame delivered to the NIC's owner
	Out            // frame sent by the NIC's owner
)

// String renders the direction as tcpdump does.
func (d Dir) String() string {
	if d == In {
		return "In "
	}
	return "Out"
}

// Record is one captured frame.
type Record struct {
	Time  sim.Time
	Dir   Dir
	Frame *ether.Frame
}

// String renders the record in a tcpdump-like single line.
func (r *Record) String() string {
	return fmt.Sprintf("%.6f %s %s", r.Time.Seconds(), r.Dir, summarize(r.Frame))
}

// summarize decodes just enough of a frame for a capture line.
func summarize(f *ether.Frame) string {
	switch f.Type {
	case ether.TypeARP:
		a, err := ether.UnmarshalARP(f.Payload)
		if err != nil {
			return fmt.Sprintf("ARP malformed (%d bytes)", len(f.Payload))
		}
		switch {
		case a.Op == ether.ARPRequest && a.SenderIP == a.TargetIP:
			// A gratuitous ARP announces a (possibly new) location.
			return fmt.Sprintf("ARP announce %s is-at %s", a.SenderIP, a.SenderMAC)
		case a.Op == ether.ARPRequest:
			return fmt.Sprintf("ARP request who-has %s tell %s", a.TargetIP, a.SenderIP)
		default:
			return fmt.Sprintf("ARP reply %s is-at %s", a.SenderIP, a.SenderMAC)
		}
	case ether.TypeIPv4:
		return summarizeIPv4(f.Payload)
	default:
		return fmt.Sprintf("ethertype 0x%04x %s > %s len %d", f.Type, f.Src, f.Dst, len(f.Payload))
	}
}

// IP protocol numbers the summarizer understands.
const (
	protoICMP = 1
	protoTCP  = 6
	protoUDP  = 17
)

func summarizeIPv4(b []byte) string {
	if len(b) < 20 || b[0]>>4 != 4 {
		return fmt.Sprintf("IP malformed (%d bytes)", len(b))
	}
	proto := b[9]
	src := netsim.IP(binary.BigEndian.Uint32(b[12:]))
	dst := netsim.IP(binary.BigEndian.Uint32(b[16:]))
	body := b[20:]
	switch proto {
	case protoICMP:
		kind := "icmp"
		if len(body) > 0 {
			switch body[0] {
			case 8:
				kind = "ICMP echo request"
			case 0:
				kind = "ICMP echo reply"
			}
		}
		return fmt.Sprintf("IP %s > %s: %s", src, dst, kind)
	case protoUDP:
		if len(body) >= 8 {
			sp := binary.BigEndian.Uint16(body[0:])
			dp := binary.BigEndian.Uint16(body[2:])
			if s, ok := summarizeWAVNet(body[8:]); ok {
				return fmt.Sprintf("IP %s.%d > %s.%d: %s", src, sp, dst, dp, s)
			}
			return fmt.Sprintf("IP %s.%d > %s.%d: UDP len %d", src, sp, dst, dp, len(body)-8)
		}
		return fmt.Sprintf("IP %s > %s: UDP malformed", src, dst)
	case protoTCP:
		if len(body) >= 20 {
			sp := binary.BigEndian.Uint16(body[0:])
			dp := binary.BigEndian.Uint16(body[2:])
			seq := binary.BigEndian.Uint32(body[4:])
			flags := tcpFlagString(body[12])
			return fmt.Sprintf("IP %s.%d > %s.%d: TCP [%s] seq %d", src, sp, dst, dp, flags, seq)
		}
		return fmt.Sprintf("IP %s > %s: TCP malformed", src, dst)
	default:
		return fmt.Sprintf("IP %s > %s: proto %d", src, dst, proto)
	}
}

// WAVNet Packet Assembler type bytes the summarizer understands (the
// tunnel encapsulations a capture inside a tenant actually sees; the
// full catalogue lives in internal/core).
const (
	paFrame       = 0x11 // untagged encapsulated Ethernet frame
	paFrameVNI    = 0x17 // VNI-tagged frame: [0x17][vni:4][frame]
	paVNISet      = 0x18 // VNI membership announcement: [0x18][n:2][vni:4]*n
	paVIPAnnounce = 0x19 // VIP health: [0x19][flags:1][vni:4][vip:4][mac:6][nameLen:1][name]
	paFrameBatch  = 0x1A // aggregated egress batch: [0x1A]([len:2][frame image])*
)

// summarizeWAVNet decodes the tunnel encapsulations of the WAVNet data
// plane riding inside a UDP datagram: plain and VNI-tagged frames
// (recursively summarizing the inner frame) and VNI-set announcements.
// It reports false for anything it does not recognize, leaving the
// generic UDP line to the caller.
func summarizeWAVNet(b []byte) (string, bool) {
	if len(b) == 0 {
		return "", false
	}
	switch b[0] {
	case paFrame, paFrameVNI:
		vni, f, err := core.UnmarshalVNIFrame(b)
		if err != nil {
			return fmt.Sprintf("WAVNet frame malformed (%d bytes)", len(b)), true
		}
		if vni == 0 {
			return "WAVNet frame: " + summarize(f), true
		}
		return fmt.Sprintf("WAVNet VNI %d frame: %s", vni, summarize(f)), true
	case paFrameBatch:
		var inner []string
		off := 1
		for off+2 <= len(b) {
			n := int(b[off])<<8 | int(b[off+1])
			off += 2
			if n == 0 || off+n > len(b) {
				return fmt.Sprintf("WAVNet batch malformed at +%d (%d bytes)", off, len(b)), true
			}
			s, ok := summarizeWAVNet(b[off : off+n])
			if !ok {
				s = fmt.Sprintf("unknown entry (%d bytes)", n)
			}
			inner = append(inner, s)
			off += n
		}
		return fmt.Sprintf("WAVNet batch x%d {%s}", len(inner), strings.Join(inner, "; ")), true
	case paVNISet:
		if len(b) < 3 {
			return fmt.Sprintf("WAVNet VNI-set malformed (%d bytes)", len(b)), true
		}
		n := int(binary.BigEndian.Uint16(b[1:]))
		if len(b) < 3+4*n {
			return fmt.Sprintf("WAVNet VNI-set malformed (%d bytes)", len(b)), true
		}
		vnis := make([]string, n)
		for i := 0; i < n; i++ {
			vnis[i] = fmt.Sprintf("%d", binary.BigEndian.Uint32(b[3+4*i:]))
		}
		return fmt.Sprintf("WAVNet VNI-set announce [%s]", strings.Join(vnis, " ")), true
	case paVIPAnnounce:
		if len(b) < 17 || len(b) < 17+int(b[16]) {
			return fmt.Sprintf("WAVNet VIP-announce malformed (%d bytes)", len(b)), true
		}
		health := "down"
		if b[1]&0x01 != 0 {
			health = "up"
		}
		vni := binary.BigEndian.Uint32(b[2:])
		vip := netsim.IP(binary.BigEndian.Uint32(b[6:]))
		var mac ether.MAC
		copy(mac[:], b[10:16])
		backend := string(b[17 : 17+int(b[16])])
		return fmt.Sprintf("WAVNet VNI %d VIP-announce %s backend %s (%s) %s",
			vni, vip, backend, mac, health), true
	default:
		return "", false
	}
}

func tcpFlagString(f byte) string {
	var sb strings.Builder
	for _, fl := range []struct {
		bit  byte
		name string
	}{{1 << 1, "S"}, {1 << 0, "F"}, {1 << 2, "R"}, {1 << 3, "P"}, {1 << 4, "."}} {
		if f&fl.bit != 0 {
			sb.WriteString(fl.name)
		}
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}

// Filter selects which frames a tracer keeps. Nil keeps everything.
type Filter func(*Record) bool

// ARPOnly keeps ARP frames (tcpdump "arp").
func ARPOnly(r *Record) bool { return r.Frame.Type == ether.TypeARP }

// GratuitousARPOnly keeps gratuitous ARP announcements — the frame the
// paper's migration experiment watches for.
func GratuitousARPOnly(r *Record) bool {
	if r.Frame.Type != ether.TypeARP {
		return false
	}
	a, err := ether.UnmarshalARP(r.Frame.Payload)
	return err == nil && a.Op == ether.ARPRequest && a.SenderIP == a.TargetIP
}

// Broadcast keeps frames addressed to the broadcast MAC.
func Broadcast(r *Record) bool { return r.Frame.Dst.IsBroadcast() }

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(r *Record) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}

// Tracer interposes on an ether.NIC, recording frames in both directions
// while remaining transparent to the NIC's owner. Attach it between a
// stack (or bridge port) and the link:
//
//	port := host.AttachVIF("vif1")
//	tap := trace.Attach(eng, "tcpdump-vif1", port)
//	stack := ipstack.New(eng, "guest", tap, mac, ip, cfg)
type Tracer struct {
	eng    *sim.Engine
	name   string
	nic    ether.NIC
	recv   func(*ether.Frame)
	filter Filter
	limit  int

	records []Record
	// Dropped counts frames not kept because of the capture limit (the
	// filter does not count: filtered frames were never wanted).
	Dropped uint64
}

// Attach wraps nic in a tracer. The tracer captures at most limit frames
// when SetLimit is used; by default capture is unbounded.
func Attach(eng *sim.Engine, name string, nic ether.NIC) *Tracer {
	t := &Tracer{eng: eng, name: name, nic: nic}
	nic.SetRecv(t.onRecv)
	return t
}

// SetFilter installs a capture filter (nil captures everything).
func (t *Tracer) SetFilter(f Filter) { t.filter = f }

// SetLimit caps the number of records kept (0 = unbounded); further
// frames still flow but are counted in Dropped.
func (t *Tracer) SetLimit(n int) { t.limit = n }

// Name returns the tracer's diagnostic name.
func (t *Tracer) Name() string { return t.name }

// Send implements ether.NIC: record, then forward outward.
func (t *Tracer) Send(f *ether.Frame) {
	t.record(Out, f)
	t.nic.Send(f)
}

// SetRecv implements ether.NIC: the owner's receive callback.
func (t *Tracer) SetRecv(fn func(*ether.Frame)) { t.recv = fn }

func (t *Tracer) onRecv(f *ether.Frame) {
	t.record(In, f)
	if t.recv != nil {
		t.recv(f)
	}
}

func (t *Tracer) record(d Dir, f *ether.Frame) {
	r := Record{Time: t.eng.Now(), Dir: d, Frame: f}
	if t.filter != nil && !t.filter(&r) {
		return
	}
	if t.limit > 0 && len(t.records) >= t.limit {
		t.Dropped++
		return
	}
	// The frame is only borrowed for this call: a capture keeps a copy.
	r.Frame = f.Clone()
	t.records = append(t.records, r)
}

// Records returns the captured frames in order.
func (t *Tracer) Records() []Record { return append([]Record(nil), t.records...) }

// Count reports the number of captured frames.
func (t *Tracer) Count() int { return len(t.records) }

// Reset discards the capture buffer.
func (t *Tracer) Reset() {
	t.records = nil
	t.Dropped = 0
}

// Find returns the first captured record matching f, if any.
func (t *Tracer) Find(f Filter) (Record, bool) {
	for i := range t.records {
		if f(&t.records[i]) {
			return t.records[i], true
		}
	}
	return Record{}, false
}

// WriteTo dumps the capture in text form, one line per frame.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for i := range t.records {
		n, err := fmt.Fprintln(w, t.records[i].String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

var _ ether.NIC = (*Tracer)(nil)
