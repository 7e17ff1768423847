package rendezvous

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"wavnet/internal/can"
	"wavnet/internal/netsim"
)

// A control message on the wire (README, "Control-plane wire format") is
// [Magic][kind:1][id:8][fields:4], big-endian, then each field the
// bitmap names, in bit order. A field is present exactly when it is not
// zero or empty and every number has one form, so a message has one
// encoding: Encode(Decode(b)) == b whenever Decode accepts b.

// Magic is the first byte of every control message. It comes from the
// Packet Assembler's number space (core's pa* constants), so a WAVNet
// socket demultiplexes control traffic by first byte like the rest.
const Magic = 0x1B

const headerLen = 1 + 1 + 8 + 4

// Kind is a control message's type.
type Kind uint8

// Message kinds between hosts and brokers, and between brokers.
const (
	KindJoin Kind = iota + 1
	KindJoinAck
	KindPulse
	KindPulseAck // broker -> host: session keepalive confirmed (or unknown)
	KindLookup
	KindLookupReply
	KindConnect    // host -> its broker: connect me to <name>
	KindIntroduce  // broker -> broker: introduce my host to yours
	KindIntroAck   // broker -> broker: here is my host's record
	KindPunchOrder // broker -> host: punch to this record
	KindError      // any -> requester
	KindGroupQuery // host -> broker: pick k mutually-near hosts
	KindGroupReply
	KindRTTReport  // host -> broker: measured RTTs to peers
	KindRelayOrder // broker -> host: unpunchable pair, tunnel via relay

	// Federation (broker <-> broker, see federation.go). Replication is
	// scoped: a record for network N travels only to brokers N's tenant
	// spec names, so a broker never learns about tenants it doesn't serve.
	KindReplicate     // home broker -> federated broker: scoped record copy
	KindWithdraw      // home broker -> federated broker: record expired/rescoped
	KindFwdConnect    // requester's broker -> target's home broker: broker the punch
	KindFwdConnectAck // target's home broker -> requester's broker
	KindPeerAllow     // broker -> federated broker: peering allowance propagation
	KindPeerRevoke
	KindBrokerPulse // broker -> federated broker: liveness keepalive

	// Tenant service VIPs (vip.go).
	KindVIPAnnounce  // host -> its broker: healthy backend
	KindVIPWithdraw  // host -> its broker: backend died/evicted
	KindVIPLookup    // host -> broker: who backs this service?
	KindVIPReply     //
	KindVIPReplicate // home broker -> federated broker: scoped copy
	KindVIPRetract   // home broker -> federated broker: record withdrawn
)

// Field bits of the header bitmap, in wire order.
const (
	fName uint32 = 1 << iota
	fNet
	fRec
	fPeer
	fRecords
	fCode
	fError
	fAttrs
	fNets
	fK
	fGroup
	fRTTs
	fRelayChan
	fRelayAddr
	fVIP
	fVIPs
	fService
)

// kinds is the one table of what exists on the wire: every kind's name
// and the fields a message of that kind may carry (ID rides in the
// header of all of them). The encoder panics on a message outside it —
// a handler bug — and the decoder rejects one.
var kinds = [...]struct {
	name   string
	fields uint32
}{
	KindJoin:          {"join", fRec},
	KindJoinAck:       {"join-ack", fRec},
	KindPulse:         {"pulse", fName},
	KindPulseAck:      {"pulse-ack", fName | fCode},
	KindLookup:        {"lookup", fName | fNet | fAttrs},
	KindLookupReply:   {"lookup-reply", fRecords},
	KindConnect:       {"connect", fName | fPeer},
	KindIntroduce:     {"introduce", fName | fRec},
	KindIntroAck:      {"intro-ack", fRec | fRelayChan | fRelayAddr},
	KindPunchOrder:    {"punch-order", fPeer},
	KindError:         {"error", fError | fCode},
	KindGroupQuery:    {"group-query", fName | fNet | fK},
	KindGroupReply:    {"group-reply", fGroup},
	KindRTTReport:     {"rtt-report", fName | fRTTs},
	KindRelayOrder:    {"relay-order", fPeer | fRelayChan | fRelayAddr},
	KindReplicate:     {"replicate", fRec},
	KindWithdraw:      {"withdraw", fName | fNet},
	KindFwdConnect:    {"fwd-connect", fName | fRec},
	KindFwdConnectAck: {"fwd-connect-ack", fRec | fRelayChan | fRelayAddr},
	KindPeerAllow:     {"peer-allow", fNets},
	KindPeerRevoke:    {"peer-revoke", fNets},
	KindBrokerPulse:   {"broker-pulse", 0},
	KindVIPAnnounce:   {"vip-announce", fName | fVIP},
	KindVIPWithdraw:   {"vip-withdraw", fName | fVIP},
	KindVIPLookup:     {"vip-lookup", fName | fNet | fService},
	KindVIPReply:      {"vip-reply", fVIPs},
	KindVIPReplicate:  {"vip-replicate", fVIP},
	KindVIPRetract:    {"vip-retract", fVIP},
}

func (k Kind) valid() bool { return int(k) < len(kinds) && kinds[k].name != "" }

// String names the kind as logs and docs spell it.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kinds[k].name
}

// Encode serializes a message into a fresh slice.
func Encode(m *Msg) []byte { return AppendMsg(nil, m) }

// AppendMsg appends m's encoding to b. It panics when m carries a field
// its kind's row of the table does not allow.
func AppendMsg(b []byte, m *Msg) []byte {
	if !m.Kind.valid() {
		panic("rendezvous: encoding a message of unknown " + m.Kind.String())
	}
	set := presence(m)
	if bad := set &^ kinds[m.Kind].fields; bad != 0 {
		panic(fmt.Sprintf("rendezvous: %v message carries fields %#x outside its mask", m.Kind, bad))
	}
	b = append(b, Magic, byte(m.Kind))
	w := wire{b: binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, m.ID), set)}
	if w.fields(m, set); w.bad {
		panic("rendezvous: rtt-report peers do not ascend")
	}
	return w.b
}

// Send encodes m straight into a buffer leased from the socket's
// network pool and transmits it: no slice per message, and m itself
// does not escape, so callers build it on their stack.
func Send(sock *netsim.UDPSocket, dst netsim.Addr, m *Msg) {
	pool := sock.Host().Network().Pool()
	buf := pool.Get(0)
	b := AppendMsg(buf.Data[:0], m)
	if len(b) > len(buf.Data) {
		// Outgrew the pool's small class: move to a buffer that fits.
		buf.Release()
		buf = pool.Get(len(b))
		b = buf.Data[:copy(buf.Data, b)]
	}
	sock.SendLease(dst, buf, b)
	buf.Release()
}

var errMalformed = errors.New("rendezvous: malformed control message")

// Peek reads the fixed header of a control message without decoding the
// rest, for a receiver that decides by kind and ID whether to.
func Peek(b []byte) (k Kind, id uint64, ok bool) {
	if len(b) < headerLen || b[0] != Magic {
		return 0, 0, false
	}
	return Kind(b[1]), binary.BigEndian.Uint64(b[2:]), true
}

// Decode parses a message into fresh storage the caller may keep.
func Decode(b []byte) (*Msg, error) { return new(Decoder).Decode(b) }

// Decoder decodes into one message it owns and reuses: each Decode
// overwrites the one before it, slices refilled in place and Rec, Peer
// and VIP pointing at records of the decoder's. Whoever is handed the
// message copies what it keeps before the next Decode — record Attrs
// and every slice (strings are immutable and may be kept).
type Decoder struct {
	m         Msg
	rec, peer *HostRecord // allocated when first needed
	vip       *VIPRecord
}

// Decode rejects an unknown kind, a field outside the kind's mask, a
// present field that is zero or empty, a count that cannot fit in the
// bytes that remain, an overrun and trailing bytes.
func (d *Decoder) Decode(b []byte) (*Msg, error) {
	kind, id, ok := Peek(b)
	if !ok || !kind.valid() {
		return nil, errMalformed
	}
	set := binary.BigEndian.Uint32(b[headerLen-4:])
	if set&^kinds[kind].fields != 0 {
		return nil, errMalformed
	}
	m := &d.m
	*m = Msg{Kind: kind, ID: id, Records: m.Records[:0], Attrs: m.Attrs[:0],
		Nets: m.Nets[:0], Group: m.Group[:0], VIPs: m.VIPs[:0]}
	if set&fRec != 0 {
		m.Rec = spare(&d.rec)
	}
	if set&fPeer != 0 {
		m.Peer = spare(&d.peer)
	}
	if set&fVIP != 0 {
		m.VIP = spare(&d.vip)
	}
	w := wire{b: b[headerLen:], mode: decoding}
	w.fields(m, set)
	if w.bad || len(w.b) != 0 || presence(m) != set {
		return nil, errMalformed
	}
	return m, nil
}

func spare[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Poison scribbles over everything the last Decode produced — the
// message, the records behind its pointers, the arrays behind its
// slices — so a handler that kept any of it past its return reads
// garbage. Servers and hosts call it after every handler when their
// network's pool is in poison mode (netsim.Pool.SetPoison): tests only.
func (d *Decoder) Poison() {
	w := wire{mode: poisoning}
	w.fields(&d.m, presence(&d.m))
	d.m.Kind, d.m.ID = 0xDB, math.MaxUint64
}

// presence is the header bitmap of m: a field is on the wire exactly
// when it is not zero or empty. The conditions are in bit order.
func presence(m *Msg) (set uint32) {
	for i, here := range [...]bool{m.Name != "", m.Net != "", m.Rec != nil, m.Peer != nil,
		len(m.Records) > 0, m.Code != "", m.Error != "", len(m.Attrs) > 0, len(m.Nets) > 0, m.K != 0,
		len(m.Group) > 0, len(m.RTTs) > 0, m.RelayChan != 0, !m.RelayAddr.IsZero(),
		m.VIP != nil, len(m.VIPs) > 0, m.Service != ""} {
		if here {
			set |= 1 << i
		}
	}
	return set
}

// wire walks a message's fields in wire order and, by mode, appends
// each to b, fills each in from b, or overwrites each with junk — one
// description of the layout for the encoder, the decoder and Poison.
// The first short or malformed read sets bad.
type wire struct {
	b    []byte
	mode uint8
	bad  bool
}

const (
	encoding = iota
	decoding
	poisoning
)

const junk = "\xdbpoisoned"

func (w *wire) fields(m *Msg, set uint32) {
	for bit := fName; bit <= fService; bit <<= 1 {
		switch set & bit {
		case fName:
			w.str(&m.Name)
		case fNet:
			w.str(&m.Net)
		case fRec:
			w.record(m.Rec)
		case fPeer:
			w.record(m.Peer)
		case fRecords:
			list(w, &m.Records, minRecordLen)
			for i := range m.Records {
				w.record(&m.Records[i])
			}
		case fCode:
			w.str(&m.Code)
		case fError:
			w.str(&m.Error)
		case fAttrs:
			w.point(&m.Attrs)
		case fNets:
			w.strs(&m.Nets)
		case fK:
			num(w, &m.K)
		case fGroup:
			w.strs(&m.Group)
		case fRTTs:
			list(w, &m.RTTs, 2)
			for i := range m.RTTs {
				// Peers ascend strictly: one order, no duplicates.
				w.str(&m.RTTs[i].Peer)
				w.bad = w.bad || (i > 0 && m.RTTs[i].Peer <= m.RTTs[i-1].Peer)
				num(w, &m.RTTs[i].NS)
			}
		case fRelayChan:
			w.fixed(&m.RelayChan, 8)
		case fRelayAddr:
			w.addr(&m.RelayAddr)
		case fVIP:
			w.vip(m.VIP)
		case fVIPs:
			list(w, &m.VIPs, minVIPLen)
			for i := range m.VIPs {
				w.vip(&m.VIPs[i])
			}
		case fService:
			w.str(&m.Service)
		}
	}
}

// The shortest encodings of a HostRecord and a VIPRecord.
const (
	minRecordLen = 1 + 6 + 1 + 1 + 6 + 1 + 1
	minVIPLen    = 1 + 1 + 4 + 1 + 1 + 1 + 1 + 6
)

// A record is all of its fields in declaration order.
func (w *wire) record(r *HostRecord) {
	w.str(&r.Name)
	w.addr(&r.Mapped)
	num(w, &r.NAT)
	w.point(&r.Attrs)
	w.addr(&r.Server)
	w.str(&r.Net)
	num(w, &r.VNI)
}

func (w *wire) vip(v *VIPRecord) {
	w.str(&v.Service)
	w.str(&v.Net)
	ip := uint64(v.VIP)
	w.fixed(&ip, 4)
	v.VIP = netsim.IP(ip)
	w.str(&v.Backend)
	w.str(&v.Host)
	num(w, &v.Order)
	w.str(&v.Policy)
	w.addr(&v.Server)
}

func (w *wire) take(n int) []byte {
	if w.bad || n > len(w.b) {
		w.bad = true
		return nil
	}
	p := w.b[:n]
	w.b = w.b[n:]
	return p
}

// fixed is the low n bytes of *v, big-endian.
func (w *wire) fixed(v *uint64, n int) {
	switch w.mode {
	case encoding:
		for i := n - 1; i >= 0; i-- {
			w.b = append(w.b, byte(*v>>(8*i)))
		}
	case decoding:
		*v = 0
		for _, c := range w.take(n) {
			*v = *v<<8 | uint64(c)
		}
	default:
		*v = math.MaxUint64
	}
}

// An address is four IP bytes and the port.
func (w *wire) addr(a *netsim.Addr) {
	v := uint64(a.IP)<<16 | uint64(a.Port)
	w.fixed(&v, 6)
	a.IP, a.Port = netsim.IP(v>>16), uint16(v)
}

// num is any other integer: a zigzag varint in its shortest form.
func num[T ~int | ~int64 | ~uint32](w *wire, v *T) {
	x := int64(*v)
	switch w.mode {
	case encoding:
		w.b = binary.AppendVarint(w.b, x)
	case decoding:
		var n int
		x, n = binary.Varint(w.b)
		// Short, overflowing, padded with a zero top group, too wide for T.
		if w.bad = w.bad || n <= 0 || (n > 1 && w.b[n-1] == 0) || int64(T(x)) != x; w.bad {
			return
		}
		w.b = w.b[n:]
	default:
		x = -1
	}
	*v = T(x)
}

// count is a length, have when not decoding. A length read is checked
// against the bytes left — each element takes at least min — before
// anything is sized by it.
func (w *wire) count(have, min int) int {
	if w.mode == poisoning {
		return have
	}
	num(w, &have)
	if w.mode == decoding && (w.bad || have < 0 || have > len(w.b)/min) {
		w.bad = true
		return 0
	}
	return have
}

// list is the length of *s; decoding sizes *s to it, reusing its array.
func list[T any](w *wire, s *[]T, min int) {
	n := w.count(len(*s), min)
	if w.mode == decoding {
		if cap(*s) < n {
			*s = make([]T, n)
		}
		*s = (*s)[:n]
	}
}

func (w *wire) str(s *string) {
	switch n := w.count(len(*s), 1); w.mode {
	case encoding:
		w.b = append(w.b, *s...)
	case decoding:
		*s = string(w.take(n))
	default:
		*s = junk
	}
}

func (w *wire) strs(ss *[]string) {
	list(w, ss, 1)
	for i := range *ss {
		w.str(&(*ss)[i])
	}
}

// A CAN point is the eight bytes of each coordinate's float64.
func (w *wire) point(p *can.Point) {
	list(w, (*[]float64)(p), 8)
	for i, x := range *p {
		v := math.Float64bits(x)
		w.fixed(&v, 8)
		(*p)[i] = math.Float64frombits(v)
	}
}
