// Package ether provides the link-layer building blocks of WAVNet's
// virtual LAN: Ethernet frame and ARP codecs, a software bridge with MAC
// learning (the Linux bridge of the paper's Figure 5), and the generic
// learning table the WAV-Switch reuses to map MACs onto wide-area
// tunnels.
package ether

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"unsafe"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// key packs the address into the integer MACTable's maps are keyed by:
// the runtime hashes a uint64 key inline, a six-byte array through the
// general memory hash.
func (m MAC) key() uint64 {
	return uint64(binary.LittleEndian.Uint32(m[:])) | uint64(binary.LittleEndian.Uint16(m[4:]))<<32
}

// SeqMAC returns a locally-administered unicast MAC derived from a
// sequence number, for deterministic address assignment.
func SeqMAC(n uint32) MAC {
	return MAC{0x02, 0x57, 0x41, byte(n >> 16), byte(n >> 8), byte(n)} // 02:57:41 = "WA"
}

// EtherType values used on the virtual LAN.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
)

// HeaderLen is the Ethernet header size (no FCS is modeled).
const HeaderLen = 14

// Frame is a link-layer frame. Payload is not copied by the bridge;
// receivers must treat frames as immutable. A frame passed to NIC.Send
// or to a receive handler is valid only for that call: a callee that
// needs it later calls Retain before returning and Release when done,
// or keeps a Clone (see netsim.Buf for the ownership rule). Frames built
// as plain literals carry no lease, stay caller-owned and are never
// recycled, so for them Retain and Release do nothing.
type Frame struct {
	Dst, Src MAC
	Type     uint16
	Payload  []byte

	// lease backs Payload — and holds this struct — for frames made by
	// NewFrame; nil for caller-owned literals. It is never cleared: a
	// Release that comes after the lease has ended reaches the buffer
	// and panics there as the double release it is.
	lease *netsim.Buf
}

// parked is what ether leaves on a leased buffer (netsim.Buf.Parked):
// the Frame structs carved from it so far. They stay with the buffer
// when it goes back to its pool and are handed out again, in order,
// under its next lease, so steady-state framing allocates nothing.
type parked struct {
	gen    uint32 // lease the first used frames were handed out under
	used   int
	frames []*Frame

	// Most buffers carry one packet: the first frame and its slot are
	// part of this struct, so parking costs one allocation.
	first Frame
	slot  [1]*Frame
}

// frameBytes is what one more parked frame adds to a buffer's weight.
const frameBytes = int(unsafe.Sizeof(Frame{}) + unsafe.Sizeof((*Frame)(nil)))

// NewFrame returns a zero frame whose payload will lie inside the
// leased buffer b. The struct is parked on the buffer and recycled with
// it, so the frame lives exactly as long as the caller (or whoever
// Retains it) holds b. A nil b gives an ordinary caller-owned frame.
func NewFrame(b *netsim.Buf) *Frame {
	if b == nil {
		return new(Frame)
	}
	p, _ := b.Parked.(*parked)
	if p == nil {
		p = new(parked)
		p.slot[0] = &p.first
		p.frames = p.slot[:]
		b.Parked = p
		b.ParkedBytes += int(unsafe.Sizeof(*p))
	}
	if g := b.Gen(); p.gen != g {
		p.gen, p.used = g, 0
	}
	if p.used == len(p.frames) {
		p.frames = append(p.frames, new(Frame))
		b.ParkedBytes += frameBytes
	}
	f := p.frames[p.used]
	p.used++
	*f = Frame{lease: b}
	return f
}

// Lease returns the lease backing the frame, nil for caller-owned ones.
func (f *Frame) Lease() *netsim.Buf { return f.lease }

// Retain keeps the frame valid past the current call.
func (f *Frame) Retain() {
	if f.lease != nil {
		f.lease.Retain()
	}
}

// Release ends one Retain (or the creator's own hold).
func (f *Frame) Release() {
	if f.lease != nil {
		f.lease.Release()
	}
}

// Clone returns a caller-owned deep copy, for consumers that keep
// frames indefinitely (captures, logs).
func (f *Frame) Clone() *Frame {
	return &Frame{Dst: f.Dst, Src: f.Src, Type: f.Type, Payload: append([]byte(nil), f.Payload...)}
}

// WireLen returns the frame's size on the wire.
func (f *Frame) WireLen() int { return HeaderLen + len(f.Payload) }

// Marshal encodes the frame for tunneling.
func (f *Frame) Marshal() []byte {
	b := make([]byte, HeaderLen+len(f.Payload))
	f.MarshalTo(b)
	return b
}

// MarshalTo encodes the frame into b, which must hold at least
// WireLen() bytes, and returns the number of bytes written. It lets
// encapsulations prepend their own headers without a second copy.
func (f *Frame) MarshalTo(b []byte) int {
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	binary.BigEndian.PutUint16(b[12:14], f.Type)
	copy(b[HeaderLen:], f.Payload)
	return HeaderLen + len(f.Payload)
}

// UnmarshalFrame decodes a tunneled frame. The payload aliases b.
func UnmarshalFrame(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := UnmarshalFrameInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// UnmarshalFrameInto decodes a tunneled frame into a caller-owned
// Frame, allocating nothing. The payload aliases b.
func UnmarshalFrameInto(f *Frame, b []byte) error {
	if len(b) < HeaderLen {
		return errShortFrame
	}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.Type = binary.BigEndian.Uint16(b[12:14])
	f.Payload = b[HeaderLen:]
	return nil
}

var errShortFrame = errors.New("ether: short frame")

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an ARP packet for IPv4-over-Ethernet. Gratuitous ARP (the
// mechanism that re-points peers after VM live migration) sets
// SenderIP == TargetIP and broadcasts.
type ARP struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  netsim.IP
	TargetMAC MAC
	TargetIP  netsim.IP
}

const arpLen = 28

// Marshal encodes the ARP packet (fixed Ethernet/IPv4 hardware and
// protocol types).
func (a *ARP) Marshal() []byte {
	b := make([]byte, arpLen)
	binary.BigEndian.PutUint16(b[0:], 1)      // HTYPE Ethernet
	binary.BigEndian.PutUint16(b[2:], 0x0800) // PTYPE IPv4
	b[4], b[5] = 6, 4                         // HLEN, PLEN
	binary.BigEndian.PutUint16(b[6:], a.Op)
	copy(b[8:14], a.SenderMAC[:])
	binary.BigEndian.PutUint32(b[14:], uint32(a.SenderIP))
	copy(b[18:24], a.TargetMAC[:])
	binary.BigEndian.PutUint32(b[24:], uint32(a.TargetIP))
	return b
}

// UnmarshalARP decodes an ARP packet.
func UnmarshalARP(b []byte) (*ARP, error) {
	if len(b) < arpLen {
		return nil, errors.New("ether: short ARP")
	}
	a := &ARP{
		Op:       binary.BigEndian.Uint16(b[6:]),
		SenderIP: netsim.IP(binary.BigEndian.Uint32(b[14:])),
		TargetIP: netsim.IP(binary.BigEndian.Uint32(b[24:])),
	}
	copy(a.SenderMAC[:], b[8:14])
	copy(a.TargetMAC[:], b[18:24])
	return a, nil
}

// GratuitousARP builds the broadcast announcement a VMM injects when a
// migrated VM resumes.
func GratuitousARP(mac MAC, ip netsim.IP) *Frame {
	arp := &ARP{Op: ARPRequest, SenderMAC: mac, SenderIP: ip, TargetMAC: MAC{}, TargetIP: ip}
	return &Frame{Dst: Broadcast, Src: mac, Type: TypeARP, Payload: arp.Marshal()}
}

// MACTable is a learning table with entry aging, generic over the port
// type so both the software bridge and the WAV-Switch can use it. Like
// everything in a world it is touched by one goroutine at a time (see
// sim.Engine), so it is a plain map updated in place: a refresh
// overwrites the entry, a new MAC inserts one, and an entry older than
// AgeTime misses and is deleted by the Lookup that finds it so.
type MACTable[P comparable] struct {
	eng     *sim.Engine
	AgeTime sim.Duration
	entries map[uint64]macEntry[P]
}

type macEntry[P comparable] struct {
	port P
	seen sim.Time // the last Learn
}

// NewMACTable creates a table; ageTime <= 0 selects 300 s (the Linux
// bridge default).
func NewMACTable[P comparable](eng *sim.Engine, ageTime sim.Duration) *MACTable[P] {
	if ageTime <= 0 {
		ageTime = 300 * sim.Second
	}
	return &MACTable[P]{eng: eng, AgeTime: ageTime, entries: make(map[uint64]macEntry[P])}
}

// Learn records that mac was seen on port. Refreshing a known MAC
// allocates nothing.
func (t *MACTable[P]) Learn(mac MAC, port P) {
	if mac.IsMulticast() {
		return
	}
	t.entries[mac.key()] = macEntry[P]{port: port, seen: t.eng.Now()}
}

// Lookup returns the port mac was last seen on, if the entry is fresh.
func (t *MACTable[P]) Lookup(mac MAC) (P, bool) {
	k := mac.key()
	if e, ok := t.entries[k]; ok {
		if t.eng.Now().Sub(e.seen) <= t.AgeTime {
			return e.port, true
		}
		delete(t.entries, k)
	}
	var zero P
	return zero, false
}

// ForgetPort drops every entry pointing at port (used when a tunnel or
// bridge port goes away).
func (t *MACTable[P]) ForgetPort(port P) {
	maps.DeleteFunc(t.entries, func(_ uint64, e macEntry[P]) bool { return e.port == port })
}
