// Package ipstack is the guest protocol stack that runs on top of the
// virtual link layer: ARP resolution, IPv4, ICMP echo, UDP sockets and a
// TCP Reno implementation with slow start, congestion avoidance, fast
// retransmit/recovery and RTO estimation.
//
// Every byte the paper's workloads (ping, ttcp, netperf, ApacheBench,
// MPI) move across WAVNet flows through this stack, over Ethernet frames,
// so the measured dynamics — bandwidth ramp-up, loss recovery, latency
// inflation under queueing — emerge from protocol behaviour rather than
// closed-form formulas.
//
// Deviations from wire-standard TCP/IP, chosen for simulation economy and
// documented here: header checksums are not computed (the simulated
// links do not corrupt bytes), the TCP header carries a 32-bit window (no
// window-scaling option), there is no IP fragmentation (senders respect
// the MTU), and TIME_WAIT is shortened to one second.
package ipstack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wavnet/internal/netsim"
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header sizes.
const (
	IPHeaderLen   = 20
	ICMPHeaderLen = 8
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
)

// ipv4Header is the decoded IPv4 header (no options).
type ipv4Header struct {
	TotalLen int
	TTL      uint8
	Proto    uint8
	Src, Dst netsim.IP
}

const defaultTTL = 64

// Every put* below writes its header into the front of b, which may be
// a recycled (dirty) buffer: each header byte is written, the unused
// ones as zero.

// putIPv4 writes the header of a packet whose total length is
// h.TotalLen into b[:IPHeaderLen].
func putIPv4(b []byte, h *ipv4Header) {
	b[0], b[1] = 0x45, 0
	binary.BigEndian.PutUint16(b[2:], uint16(h.TotalLen))
	binary.BigEndian.PutUint32(b[4:], 0)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:], uint32(h.Dst))
}

var (
	errShortIPv4 = errors.New("ipstack: short IPv4 packet")
	errNotIPv4   = errors.New("ipstack: not IPv4")
	errIPv4Len   = errors.New("ipstack: bad IPv4 length")
	errShortICMP = errors.New("ipstack: short ICMP")
	errShortUDP  = errors.New("ipstack: short UDP")
	errUDPLen    = errors.New("ipstack: bad UDP length")
	errShortTCP  = errors.New("ipstack: short TCP segment")
	errSACKCount = errors.New("ipstack: bad SACK count")
	errTCPLen    = errors.New("ipstack: bad TCP payload length")
)

func unmarshalIPv4(b []byte) (ipv4Header, []byte, error) {
	if len(b) < IPHeaderLen {
		return ipv4Header{}, nil, errShortIPv4
	}
	if b[0]>>4 != 4 {
		return ipv4Header{}, nil, errNotIPv4
	}
	h := ipv4Header{
		TotalLen: int(binary.BigEndian.Uint16(b[2:])),
		TTL:      b[8],
		Proto:    b[9],
		Src:      netsim.IP(binary.BigEndian.Uint32(b[12:])),
		Dst:      netsim.IP(binary.BigEndian.Uint32(b[16:])),
	}
	if h.TotalLen < IPHeaderLen || h.TotalLen > len(b) {
		return ipv4Header{}, nil, errIPv4Len
	}
	return h, b[IPHeaderLen:h.TotalLen], nil
}

// ICMP types.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

type icmpEcho struct {
	Type    uint8
	ID, Seq uint16
	Data    []byte
}

// putICMP writes the echo header into b[:ICMPHeaderLen]; the data
// follows it.
func putICMP(b []byte, typ uint8, id, seq uint16) {
	b[0], b[1], b[2], b[3] = typ, 0, 0, 0
	binary.BigEndian.PutUint16(b[4:], id)
	binary.BigEndian.PutUint16(b[6:], seq)
}

func unmarshalICMP(b []byte) (icmpEcho, error) {
	if len(b) < ICMPHeaderLen {
		return icmpEcho{}, errShortICMP
	}
	return icmpEcho{
		Type: b[0],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Data: b[ICMPHeaderLen:],
	}, nil
}

type udpHeader struct {
	Src, Dst uint16
	Len      int
}

// putUDP writes the header of a datagram carrying n payload bytes into
// b[:UDPHeaderLen].
func putUDP(b []byte, src, dst uint16, n int) {
	binary.BigEndian.PutUint16(b[0:], src)
	binary.BigEndian.PutUint16(b[2:], dst)
	binary.BigEndian.PutUint16(b[4:], uint16(UDPHeaderLen+n))
	b[6], b[7] = 0, 0
}

func unmarshalUDP(b []byte) (udpHeader, []byte, error) {
	if len(b) < UDPHeaderLen {
		return udpHeader{}, nil, errShortUDP
	}
	h := udpHeader{
		Src: binary.BigEndian.Uint16(b[0:]),
		Dst: binary.BigEndian.Uint16(b[2:]),
		Len: int(binary.BigEndian.Uint16(b[4:])),
	}
	if h.Len < UDPHeaderLen || h.Len > len(b) {
		return udpHeader{}, nil, errUDPLen
	}
	return h, b[UDPHeaderLen:h.Len], nil
}

// TCP flag bits.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
)

// maxSACKBlocks bounds the SACK ranges carried per ACK. Real TCP fits
// only 3-4 in the option space and compensates with block rotation
// across dup ACKs; we carry more blocks per ACK instead (the bytes are
// accounted on the wire), which converges to the same scoreboard.
const maxSACKBlocks = 16

// tcpSegment is the decoded form of this stack's TCP header: standard
// fields, a 32-bit advertised window in place of window scaling, and up
// to maxSACKBlocks SACK blocks carried inline (8 bytes each, after the
// fixed header). The blocks are held by value, sack[:nsack], so that a
// segment decoded on the stack stays there. A decoded segment's Payload
// aliases the wire; on output the payload is Payload followed by More
// (the two spans of a send ring).
type tcpSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Wnd              uint32
	Payload, More    []byte

	nsack int
	sack  [maxSACKBlocks][2]uint32
}

// SACK returns the segment's SACK blocks.
func (s *tcpSegment) SACK() [][2]uint32 { return s.sack[:s.nsack] }

// addSACK appends one block; blocks past maxSACKBlocks are dropped.
func (s *tcpSegment) addSACK(start, end uint32) {
	if s.nsack < maxSACKBlocks {
		s.sack[s.nsack] = [2]uint32{start, end}
		s.nsack++
	}
}

// wireLen is the segment's encoded size.
func (s *tcpSegment) wireLen() int {
	return TCPHeaderLen + 8*s.nsack + len(s.Payload) + len(s.More)
}

// putTCP encodes the segment into b[:s.wireLen()].
func putTCP(b []byte, s *tcpSegment) {
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], s.Seq)
	binary.BigEndian.PutUint32(b[8:], s.Ack)
	b[12] = s.Flags
	b[13] = byte(s.nsack)
	binary.BigEndian.PutUint32(b[14:], s.Wnd)
	binary.BigEndian.PutUint16(b[18:], uint16(len(s.Payload)+len(s.More)))
	off := TCPHeaderLen
	for _, blk := range s.SACK() {
		binary.BigEndian.PutUint32(b[off:], blk[0])
		binary.BigEndian.PutUint32(b[off+4:], blk[1])
		off += 8
	}
	off += copy(b[off:], s.Payload)
	copy(b[off:], s.More)
}

// unmarshalTCP decodes b into the caller's segment.
func unmarshalTCP(s *tcpSegment, b []byte) error {
	if len(b) < TCPHeaderLen {
		return errShortTCP
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = b[12]
	s.Wnd = binary.BigEndian.Uint32(b[14:])
	s.nsack = int(b[13])
	if s.nsack > maxSACKBlocks {
		return errSACKCount
	}
	plen := int(binary.BigEndian.Uint16(b[18:]))
	off := TCPHeaderLen
	if off+8*s.nsack+plen > len(b) {
		return errTCPLen
	}
	for i := 0; i < s.nsack; i++ {
		s.sack[i] = [2]uint32{
			binary.BigEndian.Uint32(b[off:]),
			binary.BigEndian.Uint32(b[off+4:]),
		}
		off += 8
	}
	s.Payload, s.More = b[off:off+plen], nil
	return nil
}

func (s *tcpSegment) has(flag uint8) bool { return s.Flags&flag != 0 }

func (s *tcpSegment) String() string {
	fl := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{flagSYN, "S"}, {flagACK, "."}, {flagFIN, "F"}, {flagRST, "R"}, {flagPSH, "P"}} {
		if s.has(f.bit) {
			fl += f.name
		}
	}
	return fmt.Sprintf("tcp %d->%d seq=%d ack=%d [%s] len=%d wnd=%d",
		s.SrcPort, s.DstPort, s.Seq, s.Ack, fl, len(s.Payload)+len(s.More), s.Wnd)
}

// Modular 32-bit sequence comparisons.
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
func seqMax(a, b uint32) uint32 {
	if seqGT(a, b) {
		return a
	}
	return b
}
