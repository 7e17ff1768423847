package trace_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"wavnet/internal/core"
	"wavnet/internal/ether"
	"wavnet/internal/trace"
)

// udpFrame wraps a UDP payload in hand-built IPv4+UDP headers inside
// an Ethernet frame, as the tracer sees WAVNet tunnel traffic on a
// physical NIC.
func udpFrame(payload []byte) *ether.Frame {
	b := make([]byte, 20+8+len(payload))
	b[0] = 4<<4 | 5                                // IPv4, IHL 5
	b[9] = 17                                      // UDP
	binary.BigEndian.PutUint32(b[12:], 0x0a000001) // 10.0.0.1
	binary.BigEndian.PutUint32(b[16:], 0x0a000002) // 10.0.0.2
	binary.BigEndian.PutUint16(b[20:], 4500)
	binary.BigEndian.PutUint16(b[22:], 4500)
	binary.BigEndian.PutUint16(b[24:], uint16(8+len(payload)))
	copy(b[28:], payload)
	return &ether.Frame{Src: ether.SeqMAC(1), Dst: ether.SeqMAC(2), Type: ether.TypeIPv4, Payload: b}
}

// arpAnnounce builds the gratuitous ARP the migration experiment
// watches for, as an inner tunneled frame.
func arpAnnounce() *ether.Frame {
	a := ether.ARP{Op: ether.ARPRequest, SenderMAC: ether.SeqMAC(9)}
	a.SenderIP = 0x0a010101
	a.TargetIP = 0x0a010101
	return &ether.Frame{Src: ether.SeqMAC(9), Dst: ether.Broadcast, Type: ether.TypeARP, Payload: a.Marshal()}
}

func TestSummarizeVNITaggedFrame(t *testing.T) {
	inner := arpAnnounce()
	r := trace.Record{Frame: udpFrame(core.AppendVNIFrame(nil, 42, inner))}
	line := r.String()
	if !strings.Contains(line, "WAVNet VNI 42 frame:") {
		t.Errorf("tagged frame line lacks VNI: %s", line)
	}
	if !strings.Contains(line, "ARP announce") {
		t.Errorf("inner frame not summarized: %s", line)
	}

	// The untagged legacy encapsulation still summarizes, without a VNI.
	r = trace.Record{Frame: udpFrame(core.AppendVNIFrame(nil, 0, inner))}
	line = r.String()
	if !strings.Contains(line, "WAVNet frame:") || strings.Contains(line, "VNI") {
		t.Errorf("untagged frame line wrong: %s", line)
	}
}

func TestSummarizeVNISetAnnouncement(t *testing.T) {
	b := make([]byte, 3+4*2)
	b[0] = 0x18 // paVNISet
	binary.BigEndian.PutUint16(b[1:], 2)
	binary.BigEndian.PutUint32(b[3:], 7)
	binary.BigEndian.PutUint32(b[7:], 99)
	line := (&trace.Record{Frame: udpFrame(b)}).String()
	if !strings.Contains(line, "WAVNet VNI-set announce [7 99]") {
		t.Errorf("VNI-set line wrong: %s", line)
	}
}

func TestSummarizeWAVNetMalformedAndForeign(t *testing.T) {
	// Truncated tag: reported as malformed, not crashed on.
	line := (&trace.Record{Frame: udpFrame([]byte{0x17, 0, 0})}).String()
	if !strings.Contains(line, "malformed") {
		t.Errorf("truncated tagged frame: %s", line)
	}
	// Truncated VNI-set.
	line = (&trace.Record{Frame: udpFrame([]byte{0x18, 0, 5})}).String()
	if !strings.Contains(line, "malformed") {
		t.Errorf("truncated VNI-set: %s", line)
	}
	// Non-WAVNet payloads keep the generic UDP line.
	line = (&trace.Record{Frame: udpFrame([]byte("hello"))}).String()
	if !strings.Contains(line, "UDP len 5") {
		t.Errorf("foreign payload line: %s", line)
	}
}
