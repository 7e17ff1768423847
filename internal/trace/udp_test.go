package trace_test

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"wavnet/internal/ether"
	"wavnet/internal/trace"
)

// udpFrame wraps a UDP payload in hand-built IPv4+UDP headers inside
// an Ethernet frame.
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

// TestSummarizeUDPPayloadIsOpaque: a tracer wraps an ether.NIC and
// tunnels ride netsim sockets, so a UDP payload it sees is a tenant's
// bytes and is never decoded, whatever its first byte — including the
// ones that open a WAVNet tunnel packet.
func TestSummarizeUDPPayloadIsOpaque(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte("hello"),
		{0x11, 0, 0},    // the untagged-frame type byte
		{0x18, 0, 0},    // the VNI-set type byte
		{0x1A, 0, 1, 0}, // the batch type byte
	} {
		line := (&trace.Record{Frame: udpFrame(payload)}).String()
		want := "IP 10.0.0.1.4500 > 10.0.0.2.4500: UDP len " + strconv.Itoa(len(payload))
		if !strings.HasSuffix(line, want) {
			t.Errorf("payload % x: %q, want suffix %q", payload, line, want)
		}
	}
}
