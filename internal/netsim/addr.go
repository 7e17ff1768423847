// Package netsim models the physical Internet that WAVNet runs over: a
// set of geographical sites joined by a propagation-latency mesh, hosts
// and NAT gateways attached through rate-limited access links, and an
// unreliable UDP datagram service on top.
//
// The model captures exactly the quantities the paper's evaluation
// depends on — round-trip latency, bottleneck bandwidth (the `tc`-shaped
// links of the emulated WAN), queueing delay, jitter and loss — while
// remaining a deterministic discrete-event simulation.
package netsim

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// BroadcastIP is the limited-broadcast address 255.255.255.255, delivered
// to every stack on the local virtual LAN segment.
const BroadcastIP IP = 0xFFFFFFFF

// MakeIP assembles an address from its four dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(a)<<24 | IP(b)<<16 | IP(c)<<8 | IP(d)
}

// ParseIP parses a dotted-quad IPv4 string.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netsim: bad IP %q", s)
	}
	var ip IP
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("netsim: bad IP %q", s)
		}
		ip = ip<<8 | IP(v)
	}
	return ip, nil
}

// MustParseIP is ParseIP that panics on error; for constants in tests and
// scenario builders.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IsPrivate reports whether ip falls in the RFC 1918 ranges.
func (ip IP) IsPrivate() bool {
	switch {
	case ip>>24 == 10:
		return true
	case ip>>20 == 0xAC1: // 172.16.0.0/12
		return true
	case ip>>16 == 0xC0A8: // 192.168.0.0/16
		return true
	}
	return false
}

// Addr is a UDP endpoint address.
type Addr struct {
	IP   IP
	Port uint16
}

// String renders "ip:port".
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// IsZero reports whether a is the zero Addr.
func (a Addr) IsZero() bool { return a.IP == 0 && a.Port == 0 }

// udpIPHeaderBytes is the wire overhead of an IPv4+UDP header pair, added
// to every datagram's payload length to form its wire size.
const udpIPHeaderBytes = 28

// Packet is a UDP datagram in flight. Payload is the application bytes;
// Wire is the total size on the wire (set automatically when sent). A
// Packet passed to a receive handler, raw handler or hook is valid only
// for that call (see Buf for the ownership rule); Keep makes a copy
// that lasts.
type Packet struct {
	Src, Dst Addr
	Payload  []byte
	Wire     int

	// lease backs Payload when the sender leased its buffer; nil means
	// the bytes are caller-owned and never recycled.
	lease *Buf
	// pool is the free list a network-built Packet returns to; nil for
	// a literal handed to SendRaw, which is never recycled either.
	pool *Pool

	// Hop state: the transit the packet is on and how far along it is,
	// so each link crossing posts the packet itself instead of a
	// closure (see hop).
	from, to *Host
	stage    hopStage
}
