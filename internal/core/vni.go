package core

import (
	"encoding/binary"
	"errors"

	"wavnet/internal/ether"
)

// VNI tagging: the Packet Assembler's tunnel encapsulation carries a
// virtual network identifier so many isolated virtual LANs can be
// multiplexed over one shared tunnel mesh (the multi-tenant VPC data
// plane). VNI 0 is the default network and stays on the untagged
// legacy wire format [paFrame][frame]; every other network rides
// [paFrameVNI][vni:4][frame]. A receiving host injects a frame only
// into the bridge of the matching VNI segment — a host with no segment
// for the tag drops the frame, which is what makes broadcast, ARP and
// unicast traffic unable to cross tenants even over shared tunnels.

// VNITagLen is the extra wire overhead of a tagged encapsulation
// relative to the untagged one.
const VNITagLen = 4

// Errors returned by the VNI frame codec.
var (
	ErrShortEncap  = errors.New("core: truncated frame encapsulation")
	ErrBadEncap    = errors.New("core: not a frame encapsulation")
	ErrReservedVNI = errors.New("core: tagged frame carries reserved VNI 0")
)

// AppendVNIFrame appends the frame's tunnel encapsulation to dst and
// returns the extended slice. A dst with enough capacity (VNIEncapLen
// beyond its length) makes the tag path allocation-free — the form the
// forwarding fast path uses with pooled buffers.
func AppendVNIFrame(dst []byte, vni uint32, f *ether.Frame) []byte {
	off, n := len(dst), VNIEncapLen(vni)+f.WireLen()
	if cap(dst)-off >= n {
		dst = dst[:off+n] // every byte is written below
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	wire := dst[off:]
	if vni == 0 {
		wire[0] = paFrame
		f.MarshalTo(wire[1:])
		return dst
	}
	wire[0] = paFrameVNI
	binary.BigEndian.PutUint32(wire[1:], vni)
	f.MarshalTo(wire[1+VNITagLen:])
	return dst
}

// VNIEncapLen is the encapsulation overhead ahead of the inner frame:
// one PA type byte, plus the tag for a non-default VNI.
func VNIEncapLen(vni uint32) int {
	if vni == 0 {
		return 1
	}
	return 1 + VNITagLen
}

// UnmarshalVNIFrameInto decodes a tunneled frame encapsulation (either
// wire format) into a caller-owned frame, returning the VNI it is tagged
// with. It allocates nothing; the frame payload aliases b.
func UnmarshalVNIFrameInto(f *ether.Frame, b []byte) (uint32, error) {
	if len(b) == 0 {
		return 0, ErrShortEncap
	}
	switch b[0] {
	case paFrame:
		if err := ether.UnmarshalFrameInto(f, b[1:]); err != nil {
			return 0, err
		}
		return 0, nil
	case paFrameVNI:
		if len(b) < 1+VNITagLen+ether.HeaderLen {
			return 0, ErrShortEncap
		}
		vni := binary.BigEndian.Uint32(b[1:])
		if vni == 0 {
			return 0, ErrReservedVNI
		}
		if err := ether.UnmarshalFrameInto(f, b[1+VNITagLen:]); err != nil {
			return 0, err
		}
		return vni, nil
	default:
		return 0, ErrBadEncap
	}
}
