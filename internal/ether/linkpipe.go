package ether

import (
	"math/rand"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// LinkPipe is a point-to-point NIC pair with per-direction bandwidth,
// delay and a drop-tail queue — a crossover cable with realistic link
// dynamics. Useful for testing stacks in isolation and for modeling
// simple two-host segments without a full netsim topology.
type LinkPipe struct {
	A, B NIC
}

type linkEnd struct {
	link *netsim.Link
	peer *linkEnd
	recv func(*Frame)
	// Drops counts frames lost to the full queue.
	Drops uint64
}

func (e *linkEnd) Send(f *Frame) {
	if !e.link.Post(f.WireLen(), e.peer, f) {
		e.Drops++
		return
	}
	f.Retain()
}

// HandleEvent delivers a frame that crossed the link to this end.
func (e *linkEnd) HandleEvent(arg any) { handOff(e.recv, arg) }

func (e *linkEnd) SetRecv(fn func(*Frame)) { e.recv = fn }

// NewLinkPipe builds a full-duplex link with the given rate (bits/second,
// 0 = unlimited), one-way delay and queue capacity in bytes (0 = default).
func NewLinkPipe(eng *sim.Engine, rateBps float64, delay sim.Duration, queueBytes int) *LinkPipe {
	a := &linkEnd{link: netsim.NewLink(eng, rateBps, delay, queueBytes)}
	b := &linkEnd{link: netsim.NewLink(eng, rateBps, delay, queueBytes)}
	a.peer, b.peer = b, a
	return &LinkPipe{A: a, B: b}
}

// ImpairedNIC wraps a NIC and drops a fraction of frames in each
// direction — fault injection for protocol robustness tests.
type ImpairedNIC struct {
	inner    NIC
	rng      *rand.Rand
	LossRate float64
	recv     func(*Frame)
	// DroppedTx / DroppedRx count injected losses.
	DroppedTx, DroppedRx uint64
}

// Impair wraps nic with a random-loss fault injector.
func Impair(nic NIC, lossRate float64, rng *rand.Rand) *ImpairedNIC {
	im := &ImpairedNIC{inner: nic, rng: rng, LossRate: lossRate}
	nic.SetRecv(func(f *Frame) {
		if im.rng.Float64() < im.LossRate {
			im.DroppedRx++
			return
		}
		if im.recv != nil {
			im.recv(f)
		}
	})
	return im
}

// Send forwards the frame unless the loss draw eats it.
func (im *ImpairedNIC) Send(f *Frame) {
	if im.rng.Float64() < im.LossRate {
		im.DroppedTx++
		return
	}
	im.inner.Send(f)
}

// SetRecv registers the downstream receive handler.
func (im *ImpairedNIC) SetRecv(fn func(*Frame)) { im.recv = fn }
