package ether

import (
	"wavnet/internal/sim"
)

// NIC is the attachment point a protocol stack (or VM) binds to: it can
// transmit frames into the link layer and registers a callback for
// frames delivered to it.
type NIC interface {
	// Send injects a frame into the link layer. The frame is borrowed
	// for the call (see Frame).
	Send(f *Frame)
	// SetRecv registers the handler for frames arriving at this NIC;
	// each frame is valid only while the handler runs.
	SetRecv(fn func(f *Frame))
}

// Bridge is a software Ethernet bridge: MAC-learning, flooding, per-frame
// forwarding latency. It is the "dedicated virtual network bridge" of the
// paper's Figure 5 that joins VM vifs, the host stack and the WAVNet tap.
type Bridge struct {
	name    string
	ports   []*BridgePort
	fdb     *MACTable[*BridgePort]
	fwd     *sim.Lane // frames waiting out the forwarding latency
	nextIdx int

	// Stats.
	Forwarded uint64
	Flooded   uint64
	Dropped   uint64
}

// NewBridge creates a bridge with the given per-frame forwarding latency
// (the software processing cost; ~10 µs is typical for an in-kernel
// bridge).
func NewBridge(eng *sim.Engine, name string, fwdLatency sim.Duration) *Bridge {
	return &Bridge{
		name: name,
		fdb:  NewMACTable[*BridgePort](eng, 0),
		fwd:  eng.Lane(fwdLatency),
	}
}

// BridgePort is one attachment to a bridge; it implements NIC.
type BridgePort struct {
	bridge *Bridge
	name   string
	recv   func(*Frame)
	idx    int
	dead   bool
}

var _ NIC = (*BridgePort)(nil)

// AddPort attaches a new port.
func (b *Bridge) AddPort(name string) *BridgePort {
	p := &BridgePort{bridge: b, name: name, idx: b.nextIdx}
	b.nextIdx++
	b.ports = append(b.ports, p)
	return p
}

// RemovePort detaches a port (frames toward it are dropped; its MAC
// entries are flushed). Used when a VM vif is unplugged for migration.
func (b *Bridge) RemovePort(p *BridgePort) {
	p.dead = true
	b.fdb.ForgetPort(p)
	for i, q := range b.ports {
		if q == p {
			b.ports = append(b.ports[:i], b.ports[i+1:]...)
			return
		}
	}
}

// Bridge returns the bridge this port is attached to.
func (p *BridgePort) Bridge() *Bridge { return p.bridge }

// SetRecv registers the frame handler for this port's attached device.
func (p *BridgePort) SetRecv(fn func(*Frame)) { p.recv = fn }

// Send injects a frame from the attached device into the bridge.
func (p *BridgePort) Send(f *Frame) {
	if p.dead {
		return
	}
	p.bridge.input(p, f)
}

// input learns, then forwards or floods after the forwarding latency.
func (b *Bridge) input(in *BridgePort, f *Frame) {
	b.fdb.Learn(f.Src, in)
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		if out, ok := b.fdb.Lookup(f.Dst); ok {
			if out == in {
				b.Dropped++
				return
			}
			b.Forwarded++
			b.deliver(out, f)
			return
		}
	}
	// Flood: everyone but the ingress port.
	b.Flooded++
	for _, out := range b.ports {
		if out != in {
			b.deliver(out, f)
		}
	}
}

// deliver hands f to out after the forwarding latency, holding a
// reference for the wait.
func (b *Bridge) deliver(out *BridgePort, f *Frame) {
	f.Retain()
	b.fwd.Post((*portRx)(out), f)
}

// portRx is BridgePort as the receiver of its delivery events.
type portRx BridgePort

func (rx *portRx) HandleEvent(arg any) {
	recv := rx.recv
	if rx.dead {
		recv = nil
	}
	handOff(recv, arg)
}

// handOff ends a frame's wait in a delivery event: the frame goes to
// recv, if the receiving end still has one, and the reference held for
// the wait is dropped.
func handOff(recv func(*Frame), arg any) {
	f := arg.(*Frame)
	if recv != nil {
		recv(f)
	}
	f.Release()
}

// Pipe is a direct point-to-point NIC pair (a crossover cable), useful in
// tests and for attaching a stack straight to a tunnel endpoint without a
// bridge.
type Pipe struct {
	A, B NIC
}

type pipeEnd struct {
	wire *sim.Lane // frames in flight, either way
	peer *pipeEnd
	recv func(*Frame)
}

func (e *pipeEnd) Send(f *Frame) {
	f.Retain()
	e.wire.Post(e.peer, f)
}

// HandleEvent delivers a frame that crossed the pipe to this end.
func (e *pipeEnd) HandleEvent(arg any)     { handOff(e.recv, arg) }
func (e *pipeEnd) SetRecv(fn func(*Frame)) { e.recv = fn }

// NewPipe returns two NICs wired back-to-back with the given latency.
func NewPipe(eng *sim.Engine, latency sim.Duration) *Pipe {
	wire := eng.Lane(latency)
	a, b := &pipeEnd{wire: wire}, &pipeEnd{wire: wire}
	a.peer, b.peer = b, a
	return &Pipe{A: a, B: b}
}
