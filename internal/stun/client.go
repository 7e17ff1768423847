package stun

import (
	"errors"

	"wavnet/internal/nat"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// NATClass is the outcome of the RFC 3489 classification algorithm.
type NATClass int

// Classification results, in the order the algorithm distinguishes them.
const (
	ClassUDPBlocked NATClass = iota
	ClassOpenInternet
	ClassSymmetricFirewall
	ClassFullCone
	ClassRestrictedCone
	ClassPortRestrictedCone
	ClassSymmetric
)

// String names the class.
func (c NATClass) String() string {
	switch c {
	case ClassUDPBlocked:
		return "udp-blocked"
	case ClassOpenInternet:
		return "open-internet"
	case ClassSymmetricFirewall:
		return "symmetric-firewall"
	case ClassFullCone:
		return "full-cone"
	case ClassRestrictedCone:
		return "restricted-cone"
	case ClassPortRestrictedCone:
		return "port-restricted-cone"
	case ClassSymmetric:
		return "symmetric"
	}
	return "unknown"
}

// NATType maps the classification onto the nat package's behaviour enum
// (open-internet and firewall classes map to nat.None and nat.Symmetric
// respectively for punchability decisions).
func (c NATClass) NATType() nat.Type {
	switch c {
	case ClassFullCone:
		return nat.FullCone
	case ClassRestrictedCone:
		return nat.RestrictedCone
	case ClassPortRestrictedCone:
		return nat.PortRestrictedCone
	case ClassSymmetric, ClassSymmetricFirewall:
		return nat.Symmetric
	default:
		return nat.None
	}
}

// Result carries the classification and the external mapping observed on
// the primary test, which hole punching advertises to peers.
type Result struct {
	Class  NATClass
	Mapped netsim.Addr // external address seen by the server
	Local  netsim.Addr // the socket's local address
}

// Config tunes the client's retransmission behaviour.
type Config struct {
	Timeout sim.Duration // per-attempt wait (default 500 ms)
	Retries int          // attempts per test (default 3)
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 500 * sim.Millisecond
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	return c
}

// ErrBlocked is returned when no STUN response is received at all.
var ErrBlocked = errors.New("stun: no response (UDP blocked)")

// Classify runs the RFC 3489 NAT discovery algorithm from host against
// the given server, using a fresh ephemeral UDP socket. It must be called
// from a simulation process.
func Classify(p *sim.Proc, host *netsim.Host, server netsim.Addr, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	c, err := newClient(p, host, cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.close()

	// Test I: plain binding request to the primary address.
	r1, ok := c.test(server, 0)
	if !ok {
		return Result{Class: ClassUDPBlocked}, ErrBlocked
	}
	res := Result{Mapped: r1.Mapped, Local: c.local()}

	notNATed := r1.Mapped == c.local()

	// Test II: ask the server to reply from the alternate IP and port.
	_, okII := c.test(server, ChangeIP|ChangePort)

	if notNATed {
		if okII {
			res.Class = ClassOpenInternet
		} else {
			res.Class = ClassSymmetricFirewall
		}
		return res, nil
	}
	if okII {
		res.Class = ClassFullCone
		return res, nil
	}

	// Test I': plain request to the alternate address; a different
	// mapping means the NAT allocates per destination (symmetric).
	alt := r1.Changed
	if alt.IsZero() {
		return res, errors.New("stun: server did not provide CHANGED-ADDRESS")
	}
	r3, ok := c.test(alt, 0)
	if !ok {
		return res, errors.New("stun: alternate server address unreachable")
	}
	if r3.Mapped != r1.Mapped {
		res.Class = ClassSymmetric
		return res, nil
	}

	// Test III: reply from the same IP but the alternate port.
	if _, ok := c.test(server, ChangePort); ok {
		res.Class = ClassRestrictedCone
	} else {
		res.Class = ClassPortRestrictedCone
	}
	return res, nil
}

type client struct {
	p    *sim.Proc
	host *netsim.Host
	cfg  Config
	sock *netsim.UDPSocket
	inbx []netsim.Packet
	wq   sim.WaitQueue
	txid uint64
}

func newClient(p *sim.Proc, host *netsim.Host, cfg Config) (*client, error) {
	c := &client{p: p, host: host, cfg: cfg}
	sock, err := host.BindUDP(0, func(pkt netsim.Packet) {
		c.inbx = append(c.inbx, pkt.Keep())
		c.wq.Signal()
	})
	if err != nil {
		return nil, err
	}
	c.sock = sock
	return c, nil
}

func (c *client) local() netsim.Addr { return c.sock.LocalAddr() }
func (c *client) close()             { c.sock.Close() }

// test performs one STUN test with retransmission; ok=false on timeout.
func (c *client) test(dst netsim.Addr, change uint8) (*Message, bool) {
	c.txid++
	var tx [16]byte
	tx[0] = byte(c.txid >> 8)
	tx[1] = byte(c.txid)
	req := &Message{Type: TypeBindingRequest, TxID: tx, Change: change}
	wire := req.Marshal()

	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		c.sock.SendTo(dst, wire)
		deadline := c.p.Now().Add(c.cfg.Timeout)
		for {
			// Drain queued packets first.
			for len(c.inbx) > 0 {
				pkt := c.inbx[0]
				c.inbx = c.inbx[1:]
				resp, err := Unmarshal(pkt.Payload)
				if err != nil || resp.Type != TypeBindingResponse || resp.TxID != tx {
					continue
				}
				return resp, true
			}
			remain := deadline.Sub(c.p.Now())
			if remain <= 0 {
				break
			}
			fired := false
			timer := sim.NewTimer(c.p.Engine(), func() { fired = true; c.p.Interrupt() })
			timer.Reset(remain)
			woke := c.wq.Wait(c.p)
			timer.Stop()
			if fired {
				// Our own deadline interrupt: consume it.
				c.p.ClearInterrupt()
			}
			if !woke {
				if !fired {
					// External interrupt: abandon the whole test so the
					// stop request propagates to the caller promptly.
					return nil, false
				}
				break // retransmit on the next attempt
			}
		}
	}
	return nil, false
}
