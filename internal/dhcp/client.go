package dhcp

import (
	"errors"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Client states.
type clientState int

const (
	stateInit clientState = iota
	stateSelecting
	stateRequesting
	stateBound
	stateRenewing
)

// ClientConfig tunes a DHCP client.
type ClientConfig struct {
	// Tries bounds DISCOVER and REQUEST retransmissions (default 4).
	Tries int
}

// retryBase is the first retransmission interval; it doubles per try
// (1+2+4+8 s for four tries).
const retryBase = sim.Second

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Tries <= 0 {
		c.Tries = 4
	}
	return c
}

// Errors returned by Acquire.
var (
	ErrNoOffer = errors.New("dhcp: no offer received")
	ErrNoAck   = errors.New("dhcp: request went unanswered")
	ErrNak     = errors.New("dhcp: server refused the request")
)

// Client obtains and maintains one address lease for its stack. The
// stack usually starts unconfigured (IP 0.0.0.0); Acquire assigns the
// leased address with SetIP and starts the renewal loop.
type Client struct {
	stack *ipstack.Stack
	eng   *sim.Engine
	cfg   ClientConfig
	sock  *ipstack.UDPSock

	state    clientState
	xid      uint32
	offer    *Message
	ack      *Message
	waiter   *sim.Proc
	bound    bool
	boundAt  sim.Time
	leaseFor sim.Duration
	renewTk  *sim.Ticker

	// Stats.
	DiscoversSent, RequestsSent uint64
	OffersRecv, AcksRecv        uint64
	NaksRecv                    uint64
	Renewals                    uint64
}

// NewClient creates a client on stack (binds UDP port 68).
func NewClient(stack *ipstack.Stack, cfg ClientConfig) (*Client, error) {
	c := &Client{stack: stack, eng: stack.Engine(), cfg: cfg.withDefaults()}
	sock, err := stack.BindUDP(ClientPort, c.onDatagram)
	if err != nil {
		return nil, err
	}
	c.sock = sock
	return c, nil
}

// Acquire runs the DISCOVER/OFFER/REQUEST/ACK handshake, blocking the
// process until the stack is configured or the retry budget is spent.
// On success the stack's IP is set and a renewal loop keeps the lease.
func (c *Client) Acquire(p *sim.Proc) (netsim.IP, error) {
	// Phase 1: DISCOVER until an OFFER arrives.
	c.xid = uint32(c.eng.Rand().Int63())
	c.state = stateSelecting
	c.offer = nil
	c.waiter = p
	if !c.retryUntil(p, func() {
		c.DiscoversSent++
		c.send(&Message{
			Op:     opRequest,
			XID:    c.xid,
			Flags:  broadcastFlag,
			CHAddr: c.stack.MAC(),
			Type:   Discover,
		})
	}, func() bool { return c.offer != nil }) {
		c.state = stateInit
		c.waiter = nil
		return 0, ErrNoOffer
	}

	// Phase 2: REQUEST the offered address until ACK or NAK (a NAK
	// clears c.offer, which doubles as the "stop retrying" signal).
	c.state = stateRequesting
	c.ack = nil
	offered := c.offer
	if !c.retryUntil(p, func() {
		c.RequestsSent++
		c.send(&Message{
			Op:          opRequest,
			XID:         c.xid,
			Flags:       broadcastFlag,
			CHAddr:      c.stack.MAC(),
			Type:        Request,
			RequestedIP: offered.YIAddr,
			ServerID:    offered.ServerID,
		})
	}, func() bool { return c.ack != nil || c.offer == nil }) {
		c.state = stateInit
		c.waiter = nil
		return 0, ErrNoAck
	}
	c.waiter = nil
	if c.ack == nil {
		c.state = stateInit
		return 0, ErrNak
	}

	// Bound: configure the stack and schedule renewal at T1 = lease/2.
	c.state = stateBound
	c.bound = true
	c.boundAt = c.eng.Now()
	c.leaseFor = sim.Duration(c.ack.LeaseSecs) * sim.Second
	c.stack.SetIP(c.ack.YIAddr)
	c.startRenewal()
	return c.ack.YIAddr, nil
}

// retryUntil fires send, then waits with exponential backoff until ok()
// or the try budget is exhausted.
func (c *Client) retryUntil(p *sim.Proc, send func(), ok func() bool) bool {
	wait := retryBase
	for try := 0; try < c.cfg.Tries; try++ {
		send()
		if !p.WaitUntil(c.eng.Now().Add(wait), ok) || ok() {
			return ok()
		}
		wait *= 2
	}
	return ok()
}

// startRenewal arms a ticker at T1 (half the lease) that unicasts a
// renewal REQUEST to the leasing server. A missed renewal falls back to
// rediscovery on the next tick.
func (c *Client) startRenewal() {
	if c.renewTk != nil {
		c.renewTk.Stop()
	}
	t1 := c.leaseFor / 2
	if t1 <= 0 {
		return
	}
	c.renewTk = sim.NewTicker(c.eng, t1, func() {
		if !c.bound {
			return
		}
		c.state = stateRenewing
		c.Renewals++
		c.RequestsSent++
		// RENEWING: unicast to the server, address in ciaddr, no server id.
		resp := &Message{
			Op:     opRequest,
			XID:    c.xid,
			CIAddr: c.stack.IP(),
			CHAddr: c.stack.MAC(),
			Type:   Request,
		}
		c.sendTo(netsim.Addr{IP: c.ack.ServerID, Port: ServerPort}, resp)
	})
}

// Release gives the lease back and deconfigures the stack.
func (c *Client) Release() {
	if !c.bound {
		return
	}
	c.sendTo(netsim.Addr{IP: c.ack.ServerID, Port: ServerPort}, &Message{
		Op:     opRequest,
		XID:    c.xid,
		CIAddr: c.stack.IP(),
		CHAddr: c.stack.MAC(),
		Type:   Release,
	})
	if c.renewTk != nil {
		c.renewTk.Stop()
		c.renewTk = nil
	}
	c.bound = false
	c.state = stateInit
	c.stack.SetIP(0)
}

// Close releases the client port (the lease, if any, simply expires).
func (c *Client) Close() {
	if c.renewTk != nil {
		c.renewTk.Stop()
		c.renewTk = nil
	}
	c.sock.Close()
}

func (c *Client) send(m *Message) {
	c.sendTo(netsim.Addr{IP: netsim.BroadcastIP, Port: ServerPort}, m)
}

func (c *Client) sendTo(dst netsim.Addr, m *Message) {
	// Send errors (closed socket during shutdown) are not actionable here.
	_ = c.sock.SendTo(dst, m.Marshal())
}

func (c *Client) onDatagram(d ipstack.Datagram) {
	m, err := Unmarshal(d.Payload)
	if err != nil || m.Op != opReply || m.XID != c.xid || m.CHAddr != c.stack.MAC() {
		return
	}
	switch m.Type {
	case Offer:
		c.OffersRecv++
		if c.state == stateSelecting && c.offer == nil {
			c.offer = m
			if c.waiter != nil {
				c.waiter.Unpark()
			}
		}
	case Ack:
		c.AcksRecv++
		switch c.state {
		case stateRequesting:
			c.ack = m
			if c.waiter != nil {
				c.waiter.Unpark()
			}
		case stateRenewing:
			c.state = stateBound
			c.boundAt = c.eng.Now()
			if m.LeaseSecs != 0 {
				granted := sim.Duration(m.LeaseSecs) * sim.Second
				if granted != c.leaseFor {
					// The server changed the lease; re-pace T1.
					c.leaseFor = granted
					c.startRenewal()
				}
			}
		}
	case Nak:
		c.NaksRecv++
		switch c.state {
		case stateRequesting:
			c.offer = nil
			if c.waiter != nil {
				c.waiter.Unpark()
			}
		case stateRenewing:
			// Lost the lease: deconfigure; the owner must re-Acquire.
			c.bound = false
			c.state = stateInit
			c.stack.SetIP(0)
			if c.renewTk != nil {
				c.renewTk.Stop()
				c.renewTk = nil
			}
		}
	}
}
