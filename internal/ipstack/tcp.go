package ipstack

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// TCP connection states (RFC 793, TIME_WAIT shortened).
type connState int

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosing
	stateTimeWait
	stateClosed
)

func (s connState) String() string {
	names := []string{"SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1", "FIN_WAIT_2",
		"CLOSE_WAIT", "LAST_ACK", "CLOSING", "TIME_WAIT", "CLOSED"}
	if int(s) < len(names) {
		return names[s]
	}
	return "?"
}

// Errors surfaced by TCP operations.
var (
	ErrConnReset   = errors.New("ipstack: connection reset")
	ErrConnClosed  = errors.New("ipstack: connection closed")
	ErrConnTimeout = errors.New("ipstack: connection timed out")
	ErrRefused     = errors.New("ipstack: connection refused")
)

const (
	initialRTO = sim.Second
	minRTO     = 200 * sim.Millisecond
	maxRTO     = 60 * sim.Second
	timeWait   = sim.Second
	maxSynTry  = 6
	maxRtxTry  = 12
	// maxBurstSegs bounds segments emitted per ACK/doorbell (like
	// Linux's tcp_limit_output): it stops window-sized line-rate bursts
	// from repeatedly overflowing shallow bottleneck queues.
	maxBurstSegs = 10
)

type connKey struct {
	localPort  uint16
	remoteIP   netsim.IP
	remotePort uint16
}

// Conn is a TCP connection. All methods taking a *sim.Proc block that
// process; the rest run in event context.
type Conn struct {
	stack  *Stack
	key    connKey
	state  connState
	local  netsim.Addr
	remote netsim.Addr
	lis    *Listener // non-nil until accepted

	mss int

	// Send side. The first byte of snd corresponds to sequence sndUna
	// once established (the SYN consumed iss).
	iss            uint32
	sndUna, sndNxt uint32
	snd            ring
	sndClosed      bool
	finSent        bool
	finAcked       bool
	finSeq         uint32
	cwnd, ssthresh float64
	peerWnd        uint32
	dupAcks        int
	inRecovery     bool
	recover        uint32
	rtxTimer       sim.Timer
	rtxTries       int
	backoff        int
	tlpTimer       sim.Timer
	tlpOut         bool
	srtt, rttvar   sim.Duration
	rto            sim.Duration
	rttPending     bool
	rttSeq         uint32
	rttTime        sim.Time
	persistTimer   sim.Timer
	timeWaitTimer  sim.Timer
	// SACK scoreboard: sorted, disjoint [start,end) ranges the peer has
	// acknowledged above sndUna.
	sacked [][2]uint32
	// Loss marking (fast recovery and RTO share it): sequences below
	// lostBelow not covered by the scoreboard are considered lost and
	// excluded from the pipe; [sndUna, rtxUntil) has been retransmitted
	// once and counts again. lostBelow == sndUna means nothing is marked.
	lostBelow uint32
	rtxUntil  uint32

	// Receive side.
	rcvNxt uint32
	rcv    ring
	// ooo is the out-of-order stash: sorted, disjoint, non-adjacent runs,
	// so it doubles as the SACK block set.
	ooo         []oooRun
	peerFin     bool
	peerFinSeq  uint32
	peerFinDone bool
	lastAdvWnd  uint32

	// App wait queues.
	readWq, writeWq, connWq sim.WaitQueue

	err error

	// Stats.
	BytesIn, BytesOut uint64
	SegsIn, SegsOut   uint64
	Retransmits       uint64
	FastRetransmits   uint64
	TailProbes        uint64
	Timeouts          uint64
	DupAcksSeen       uint64
}

// oooRun is one contiguous range [seq, end) of out-of-order bytes, held
// as the pieces of the segments that brought them, in order. A piece
// holds a reference on the lease its bytes lie in — the stash keeps
// segments, it does not copy them.
type oooRun struct {
	seq, end uint32
	pieces   []oooPiece
}

type oooPiece struct {
	data  []byte
	lease *netsim.Buf
}

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	stack *Stack
	port  uint16
	// backlog[head:] are established and not yet accepted, oldest first;
	// the slice starts over from its front whenever it runs empty, so a
	// listener that keeps up keeps the one small backing array.
	backlog []*Conn
	head    int
	wq      sim.WaitQueue
	closed  bool
}

// Listen binds a TCP listener.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if port == 0 {
		p, err := s.allocPort()
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("ipstack %s: TCP port %d in use", s.name, port)
	}
	l := &Listener{stack: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection completes the handshake.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	for l.head == len(l.backlog) {
		if l.closed {
			return nil, ErrConnClosed
		}
		if !l.wq.Wait(p) {
			return nil, ErrConnClosed
		}
	}
	c := l.backlog[l.head]
	l.backlog[l.head] = nil
	if l.head++; l.head == len(l.backlog) {
		l.backlog, l.head = l.backlog[:0], 0
	}
	c.lis = nil
	return c, nil
}

// Close stops the listener and resets the connections still waiting to
// be accepted: nobody can reach them any more, and they would hold their
// buffers for ever.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.port)
	for _, c := range l.backlog[l.head:] {
		c.Abort()
	}
	l.backlog, l.head = nil, 0
	l.wq.Broadcast()
}

// Dial opens a connection to remote and blocks until established.
func (s *Stack) Dial(p *sim.Proc, remote netsim.Addr) (*Conn, error) {
	port, err := s.allocPort()
	if err != nil {
		return nil, err
	}
	c := s.newConn(connKey{port, remote.IP, remote.Port}, stateSynSent)
	c.iss = s.eng.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.lostBelow, c.rtxUntil, c.recover = c.sndUna, c.sndUna, c.sndUna
	c.sendSeg(&tcpSegment{Flags: flagSYN, Seq: c.iss, Wnd: c.advWnd()})
	c.armRTX()
	for c.state != stateEstablished && c.err == nil {
		if !c.connWq.Wait(p) {
			return nil, ErrConnClosed
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

func (s *Stack) newConn(key connKey, st connState) *Conn {
	c := &Conn{
		stack:    s,
		key:      key,
		state:    st,
		local:    netsim.Addr{IP: s.ip, Port: key.localPort},
		remote:   netsim.Addr{IP: key.remoteIP, Port: key.remotePort},
		mss:      s.cfg.MTU - IPHeaderLen - TCPHeaderLen,
		ssthresh: 1 << 30,
		rto:      initialRTO,
		backoff:  1,
		peerWnd:  recvBuf,
	}
	c.cwnd = float64(10 * c.mss) // IW10
	c.rtxTimer.Init(s.eng, (*connRTO)(c))
	c.tlpTimer.Init(s.eng, (*connTLP)(c))
	c.persistTimer.Init(s.eng, (*connPersist)(c))
	c.timeWaitTimer.Init(s.eng, (*connTimeWait)(c))
	s.conns[key] = c
	return c
}

// Conn as the receiver of each of its timers: the timers are fields and
// their handlers capture nothing, so a connection is one allocation.
type (
	connRTO      Conn
	connTLP      Conn
	connPersist  Conn
	connTimeWait Conn
)

func (c *connRTO) HandleEvent(any)     { (*Conn)(c).onRTO() }
func (c *connTLP) HandleEvent(any)     { (*Conn)(c).onTLP() }
func (c *connPersist) HandleEvent(any) { (*Conn)(c).onPersist() }

// remove leaves the TIME_WAIT timer to run out, as it always has — the
// firing is one of the simulation's events — so it may find a connection
// that was reset while it waited.
func (c *connTimeWait) HandleEvent(any) {
	if c.state == stateTimeWait {
		(*Conn)(c).remove()
	}
}

// State returns the current TCP state (for tests and diagnostics).
func (c *Conn) State() string { return c.state.String() }

func (c *Conn) advWnd() uint32 {
	free := recvBuf - c.rcv.Len()
	if free < 0 {
		free = 0
	}
	return uint32(free)
}

func (c *Conn) flight() uint32 { return c.sndNxt - c.sndUna }

// ---- output ----

func (c *Conn) sendSeg(seg *tcpSegment) {
	seg.SrcPort = c.local.Port
	seg.DstPort = c.remote.Port
	c.SegsOut++
	c.lastAdvWnd = seg.Wnd
	// Source from the connection's own local address: connections
	// accepted on an alias (a service VIP) must answer as the VIP, or
	// the client's demux key would never match.
	c.stack.sendTCP(c.local.IP, c.remote.IP, seg)
}

// sendTCP encodes seg straight into a leased packet buffer and emits it.
func (s *Stack) sendTCP(src, dst netsim.IP, seg *tcpSegment) {
	b, l4 := s.ipBuf(seg.wireLen())
	putTCP(l4, seg)
	s.sendIP(src, dst, ProtoTCP, b, len(l4))
}

func (c *Conn) sendACK() {
	ack := &tcpSegment{Flags: flagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Wnd: c.advWnd()}
	c.fillSACK(ack)
	c.sendSeg(ack)
}

// fillSACK reports the receiver's out-of-order ranges (already
// coalesced by stashOOO) as the ACK's SACK blocks: the lowest blocks
// (the frontier the sender must fill first) plus always the highest
// block, so the sender can bound the truly-lost span.
func (c *Conn) fillSACK(ack *tcpSegment) {
	n := len(c.ooo)
	take := n
	if take > maxSACKBlocks {
		take = maxSACKBlocks - 1
	}
	for _, r := range c.ooo[:take] {
		ack.addSACK(r.seq, r.end)
	}
	if take < n {
		ack.addSACK(c.ooo[n-1].seq, c.ooo[n-1].end)
	}
}

// pump transmits as much pending data as the congestion and peer windows
// allow, then the FIN if the stream is closed and drained.
func (c *Conn) pump() {
	if c.state != stateEstablished && c.state != stateCloseWait &&
		c.state != stateFinWait1 && c.state != stateLastAck && c.state != stateClosing {
		return
	}
	wnd := int(c.cwnd)
	if int(c.peerWnd) < wnd {
		wnd = int(c.peerWnd)
	}
	for burst := 0; burst < maxBurstSegs; burst++ {
		out := c.pipe() // bytes believed in flight (SACKed excluded)
		if c.finSent {
			break
		}
		sentData := int(c.sndNxt - c.sndUna) // bytes of snd already sent
		avail := c.snd.Len() - sentData
		if avail <= 0 {
			break
		}
		if out >= wnd {
			break
		}
		n := avail
		if n > c.mss {
			n = c.mss
		}
		if rem := wnd - out; n > rem {
			n = rem
		}
		if n <= 0 {
			break
		}
		// Sender-side silly-window avoidance: a sub-MSS segment is only
		// worth sending when it carries the tail of the buffered data;
		// window-growth crumbs wait for the window to open further.
		if n < c.mss && n < avail {
			break
		}
		seg := &tcpSegment{
			Flags: flagACK | flagPSH,
			Seq:   c.sndNxt,
			Ack:   c.rcvNxt,
			Wnd:   c.advWnd(),
		}
		seg.Payload, seg.More = c.snd.slices(sentData, n)
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttTime = c.stack.eng.Now()
		}
		c.sndNxt += uint32(n)
		c.BytesOut += uint64(n)
		c.sendSeg(seg)
	}
	// FIN once everything is sent.
	if c.sndClosed && !c.finSent && int(c.sndNxt-c.sndUna) == c.snd.Len() {
		c.finSeq = c.sndNxt
		c.finSent = true
		c.sndNxt++
		c.sendSeg(&tcpSegment{Flags: flagFIN | flagACK, Seq: c.finSeq, Ack: c.rcvNxt, Wnd: c.advWnd()})
		switch c.state {
		case stateEstablished:
			c.setState(stateFinWait1)
		case stateCloseWait:
			c.setState(stateLastAck)
		}
	}
	if c.flight() > 0 {
		c.armRTX()
		c.armTLP()
	} else {
		c.rtxTimer.Stop()
		c.tlpTimer.Stop()
	}
	// Zero-window probing.
	if c.peerWnd == 0 && c.snd.Len() > 0 && c.flight() == 0 {
		if !c.persistTimer.Active() {
			c.persistTimer.Reset(c.rto)
		}
	}
}

func (c *Conn) onPersist() {
	if c.state == stateClosed || c.peerWnd > 0 || c.snd.Len() == 0 {
		return
	}
	// Probe with one byte beyond the window.
	probe := &tcpSegment{
		Flags: flagACK,
		Seq:   c.sndNxt,
		Ack:   c.rcvNxt,
		Wnd:   c.advWnd(),
	}
	probe.Payload, _ = c.snd.slices(int(c.sndNxt-c.sndUna), 1)
	c.sendSeg(probe)
	c.persistTimer.Reset(c.rto)
}

// retransmit resends the handshake segment (SYN states only; data
// retransmission goes through retransmitRange).
func (c *Conn) retransmit() {
	c.Retransmits++
	switch c.state {
	case stateSynSent:
		c.sendSeg(&tcpSegment{Flags: flagSYN, Seq: c.iss, Wnd: c.advWnd()})
	case stateSynRcvd:
		c.sendSeg(&tcpSegment{Flags: flagSYN | flagACK, Seq: c.iss, Ack: c.rcvNxt, Wnd: c.advWnd()})
	}
}

func (c *Conn) armRTX() {
	c.rtxTimer.Reset(c.rto * sim.Duration(c.backoff))
}

// armTLP schedules a tail-loss probe (RFC 8985-style). When the tail of
// the stream is in flight and the ACK clock stalls, a dropped last
// segment (or FIN) would otherwise sit silent until the 200 ms minimum
// RTO — the dominant cost of short transfers over a drop-tail
// bottleneck. The probe fires roughly two RTTs after the last ACK and
// retransmits the highest outstanding segment; if the tail really was
// lost the resulting SACK opens fast recovery instead of an RTO.
func (c *Conn) armTLP() {
	if c.srtt == 0 || c.tlpOut || c.inRecovery || seqGT(c.lostBelow, c.sndUna) {
		return
	}
	pto := 2*c.srtt + 2*sim.Millisecond
	if pto < 10*sim.Millisecond {
		pto = 10 * sim.Millisecond
	}
	if pto >= c.rto*sim.Duration(c.backoff) {
		return // RTO fires first anyway
	}
	c.tlpTimer.Reset(pto)
}

// onTLP sends the tail-loss probe: the FIN when all data is
// acknowledged, otherwise the last full segment of sent data (a FIN
// cannot be SACKed by the receiver, so probing data keeps the loss
// signal alive when both were dropped). One probe per flight; the RTO
// stays armed behind it.
func (c *Conn) onTLP() {
	if c.state == stateClosed || c.flight() == 0 || c.inRecovery || seqGT(c.lostBelow, c.sndUna) {
		return
	}
	c.tlpOut = true
	c.TailProbes++
	sent := int(c.sndNxt - c.sndUna)
	if c.finSent {
		sent--
	}
	if sent > 0 {
		n := sent
		if n > c.mss {
			n = c.mss
		}
		seq := c.sndUna + uint32(sent-n)
		c.retransmitRange(seq, seq+uint32(n))
	} else if c.finSent && !c.finAcked {
		c.retransmitRange(c.finSeq, c.finSeq+1)
	}
	c.armRTX()
}

func (c *Conn) onRTO() {
	if c.state == stateClosed || c.flight() == 0 {
		return
	}
	c.Timeouts++
	c.rtxTries++
	maxTries := maxRtxTry
	if c.state == stateSynSent || c.state == stateSynRcvd {
		maxTries = maxSynTry
	}
	if c.rtxTries > maxTries {
		err := ErrConnTimeout
		if c.state == stateSynSent {
			err = ErrRefused
		}
		c.teardown(err)
		return
	}
	// Reno loss response: collapse to one segment, halve ssthresh.
	fl := float64(c.flight())
	c.ssthresh = fl / 2
	if c.ssthresh < float64(2*c.mss) {
		c.ssthresh = float64(2 * c.mss)
	}
	c.cwnd = float64(c.mss)
	c.inRecovery = false
	c.dupAcks = 0
	c.rttPending = false // Karn's rule
	if c.backoff < 64 {
		c.backoff *= 2
	}
	if c.state == stateSynSent || c.state == stateSynRcvd {
		c.retransmit()
		c.armRTX()
		return
	}
	// Mark the whole flight lost and retransmit it sequentially under
	// slow start, skipping SACKed ranges. sndNxt is preserved so later
	// cumulative ACKs remain valid. (A FIN at the top of the lost span is
	// resent by retransmitRange when the pointer reaches finSeq.)
	c.inRecovery = false
	c.lostBelow = c.sndNxt
	c.rtxUntil = c.sndUna
	c.tlpTimer.Stop()
	c.pumpLost()
	c.armRTX()
}

// ---- input ----

// onTCP handles one inbound segment. lease backs payload (nil when the
// frame was caller-owned): the out-of-order stash retains it instead of
// copying the bytes.
func (s *Stack) onTCP(h *ipv4Header, payload []byte, lease *netsim.Buf) {
	var seg tcpSegment
	if err := unmarshalTCP(&seg, payload); err != nil {
		s.Drops++
		return
	}
	key := connKey{seg.DstPort, h.Src, seg.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.SegsIn++
		c.onSegment(&seg, lease)
		return
	}
	// New connection to a listener?
	if l, ok := s.listeners[seg.DstPort]; ok && seg.has(flagSYN) && !seg.has(flagACK) && !l.closed {
		c := s.newConn(key, stateSynRcvd)
		// The SYN's destination is the connection's local address for its
		// whole life — an alias (VIP) stays the source of every reply.
		c.local.IP = h.Dst
		c.lis = l
		c.iss = s.eng.Rand().Uint32()
		c.sndUna, c.sndNxt = c.iss, c.iss+1
		c.lostBelow, c.rtxUntil, c.recover = c.sndUna, c.sndUna, c.sndUna
		c.rcvNxt = seg.Seq + 1
		c.peerWnd = seg.Wnd
		c.sendSeg(&tcpSegment{Flags: flagSYN | flagACK, Seq: c.iss, Ack: c.rcvNxt, Wnd: c.advWnd()})
		c.armRTX()
		return
	}
	// No home for this segment: RST.
	if !seg.has(flagRST) {
		rst := &tcpSegment{SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: flagRST | flagACK}
		if seg.has(flagACK) {
			rst.Seq = seg.Ack
		}
		rst.Ack = seg.Seq + uint32(len(seg.Payload))
		if seg.has(flagSYN) {
			rst.Ack++
		}
		s.sendTCP(h.Dst, h.Src, rst)
	}
}

func (c *Conn) onSegment(seg *tcpSegment, lease *netsim.Buf) {
	if seg.has(flagRST) {
		if c.state == stateSynSent {
			c.teardown(ErrRefused)
		} else {
			c.teardown(ErrConnReset)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if seg.has(flagSYN) && seg.has(flagACK) && seg.Ack == c.iss+1 {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.peerWnd = seg.Wnd
			c.setState(stateEstablished)
			c.backoff, c.rtxTries = 1, 0
			c.rtxTimer.Stop()
			c.sendACK()
			c.connWq.Broadcast()
			c.pump()
		}
		return
	case stateSynRcvd:
		if seg.has(flagACK) && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.peerWnd = seg.Wnd
			c.setState(stateEstablished)
			c.backoff, c.rtxTries = 1, 0
			c.rtxTimer.Stop()
			if l := c.lis; l != nil {
				if l.closed {
					c.Abort() // nobody is left to accept it
					return
				}
				l.backlog = append(l.backlog, c)
				l.wq.Signal()
			}
			// Fall through to process any piggybacked data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	if seg.has(flagACK) {
		c.processAck(seg)
	}
	if len(seg.Payload) > 0 || seg.has(flagFIN) {
		c.processData(seg, lease)
	}
}

// ---- SACK scoreboard ----

// addSacked merges a peer-reported range into the scoreboard.
func (c *Conn) addSacked(start, end uint32) {
	if seqGEQ(start, end) || seqLEQ(end, c.sndUna) || seqGT(end, c.sndNxt) {
		return
	}
	if seqLT(start, c.sndUna) {
		start = c.sndUna
	}
	// First range the new one touches (overlaps or abuts): ends are
	// sorted like starts, so binary search on them.
	lo := sort.Search(len(c.sacked), func(k int) bool { return seqGEQ(c.sacked[k][1], start) })
	// Swallow every range it touches, widening it as we go.
	j := lo
	for ; j < len(c.sacked) && seqLEQ(c.sacked[j][0], end); j++ {
		if seqLT(c.sacked[j][0], start) {
			start = c.sacked[j][0]
		}
		if seqGT(c.sacked[j][1], end) {
			end = c.sacked[j][1]
		}
	}
	if j == lo {
		c.sacked = append(c.sacked, [2]uint32{})
		copy(c.sacked[lo+1:], c.sacked[lo:])
	} else {
		c.sacked = append(c.sacked[:lo+1], c.sacked[j:]...)
	}
	c.sacked[lo] = [2]uint32{start, end}
}

// trimSacked drops scoreboard ranges at or below sndUna.
func (c *Conn) trimSacked() {
	out := c.sacked[:0]
	for _, r := range c.sacked {
		if seqLEQ(r[1], c.sndUna) {
			continue
		}
		if seqLT(r[0], c.sndUna) {
			r[0] = c.sndUna
		}
		out = append(out, r)
	}
	c.sacked = out
}

// sackedBytes is the total SACKed volume above sndUna.
func (c *Conn) sackedBytes() int {
	n := 0
	for _, r := range c.sacked {
		n += int(r[1] - r[0])
	}
	return n
}

// pipe estimates bytes actually in flight: sent minus SACKed minus the
// marked-lost span that has not been retransmitted yet.
func (c *Conn) pipe() int {
	var p int
	if seqGT(c.lostBelow, c.sndUna) {
		retransmitted := int(c.rtxUntil-c.sndUna) - c.sackedBytesIn(c.sndUna, c.rtxUntil)
		afterLoss := int(c.sndNxt-c.lostBelow) - c.sackedBytesIn(c.lostBelow, c.sndNxt)
		p = retransmitted + afterLoss
	} else {
		p = int(c.flight()) - c.sackedBytes()
	}
	if p < 0 {
		p = 0
	}
	return p
}

// sackedBytesIn reports the scoreboard volume inside [from, to).
func (c *Conn) sackedBytesIn(from, to uint32) int {
	n := 0
	for _, r := range c.sacked {
		lo, hi := r[0], r[1]
		if seqLT(lo, from) {
			lo = from
		}
		if seqGT(hi, to) {
			hi = to
		}
		if seqLT(lo, hi) {
			n += int(hi - lo)
		}
	}
	return n
}

// pumpLost retransmits the lost span [rtxUntil, lostBelow) under the
// cwnd/pipe budget, skipping SACKed ranges.
func (c *Conn) pumpLost() {
	for burst := 0; seqLT(c.rtxUntil, c.lostBelow) && burst < maxBurstSegs; burst++ {
		if int(c.cwnd)-c.pipe() <= 0 {
			return
		}
		seq := c.rtxUntil
		// Skip anything the receiver already holds.
		skipped := false
		for _, r := range c.sacked {
			if seqGEQ(seq, r[0]) && seqLT(seq, r[1]) {
				c.rtxUntil = r[1]
				skipped = true
				break
			}
		}
		if skipped {
			continue
		}
		limit := c.lostBelow
		for _, r := range c.sacked {
			if seqGT(r[0], seq) && seqLT(r[0], limit) {
				limit = r[0]
				break
			}
		}
		n := c.retransmitRange(seq, limit)
		if n == 0 {
			return
		}
		c.rtxUntil = seq + uint32(n)
	}
}

// highestSacked returns the top of the scoreboard (sndUna when empty).
func (c *Conn) highestSacked() uint32 {
	if len(c.sacked) == 0 {
		return c.sndUna
	}
	return c.sacked[len(c.sacked)-1][1]
}

// retransmitRange resends up to one MSS starting at seq (or the FIN).
func (c *Conn) retransmitRange(seq, limit uint32) int {
	if c.finSent && seq == c.finSeq {
		c.sendSeg(&tcpSegment{Flags: flagFIN | flagACK, Seq: c.finSeq, Ack: c.rcvNxt, Wnd: c.advWnd()})
		c.Retransmits++
		return 1
	}
	off := int(seq - c.sndUna)
	if off < 0 || off >= c.snd.Len() {
		return 0
	}
	n := c.snd.Len() - off
	if n > c.mss {
		n = c.mss
	}
	if lim := int(limit - seq); n > lim {
		n = lim
	}
	if n <= 0 {
		return 0
	}
	rtx := &tcpSegment{Flags: flagACK | flagPSH, Seq: seq, Ack: c.rcvNxt, Wnd: c.advWnd()}
	rtx.Payload, rtx.More = c.snd.slices(off, n)
	c.sendSeg(rtx)
	c.Retransmits++
	return n
}

// markLost marks everything up to seq as lost (not in the pipe unless
// SACKed or retransmitted) and begins hole retransmission.
func (c *Conn) markLost(seq uint32) {
	if seqGT(seq, c.lostBelow) {
		c.lostBelow = seq
	}
	if seqLT(c.rtxUntil, c.sndUna) {
		c.rtxUntil = c.sndUna
	}
}

func (c *Conn) enterRecovery(halve bool) {
	if halve {
		c.FastRetransmits++
		fl := float64(int(c.flight()) - c.sackedBytes())
		c.ssthresh = fl / 2
		if c.ssthresh < float64(2*c.mss) {
			c.ssthresh = float64(2 * c.mss)
		}
		c.cwnd = c.ssthresh
	}
	c.inRecovery = true
	c.recover = c.sndNxt
	c.rtxUntil = c.sndUna
	if len(c.sacked) == 0 {
		// No SACK information (pure triple-dup): classic fast
		// retransmit of the first segment only.
		c.retransmitRange(c.sndUna, c.sndNxt)
		c.rtxUntil = c.sndUna + uint32(c.mss)
	} else {
		c.markLost(c.highestSacked())
		c.pumpLost()
	}
	c.pump()
	c.armRTX()
}

func (c *Conn) processAck(seg *tcpSegment) {
	ack := seg.Ack
	if seqGT(ack, c.sndNxt) {
		return // acks data we never sent
	}
	for _, blk := range seg.SACK() {
		c.addSacked(blk[0], blk[1])
	}
	if seqGT(ack, c.sndUna) {
		ackedData := ack - c.sndUna
		if c.finSent && seqGEQ(ack, c.finSeq+1) {
			c.finAcked = true
			ackedData--
		}
		if int(ackedData) > c.snd.Len() {
			ackedData = uint32(c.snd.Len())
		}
		c.snd.discard(int(ackedData))
		c.sndUna = ack
		c.trimSacked()
		c.peerWnd = seg.Wnd
		c.dupAcks = 0
		c.backoff = 1
		c.rtxTries = 0
		c.tlpOut = false

		// RTT sample (Karn-safe: rttPending cleared on RTO).
		if c.rttPending && seqGEQ(ack, c.rttSeq) {
			c.rttPending = false
			c.updateRTT(c.stack.eng.Now().Sub(c.rttTime))
		}

		if seqGT(c.sndUna, c.rtxUntil) {
			c.rtxUntil = c.sndUna
		}
		if c.inRecovery && seqGEQ(ack, c.recover) {
			// Full recovery: deflate to ssthresh and clear loss marks.
			c.inRecovery = false
			c.cwnd = c.ssthresh
			c.lostBelow, c.rtxUntil = c.sndUna, c.sndUna
		}
		if c.inRecovery {
			// Partial ACK: keep filling holes. cwnd normally sits at
			// ssthresh; if recovery was re-entered after an RTO collapse
			// it ramps back up (PRR-like) instead of staying frozen.
			if c.cwnd < c.ssthresh {
				inc := float64(ackedData)
				if inc > float64(2*c.mss) {
					inc = float64(2 * c.mss)
				}
				c.cwnd += inc
			}
			c.markLost(c.highestSacked())
			c.pumpLost()
			// A lost FIN cannot be marked by the SACK scoreboard: once
			// every data byte is acknowledged, resend it directly rather
			// than waiting out the RTO.
			if c.finSent && !c.finAcked && c.sndUna == c.finSeq {
				c.retransmitRange(c.finSeq, c.finSeq+1)
			}
		} else {
			if seqGT(c.lostBelow, c.sndUna) {
				// RTO recovery: retransmission continues under slow start.
				c.pumpLost()
			} else {
				c.lostBelow, c.rtxUntil = c.sndUna, c.sndUna
			}
			if c.cwnd < c.ssthresh {
				// Slow start with byte counting (RFC 3465, L=2*MSS).
				inc := float64(ackedData)
				if inc > float64(2*c.mss) {
					inc = float64(2 * c.mss)
				}
				c.cwnd += inc
			} else {
				// Congestion avoidance.
				c.cwnd += float64(c.mss) * float64(c.mss) / c.cwnd
			}
		}

		if c.flight() > 0 {
			c.armRTX()
			c.armTLP()
		} else {
			c.rtxTimer.Stop()
			c.tlpTimer.Stop()
		}
		c.maybeFinish()
		c.writeWq.Broadcast()
		c.pump()
		return
	}
	// Duplicate ACK detection: same ack, no payload, data outstanding,
	// and either an unchanged window (RFC 5681) or SACK info present.
	if ack == c.sndUna && len(seg.Payload) == 0 && c.flight() > 0 &&
		!seg.has(flagSYN) && !seg.has(flagFIN) &&
		(seg.Wnd == c.peerWnd || seg.nsack > 0) {
		c.dupAcks++
		c.DupAcksSeen++
		c.peerWnd = seg.Wnd
		if c.dupAcks == 3 && !c.inRecovery {
			// NewReno "careful" re-entry (RFC 6582): only halve once per
			// window of data. Dup ACKs for losses inside a window we
			// already responded to resume recovery at the current cwnd.
			c.enterRecovery(seqGEQ(c.sndUna, c.recover))
		} else if c.tlpOut && !c.inRecovery && seg.nsack > 0 {
			// The tail probe was SACKed while the hole below it persists:
			// the tail of the flight was genuinely lost, and no further
			// dup ACKs are coming to reach the usual threshold of three.
			c.enterRecovery(seqGEQ(c.sndUna, c.recover))
		} else if c.inRecovery {
			c.markLost(c.highestSacked())
			c.pumpLost()
			c.pump()
		}
		return
	}
	// Window update.
	c.peerWnd = seg.Wnd
	if c.peerWnd > 0 {
		c.persistTimer.Stop()
		c.pump()
	}
}

func (c *Conn) processData(seg *tcpSegment, lease *netsim.Buf) {
	seq := seg.Seq
	data := seg.Payload
	if seg.has(flagFIN) {
		c.peerFin = true
		c.peerFinSeq = seg.Seq + uint32(len(data))
	}
	if len(data) > 0 {
		end := seq + uint32(len(data))
		switch {
		case seqLEQ(end, c.rcvNxt):
			// Entirely old: re-ACK.
		case seqGT(seq, c.rcvNxt):
			// Out of order: stash, dup-ACK.
			c.stashOOO(seq, data, lease)
		default:
			if seqLT(seq, c.rcvNxt) {
				data = data[c.rcvNxt-seq:]
				seq = c.rcvNxt
			}
			c.admit(data)
			c.drainOOO()
		}
	}
	c.consumeFin()
	c.sendACK()
	c.readWq.Broadcast()
}

// admit appends in-order data to the receive buffer.
func (c *Conn) admit(data []byte) {
	free := recvBuf - c.rcv.Len()
	if len(data) > free {
		data = data[:free] // peer overran our advertised window
	}
	c.rcv.write(c.stack.cfg.Pool, data, recvBuf)
	c.rcvNxt += uint32(len(data))
	c.BytesIn += uint64(len(data))
}

// maxOOORuns bounds the stash: a segment arriving with this many runs
// already held is dropped.
const maxOOORuns = 256

// stashOOO stores an out-of-order segment, keeping the runs sorted and
// coalesced so they double as the SACK block set. The segment's bytes
// are not copied: each piece it contributes retains lease (a segment
// that arrived without one is copied into a lease of its own first).
// Bytes the stash already holds are kept and the new copy of them is
// ignored, so a run's pieces never overlap.
func (c *Conn) stashOOO(seq uint32, data []byte, lease *netsim.Buf) {
	if len(c.ooo) >= maxOOORuns {
		return
	}
	own := lease == nil
	if own {
		lease = c.stack.cfg.Pool.Get(len(data))
		data = lease.Data[:copy(lease.Data, data)]
	}
	c.insertOOO(seq, data, lease)
	if own {
		lease.Release()
	}
}

func (c *Conn) insertOOO(seq uint32, data []byte, lease *netsim.Buf) {
	end := seq + uint32(len(data))
	piece := func(from, to uint32) oooPiece {
		return oooPiece{data: data[from-seq : to-seq], lease: lease.Retain()}
	}
	// First run the segment touches (overlaps or abuts): run ends are
	// sorted like run starts, so binary search on them.
	i := sort.Search(len(c.ooo), func(k int) bool { return seqGEQ(c.ooo[k].end, seq) })
	if i == len(c.ooo) || seqLT(end, c.ooo[i].seq) {
		// Touches nothing: a new run.
		c.ooo = append(c.ooo, oooRun{})
		copy(c.ooo[i+1:], c.ooo[i:])
		c.ooo[i] = oooRun{seq: seq, end: end, pieces: []oooPiece{piece(seq, end)}}
		return
	}
	r := &c.ooo[i]
	if seqLT(seq, r.seq) {
		r.pieces = append(r.pieces, oooPiece{})
		copy(r.pieces[1:], r.pieces)
		r.pieces[0] = piece(seq, r.seq)
		r.seq = seq
	}
	// Extend the run's tail with whatever the segment adds beyond it,
	// swallowing each following run the tail reaches.
	for {
		next := i + 1
		if seqGT(end, r.end) {
			to := end
			if next < len(c.ooo) && seqLT(c.ooo[next].seq, to) {
				to = c.ooo[next].seq
			}
			r.pieces = append(r.pieces, piece(r.end, to))
			r.end = to
		}
		if next == len(c.ooo) || seqLT(r.end, c.ooo[next].seq) {
			return
		}
		r.pieces = append(r.pieces, c.ooo[next].pieces...)
		r.end = c.ooo[next].end
		c.ooo = append(c.ooo[:next], c.ooo[next+1:]...)
		r = &c.ooo[i]
	}
}

// drainOOO admits every run the in-order point has reached and lets go
// of its leases.
func (c *Conn) drainOOO() {
	n := 0
	for ; n < len(c.ooo) && seqLEQ(c.ooo[n].seq, c.rcvNxt); n++ {
		at := c.ooo[n].seq
		for _, p := range c.ooo[n].pieces {
			pieceEnd := at + uint32(len(p.data))
			if seqGT(pieceEnd, c.rcvNxt) && seqLEQ(at, c.rcvNxt) {
				c.admit(p.data[c.rcvNxt-at:])
			}
			at = pieceEnd
			p.lease.Release()
		}
		c.ooo[n].pieces = nil
	}
	c.ooo = c.ooo[:copy(c.ooo, c.ooo[n:])]
}

// dropOOO discards the stash.
func (c *Conn) dropOOO() {
	for _, r := range c.ooo {
		for _, p := range r.pieces {
			p.lease.Release()
		}
	}
	c.ooo = nil
}

// consumeFin advances past the peer's FIN once all data before it has
// been received, and drives the close state machine.
func (c *Conn) consumeFin() {
	if !c.peerFin || c.peerFinDone || c.rcvNxt != c.peerFinSeq {
		return
	}
	c.rcvNxt++
	c.peerFinDone = true
	switch c.state {
	case stateEstablished:
		c.setState(stateCloseWait)
	case stateFinWait1:
		if c.finAcked {
			c.enterTimeWait()
		} else {
			c.setState(stateClosing)
		}
	case stateFinWait2:
		c.enterTimeWait()
	}
	c.readWq.Broadcast()
}

// maybeFinish advances close states that were waiting on our FIN's ACK.
func (c *Conn) maybeFinish() {
	if !c.finAcked {
		return
	}
	switch c.state {
	case stateFinWait1:
		if c.peerFinDone {
			c.enterTimeWait()
		} else {
			c.setState(stateFinWait2)
		}
	case stateClosing:
		c.enterTimeWait()
	case stateLastAck:
		c.remove()
	}
}

// enterTimeWait starts the wait for stray segments. Both FINs are
// acknowledged, so nothing is sent or admitted any more: the send ring
// goes back to the pool, and a receive ring already read empty with it.
func (c *Conn) enterTimeWait() {
	c.setState(stateTimeWait)
	c.rtxTimer.Stop()
	c.tlpTimer.Stop()
	c.snd.free()
	if c.rcv.Len() == 0 {
		c.rcv.free()
	}
	c.timeWaitTimer.Reset(timeWait)
}

func (c *Conn) setState(s connState) { c.state = s }

// remove deletes the connection from the stack's demux table and gives
// back every lease it holds — both rings and the out-of-order stash —
// so a finished Conn someone still holds pins no pool buffer. Unread
// received data stays readable, in a plain slice of its own.
func (c *Conn) remove() {
	c.setState(stateClosed)
	c.rtxTimer.Stop()
	c.tlpTimer.Stop()
	c.persistTimer.Stop()
	c.snd.free()
	c.rcv.detach()
	c.dropOOO()
	delete(c.stack.conns, c.key)
	c.readWq.Broadcast()
	c.writeWq.Broadcast()
	c.connWq.Broadcast()
}

// teardown aborts with an error.
func (c *Conn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.err = err
	c.remove()
}

func (c *Conn) updateRTT(r sim.Duration) {
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// ---- application interface ----

// Read copies received bytes into buf, blocking until data, EOF or error.
func (c *Conn) Read(p *sim.Proc, buf []byte) (int, error) {
	for {
		if c.rcv.Len() > 0 {
			n := c.rcv.read(buf)
			// Window update if we freed a meaningful amount.
			if adv := c.advWnd(); adv >= uint32(c.mss) && adv-c.lastAdvWnd >= uint32(c.mss) && c.state != stateClosed {
				c.sendACK()
			}
			return n, nil
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.peerFinDone {
			return 0, io.EOF
		}
		if c.state == stateClosed {
			return 0, ErrConnClosed
		}
		if !c.readWq.Wait(p) {
			return 0, ErrConnClosed
		}
	}
}

// ReadFull reads exactly len(buf) bytes unless EOF or error intervenes.
func (c *Conn) ReadFull(p *sim.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Write queues data on the stream, blocking while the send buffer is
// full. It returns the number of bytes accepted.
func (c *Conn) Write(p *sim.Proc, data []byte) (int, error) {
	written := 0
	for written < len(data) {
		if c.err != nil {
			return written, c.err
		}
		if c.sndClosed || c.state == stateClosed {
			return written, ErrConnClosed
		}
		space := sendBuf - c.snd.Len()
		if space <= 0 {
			if !c.writeWq.Wait(p) {
				return written, ErrConnClosed
			}
			continue
		}
		n := len(data) - written
		if n > space {
			n = space
		}
		c.snd.write(c.stack.cfg.Pool, data[written:written+n], sendBuf)
		written += n
		c.pump()
	}
	return written, nil
}

// Close half-closes the stream: queued data is delivered, then a FIN.
// Reading remains possible until the peer closes.
func (c *Conn) Close() {
	if c.sndClosed || c.state == stateClosed {
		return
	}
	c.sndClosed = true
	c.pump()
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendSeg(&tcpSegment{Flags: flagRST | flagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	c.teardown(ErrConnReset)
}

// Err returns the terminal error, if any.
func (c *Conn) Err() error { return c.err }

// Diagnostic accessors used by tests and the benchmark harness.

// Flight exposes sndNxt-sndUna.
func (c *Conn) Flight() int { return int(c.flight()) }
