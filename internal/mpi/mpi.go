// Package mpi is a small message-passing runtime over the virtual TCP
// stack, sufficient to reproduce the paper's parallel workloads: the
// MPICH heat-distribution program (Figure 11) and the NAS EP and FT
// kernels (Figure 14). Message payloads are synthetic (only sizes
// matter), but every byte crosses the virtual network for real, so
// communication time is measured, not modeled.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// BasePort is the first TCP port used by rank listeners.
const BasePort = 9300

// World is a set of communicating ranks.
type World struct {
	eng   *sim.Engine
	ranks []*Rank
}

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
	stack *ipstack.Stack
	conns map[int]*ipstack.Conn
	inbox map[msgKey][]int // lengths of queued messages
	wq    sim.WaitQueue

	// Stats.
	BytesSent, BytesRecv uint64
	MsgsSent, MsgsRecv   uint64
}

type msgKey struct {
	from int
	tag  int
}

// NewWorld creates a world with one rank per stack, in rank order.
func NewWorld(eng *sim.Engine, stacks []*ipstack.Stack) *World {
	w := &World{eng: eng}
	for i, st := range stacks {
		w.ranks = append(w.ranks, &Rank{
			world: w,
			id:    i,
			stack: st,
			conns: make(map[int]*ipstack.Conn),
			inbox: make(map[msgKey][]int),
		})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Connect builds the full TCP mesh. It must be called from a process and
// blocks until every pairwise connection is up.
func (w *World) Connect(p *sim.Proc) error {
	n := len(w.ranks)
	if n < 2 {
		return nil
	}
	var firstErr error
	remaining := 0
	// Every rank listens; lower ranks dial higher ranks.
	for _, r := range w.ranks {
		r := r
		lis, err := r.stack.Listen(uint16(BasePort + r.id))
		if err != nil {
			return err
		}
		expect := r.id // ranks below us dial in
		remaining += expect
		w.eng.Spawn(fmt.Sprintf("mpi-accept-%d", r.id), func(ap *sim.Proc) {
			for i := 0; i < expect; i++ {
				conn, err := lis.Accept(ap)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				// Peer announces its rank id.
				hdr := make([]byte, 4)
				if _, err := conn.ReadFull(ap, hdr); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				peer := int(binary.BigEndian.Uint32(hdr))
				r.conns[peer] = conn
				r.startReceiver(peer, conn)
				remaining--
				p.Unpark()
			}
			lis.Close()
		})
	}
	dials := 0
	for _, r := range w.ranks {
		r := r
		for peer := r.id + 1; peer < n; peer++ {
			peer := peer
			dials++
			w.eng.Spawn(fmt.Sprintf("mpi-dial-%d-%d", r.id, peer), func(dp *sim.Proc) {
				defer func() { dials--; p.Unpark() }()
				dst := netsim.Addr{IP: w.ranks[peer].stack.IP(), Port: uint16(BasePort + peer)}
				conn, err := r.stack.Dial(dp, dst)
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("mpi: rank %d -> %d: %w", r.id, peer, err)
					}
					return
				}
				hdr := make([]byte, 4)
				binary.BigEndian.PutUint32(hdr, uint32(r.id))
				if _, err := conn.Write(dp, hdr); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				r.conns[peer] = conn
				r.startReceiver(peer, conn)
			})
		}
	}
	for firstErr == nil && (remaining > 0 || dials > 0) {
		if !p.Park() {
			return errors.New("mpi: connect interrupted")
		}
	}
	return firstErr
}

// startReceiver demultiplexes framed messages from one peer into the
// inbox.
func (r *Rank) startReceiver(peer int, conn *ipstack.Conn) {
	r.world.eng.Spawn(fmt.Sprintf("mpi-recv-%d<-%d", r.id, peer), func(p *sim.Proc) {
		hdr := make([]byte, 8)
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.ReadFull(p, hdr); err != nil {
				return
			}
			tag := int(binary.BigEndian.Uint32(hdr[0:]))
			size := int(binary.BigEndian.Uint32(hdr[4:]))
			left := size
			for left > 0 {
				chunk := buf
				if left < len(chunk) {
					chunk = chunk[:left]
				}
				n, err := conn.ReadFull(p, chunk)
				left -= n
				if err != nil {
					return
				}
			}
			r.BytesRecv += uint64(size)
			r.MsgsRecv++
			key := msgKey{from: peer, tag: tag}
			r.inbox[key] = append(r.inbox[key], size)
			r.wq.Broadcast()
		}
	})
}

// ErrNoPeer is returned for messages to unknown ranks.
var ErrNoPeer = errors.New("mpi: no connection to peer")

// Send transmits size synthetic bytes to rank `to` under tag. It blocks
// until the bytes are handed to TCP (buffered), like MPI_Send with an
// eager protocol.
func (r *Rank) Send(p *sim.Proc, to, tag, size int) error {
	conn, ok := r.conns[to]
	if !ok {
		return ErrNoPeer
	}
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint32(hdr[0:], uint32(tag))
	binary.BigEndian.PutUint32(hdr[4:], uint32(size))
	if _, err := conn.Write(p, hdr); err != nil {
		return err
	}
	chunk := make([]byte, 32<<10)
	for left := size; left > 0; {
		n := left
		if n > len(chunk) {
			n = len(chunk)
		}
		if _, err := conn.Write(p, chunk[:n]); err != nil {
			return err
		}
		left -= n
	}
	r.BytesSent += uint64(size)
	r.MsgsSent++
	return nil
}

// Recv blocks until a message from rank `from` with tag arrives and
// returns its size.
func (r *Rank) Recv(p *sim.Proc, from, tag int) (int, error) {
	key := msgKey{from: from, tag: tag}
	for len(r.inbox[key]) == 0 {
		if !r.wq.Wait(p) {
			return 0, errors.New("mpi: recv interrupted")
		}
	}
	size := r.inbox[key][0]
	r.inbox[key] = r.inbox[key][1:]
	return size, nil
}

// SendRecv exchanges messages with a partner (deadlock-free pairwise
// exchange: both sides buffer through TCP).
func (r *Rank) SendRecv(p *sim.Proc, partner, tag, size int) error {
	if err := r.Send(p, partner, tag, size); err != nil {
		return err
	}
	_, err := r.Recv(p, partner, tag)
	return err
}

// Collective tags (high bits to avoid app tags).
const (
	tagBarrier = 1 << 20
	tagReduce  = 1 << 21
	tagBcast   = 1 << 22
	tagAll2All = 1 << 23
)

// Allreduce models an allreduce of size bytes per rank: reduce to rank 0
// then broadcast.
func (r *Rank) Allreduce(p *sim.Proc, size int) error {
	n := r.world.Size()
	if n == 1 {
		return nil
	}
	if r.id == 0 {
		for i := 1; i < n; i++ {
			if _, err := r.Recv(p, i, tagReduce); err != nil {
				return err
			}
		}
		for i := 1; i < n; i++ {
			if err := r.Send(p, i, tagBcast, size); err != nil {
				return err
			}
		}
		return nil
	}
	if err := r.Send(p, 0, tagReduce, size); err != nil {
		return err
	}
	_, err := r.Recv(p, 0, tagBcast)
	return err
}

// Alltoall exchanges sizePerPair bytes between every rank pair — the
// transpose step dominating NAS FT.
func (r *Rank) Alltoall(p *sim.Proc, sizePerPair int) error {
	n := r.world.Size()
	for i := 0; i < n; i++ {
		if i == r.id {
			continue
		}
		if err := r.Send(p, i, tagAll2All, sizePerPair); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if i == r.id {
			continue
		}
		if _, err := r.Recv(p, i, tagAll2All); err != nil {
			return err
		}
	}
	return nil
}

// Run executes fn concurrently on every rank and blocks the caller until
// all ranks finish; the first error is returned.
func (w *World) Run(p *sim.Proc, fn func(rp *sim.Proc, r *Rank) error) error {
	var firstErr error
	live := len(w.ranks)
	for _, r := range w.ranks {
		r := r
		w.eng.Spawn(fmt.Sprintf("mpi-rank-%d", r.id), func(rp *sim.Proc) {
			if err := fn(rp, r); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("mpi: rank %d: %w", r.id, err)
			}
			live--
			p.Unpark()
		})
	}
	for live > 0 {
		if !p.Park() {
			return errors.New("mpi: wait interrupted")
		}
	}
	return firstErr
}
