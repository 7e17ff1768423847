package ipstack

import (
	"bytes"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// TestRingAgainstSlice drives a ring and a plain byte slice with the
// same random writes, reads, peeks and discards, on a poisoned pool: a
// ring that let go of a buffer it still reads from would see 0xDB.
func TestRingAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := netsim.NewPool()
	pool.SetPoison(true)
	var r ring
	var ref []byte
	next := byte(0)
	for step := 0; step < 20000; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			p := make([]byte, rng.Intn(3000))
			for i := range p {
				p[i] = next
				next++
			}
			r.write(pool, p, 1<<20)
			ref = append(ref, p...)
		case 2:
			p := make([]byte, rng.Intn(4000))
			n := r.read(p)
			if n != min(len(p), len(ref)) || !bytes.Equal(p[:n], ref[:n]) {
				t.Fatalf("step %d: read %d bytes, mismatch", step, n)
			}
			ref = ref[n:]
		case 3:
			if len(ref) == 0 {
				continue
			}
			off := rng.Intn(len(ref))
			n := rng.Intn(len(ref) - off + 1)
			a, b := r.slices(off, n)
			if got := append(append([]byte(nil), a...), b...); !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("step %d: slices(%d, %d) mismatch", step, off, n)
			}
			d := rng.Intn(len(ref) + 1)
			r.discard(d)
			ref = ref[d:]
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: ring holds %d bytes, slice %d", step, r.Len(), len(ref))
		}
	}
	// Sized to content: capacity is the class over the most it ever
	// held, not the sum of what went through; one lease at a time, and
	// what is left survives giving it back.
	if len(r.buf) > 32<<10 || pool.Leased() != 1 {
		t.Fatalf("ring grew to %d bytes, %d leases out", len(r.buf), pool.Leased())
	}
	r.detach()
	got := make([]byte, len(ref))
	if n := r.read(got); pool.Leased() != 0 || n != len(ref) || !bytes.Equal(got, ref) {
		t.Fatalf("detached ring: %d leases out, %d of %d bytes read back, equal %v", pool.Leased(), n, len(ref), bytes.Equal(got, ref))
	}
}

// oooModel is the stash the parent kept: every segment copied, the whole
// list re-sorted and coalesced byte by byte on each insert.
type oooModel []struct {
	seq  uint32
	data []byte
}

func (m *oooModel) stash(seq uint32, data []byte) {
	if len(*m) >= maxOOORuns {
		return
	}
	*m = append(*m, struct {
		seq  uint32
		data []byte
	}{seq, append([]byte(nil), data...)})
	sort.SliceStable(*m, func(i, j int) bool { return seqLT((*m)[i].seq, (*m)[j].seq) })
	merged := (*m)[:1]
	for _, s := range (*m)[1:] {
		last := &merged[len(merged)-1]
		lastEnd := last.seq + uint32(len(last.data))
		if seqLEQ(s.seq, lastEnd) {
			if sEnd := s.seq + uint32(len(s.data)); seqGT(sEnd, lastEnd) {
				last.data = append(last.data, s.data[lastEnd-s.seq:]...)
			}
		} else {
			merged = append(merged, s)
		}
	}
	*m = merged
}

// TestOOOStashMatchesCopyingModel inserts random overlapping segments
// of one byte stream — across a sequence wrap — into the lease-holding
// stash and into the parent's copy-and-sort model: same runs, same
// bytes, and after the drain every lease is back.
func TestOOOStashMatchesCopyingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := netsim.NewPool()
	pool.SetPoison(true)
	stack := &Stack{cfg: Config{RecvBuf: 1 << 20, Pool: pool}}
	const base = uint32(0xFFFFF000) // the stream wraps 4 KB in
	stream := make([]byte, 64<<10)
	rng.Read(stream)
	for round := 0; round < 50; round++ {
		c := &Conn{stack: stack, rcvNxt: base}
		var model oooModel
		var leases []*netsim.Buf
		for i := 0; i < 200; i++ {
			off := 1 + rng.Intn(len(stream)-1) // never at rcvNxt: always out of order
			n := 1 + rng.Intn(min(1400, len(stream)-off))
			var lease *netsim.Buf
			data := stream[off : off+n]
			if rng.Intn(4) > 0 { // most segments arrive leased; the rest get copied in
				lease = pool.Get(n)
				leases = append(leases, lease)
				data = lease.Data[:copy(lease.Data, data)]
			}
			c.stashOOO(base+uint32(off), data, lease)
			model.stash(base+uint32(off), stream[off:off+n])
			if lease != nil {
				lease.Release() // the stash holds its own references now
			}
		}
		if len(c.ooo) != len(model) {
			t.Fatalf("round %d: %d runs, model has %d", round, len(c.ooo), len(model))
		}
		for i, r := range c.ooo {
			var got []byte
			for _, p := range r.pieces {
				got = append(got, p.data...)
			}
			if r.seq != model[i].seq || r.end != r.seq+uint32(len(got)) || !bytes.Equal(got, model[i].data) {
				t.Fatalf("round %d run %d: [%d,%d) differs from model [%d,+%d)", round, i, r.seq, r.end, model[i].seq, len(model[i].data))
			}
		}
		// The missing first byte arrives: everything contiguous drains.
		c.admit(stream[:1])
		c.drainOOO()
		want := stream[:1+len(model[0].data)]
		if model[0].seq != base+1 {
			want = stream[:1]
		}
		got := make([]byte, c.rcv.Len())
		c.rcv.read(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: drained %d bytes, want %d", round, len(got), len(want))
		}
		c.dropOOO()
		c.rcv.free()
		for _, l := range leases {
			mustBeReleased(t, l)
		}
		if pool.Leased() != 0 {
			t.Fatalf("round %d: %d leases still out", round, pool.Leased())
		}
	}
}

// mustBeReleased fails unless every reference on l is gone: under
// poison mode a further Release panics exactly then.
func mustBeReleased(t *testing.T, l *netsim.Buf) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("a lease outlived the stash that held it")
		}
	}()
	l.Release()
}

// TestAddSackedMatchesSortingModel checks the binary-search scoreboard
// insert against sort-everything-then-merge.
func TestAddSackedMatchesSortingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		una := rng.Uint32()
		c := &Conn{sndUna: una, sndNxt: una + 100000}
		var model [][2]uint32
		for i := 0; i < 60; i++ {
			start := una + uint32(rng.Intn(100000)) - 500 // some start below sndUna
			end := start + uint32(rng.Intn(3000))
			c.addSacked(start, end)
			if seqGEQ(start, end) || seqLEQ(end, c.sndUna) || seqGT(end, c.sndNxt) {
				continue
			}
			if seqLT(start, c.sndUna) {
				start = c.sndUna
			}
			model = append(model, [2]uint32{start, end})
			sort.Slice(model, func(i, j int) bool { return seqLT(model[i][0], model[j][0]) })
			merged := model[:1]
			for _, r := range model[1:] {
				if last := &merged[len(merged)-1]; seqLEQ(r[0], last[1]) {
					last[1] = seqMax(last[1], r[1])
				} else {
					merged = append(merged, r)
				}
			}
			model = merged
		}
		if len(c.sacked) != len(model) {
			t.Fatalf("round %d: %d ranges, model has %d", round, len(c.sacked), len(model))
		}
		for i := range model {
			if c.sacked[i] != model[i] {
				t.Fatalf("round %d range %d: %v, model %v", round, i, c.sacked[i], model[i])
			}
		}
	}
}

// TestClosedConnDropsSendRing: a connection that reaches CLOSED lets go
// of its send ring and out-of-order stash, while data it received and
// nobody read yet stays readable.
func TestClosedConnDropsSendRing(t *testing.T) {
	eng, a, b := twoStacks(1, 100e6, time.Millisecond)
	lis, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var client, server *Conn
	payload := bytes.Repeat([]byte("wavnet"), 100000) // 600 KB
	eng.Spawn("server", func(p *sim.Proc) {
		server, _ = lis.Accept(p)
		server.Write(p, []byte("unread reply"))
		io.Copy(io.Discard, readerOf(p, server))
		server.Close()
	})
	eng.Spawn("client", func(p *sim.Proc) {
		client, err = a.Dial(p, netsim.Addr{IP: b.IP(), Port: 80})
		if err != nil {
			return
		}
		client.Write(p, payload)
		client.Close()
	})
	eng.RunFor(30 * time.Second)
	if client == nil || server == nil || client.State() != "CLOSED" || server.State() != "CLOSED" {
		t.Fatalf("connections did not close: %v %v", client, server)
	}
	if cap(client.snd.buf) != 0 || cap(server.snd.buf) != 0 || client.ooo != nil || server.ooo != nil {
		t.Fatalf("closed connections still hold %d + %d bytes of send ring", cap(client.snd.buf), cap(server.snd.buf))
	}
	if n := a.cfg.Pool.Leased() + b.cfg.Pool.Leased(); n != 0 || client.rcv.lease != nil || len(client.rcv.buf) != len("unread reply") {
		t.Fatalf("closed connections hold %d leases; unread data sits in %d bytes", n, len(client.rcv.buf))
	}
	buf := make([]byte, 64)
	var n int
	eng.Spawn("late-read", func(p *sim.Proc) { n, _ = client.Read(p, buf) })
	eng.RunFor(time.Second)
	if string(buf[:n]) != "unread reply" {
		t.Fatalf("unread data after close = %q", buf[:n])
	}
}

// readerOf adapts a Conn's blocking Read to io.Reader for one proc.
type procReader struct {
	p *sim.Proc
	c *Conn
}

func (r procReader) Read(b []byte) (int, error) { return r.c.Read(r.p, b) }

func readerOf(p *sim.Proc, c *Conn) io.Reader { return procReader{p, c} }

// TestAcceptRecyclesBacklog: a listener that keeps up with its clients
// keeps one small backlog array for ever, and an accepted connection is
// not left reachable from the slot it waited in.
func TestAcceptRecyclesBacklog(t *testing.T) {
	eng, a, b := twoStacks(1, 1e9, 100*time.Microsecond)
	defer eng.Stop()
	lis, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 1000
	accepted, arrays := 0, 0
	var array **Conn // the backlog's backing array, by its first slot
	eng.Spawn("server", func(p *sim.Proc) {
		for {
			c, err := lis.Accept(p)
			if err != nil {
				return
			}
			accepted++
			if first := &lis.backlog[:1][0]; first != array {
				array = first
				arrays++
			}
			c.Close()
		}
	})
	for k := 0; k < 2; k++ { // two clients: the backlog is two deep at times
		eng.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < cycles/2; i++ {
				c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 80})
				if err != nil {
					t.Error(err)
					return
				}
				c.Close()
				c.Read(p, make([]byte, 1)) // until the server has closed too
			}
		})
	}
	eng.RunFor(60 * time.Second)
	if accepted != cycles || lis.head != 0 || len(lis.backlog) != 0 {
		t.Fatalf("%d of %d accepted, backlog %d from %d", accepted, cycles, len(lis.backlog), lis.head)
	}
	if arrays > 2 || cap(lis.backlog) > 4 {
		t.Fatalf("%d accept cycles went through %d backlog arrays, the last of %d slots", cycles, arrays, cap(lis.backlog))
	}
	for i, c := range lis.backlog[:cap(lis.backlog)] {
		if c != nil {
			t.Fatalf("slot %d still points at an accepted connection", i)
		}
	}
}

// TestListenerCloseResetsBacklog: connections nobody will ever accept —
// established and queued, or still in the handshake — are reset when
// their listener closes, instead of holding their buffers for ever.
func TestListenerCloseResetsBacklog(t *testing.T) {
	eng, a, b := twoStacks(1, 100e6, time.Millisecond)
	defer eng.Stop()
	lis, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	client := func(i int) {
		eng.Spawn("client", func(p *sim.Proc) {
			c, err := a.Dial(p, netsim.Addr{IP: b.IP(), Port: 80})
			if err != nil {
				errs[i] = err
				return
			}
			c.Write(p, bytes.Repeat([]byte{byte(i)}, 5000))
			_, errs[i] = c.Read(p, make([]byte, 1))
		})
	}
	client(0)
	client(1)
	eng.RunFor(time.Second)
	if len(lis.backlog) != 2 || b.cfg.Pool.Leased() == 0 {
		t.Fatalf("%d connections queued holding %d leases, want 2 holding their data", len(lis.backlog), b.cfg.Pool.Leased())
	}
	// A third is caught in the handshake: its SYN is in, its ACK is not.
	client(2)
	for len(b.conns) < 3 {
		if !eng.Step() {
			t.Fatal("the third SYN never arrived")
		}
	}
	lis.Close()
	eng.RunFor(time.Second)
	for i, err := range errs {
		if err != ErrConnReset {
			t.Errorf("client %d saw %v, want %v", i, err, ErrConnReset)
		}
	}
	if n := len(a.Conns()) + len(b.Conns()); n != 0 || a.cfg.Pool.Leased() != 0 || b.cfg.Pool.Leased() != 0 {
		t.Fatalf("after Close: %d connections, %d + %d leases out", n, a.cfg.Pool.Leased(), b.cfg.Pool.Leased())
	}
}
