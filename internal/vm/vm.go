// Package vm models virtual machines and Xen-style pre-copy live
// migration over the virtual network (paper §II.C).
//
// A VM is a protocol stack plugged into a host's bridge through a
// virtual interface, plus a memory image with a dirty-page process.
// Migration transfers the image over a real TCP connection between the
// source and destination hosts' management (Dom0) stacks — so migration
// traffic shares links with the workload and the bandwidth dip of
// Figure 9 emerges from the link model. Rounds follow Xen's pre-copy:
// the first round copies every page, each later round copies the pages
// dirtied during the previous one, and stop-and-copy pauses the VM to
// send the final set. On resume the destination injects gratuitous ARP
// broadcasts, which is what re-points WAV-Switch tables network-wide.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// HostPort is where a VM plugs in. Both core.Host (WAVNet) and ipop.Node
// (the baseline) implement it.
type HostPort interface {
	Name() string
	AttachVIF(name string) ether.NIC
	DetachVIF(nic ether.NIC)
	Dom0() *ipstack.Stack
	NewMAC() ether.MAC
	VirtualMTU() int
	// Pool is the world's buffer pool the guest stack leases from.
	Pool() *netsim.Pool
}

// Migration constants.
const (
	pageSize = 4096
	// stopCopyPages: when a round's dirty set is at most this many pages,
	// pause and do the final copy (64 pages = 256 KB).
	stopCopyPages = 64
	// handoffDelay models device re-attachment at the destination before
	// the VM resumes.
	handoffDelay = 50 * sim.Millisecond
)

// Config tunes a VM.
type Config struct {
	MemoryMB int // default 256
	// DirtyRate is the page-dirtying rate (pages/second) while the VM
	// runs; it drives pre-copy convergence (default 2000 ≈ 8 MB/s).
	DirtyRate float64
	// MaxRounds bounds pre-copy iterations (Xen uses ~30).
	MaxRounds int
	// MigrationPort is the Dom0 TCP port used for image transfer.
	MigrationPort uint16
	// StallTimeout aborts a migration whose image transfer has made no
	// progress for this long — the destination became unreachable
	// mid-copy. The transfer channel is torn down, the abort is counted,
	// and the VM keeps running (or resumes) at the source (default 15 s).
	StallTimeout sim.Duration
	// Tracer records sim-time spans for migrations (one span per
	// migration, one child per pre-copy round); nil disables tracing.
	Tracer *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.MemoryMB <= 0 {
		c.MemoryMB = 256
	}
	if c.DirtyRate <= 0 {
		c.DirtyRate = 2000
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 30
	}
	if c.MigrationPort == 0 {
		c.MigrationPort = 8002
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 15 * sim.Second
	}
	return c
}

// MigrationReport records one live migration.
type MigrationReport struct {
	VM         string
	From, To   string
	Start, End sim.Time
	// Downtime is the stop-and-copy pause as perceived by the VM.
	Downtime sim.Duration
	Rounds   int
	// BytesSent is the total image traffic, including re-sent dirty pages.
	BytesSent  int64
	RoundBytes []int64
}

// Total returns the wall-clock migration duration.
func (r *MigrationReport) Total() sim.Duration { return r.End.Sub(r.Start) }

// VM is a running virtual machine.
type VM struct {
	name  string
	cfg   Config
	eng   *sim.Engine
	host  HostPort
	vif   ether.NIC
	stack *ipstack.Stack
	mac   ether.MAC
	ip    netsim.IP

	running   bool
	migrating bool

	// traceParent, when set, becomes the parent of the next migration
	// span — the VPC reconciler threads its apply span through here so a
	// managed migration shows up inside the apply that ordered it.
	traceParent *obs.Span

	// Migrations lists completed migration reports.
	Migrations []*MigrationReport

	// Cumulative migration statistics (ScrapeInto exports them):
	// completed migrations, pre-copy rounds, pages copied (re-sent dirty
	// pages included), stop-and-copy downtime in microseconds, and
	// aborted migrations (failures that left the VM at the source).
	MigrationsDone uint64
	Rounds         uint64
	PagesCopied    uint64
	DowntimeUs     uint64
	Aborts         uint64
}

// Errors returned by VM operations.
var (
	ErrMigrating = errors.New("vm: migration already in progress")
	ErrNotUp     = errors.New("vm: not running")
	// ErrStalled reports a migration aborted by the stall watchdog: the
	// image transfer stopped making progress (destination unreachable
	// mid-copy), so the channel was torn down and the VM stayed at the
	// source.
	ErrStalled = errors.New("vm: migration aborted: image transfer stalled")
)

// New creates a VM on host with the given virtual IP and boots it
// (attaches its NIC and stack).
func New(host HostPort, name string, ip netsim.IP, cfg Config) *VM {
	cfg = cfg.withDefaults()
	v := &VM{
		name: name,
		cfg:  cfg,
		eng:  host.Dom0().Engine(),
		host: host,
		mac:  host.NewMAC(),
		ip:   ip,
	}
	v.vif = host.AttachVIF("vif-" + name)
	v.stack = ipstack.New(v.eng, name, v.vif, v.mac, ip, ipstack.Config{MTU: host.VirtualMTU(), Pool: host.Pool()})
	v.running = true
	return v
}

// IP returns the VM's virtual address.
func (v *VM) IP() netsim.IP { return v.ip }

// MAC returns the VM's hardware address (stable across migrations).
func (v *VM) MAC() ether.MAC { return v.mac }

// Stack is the VM's protocol stack; applications run on it.
func (v *VM) Stack() *ipstack.Stack { return v.stack }

// Host returns the current physical host.
func (v *VM) Host() HostPort { return v.host }

// Pause stops the VM: its NIC detaches and traffic in both directions is
// dropped (timers inside the guest keep running — a documented
// simplification; externally observed behaviour matches a paused guest).
func (v *VM) Pause() {
	if !v.running {
		return
	}
	v.running = false
	v.host.DetachVIF(v.vif)
	v.stack.SetNIC(nil)
	v.vif = nil
}

// Resume restarts the VM on its current host.
func (v *VM) Resume() {
	if v.running {
		return
	}
	v.vif = v.host.AttachVIF("vif-" + v.name)
	v.stack.SetNIC(v.vif)
	v.running = true
}

// ScrapeInto copies the VM's cumulative migration statistics into r
// under l as "vm.*" counters.
func (v *VM) ScrapeInto(r *obs.Registry, l obs.Labels) {
	r.Counter("vm.migrations", l).Add(v.MigrationsDone)
	r.Counter("vm.rounds", l).Add(v.Rounds)
	r.Counter("vm.pages_copied", l).Add(v.PagesCopied)
	r.Counter("vm.downtime_us", l).Add(v.DowntimeUs)
	r.Counter("vm.aborts", l).Add(v.Aborts)
}

// SetTraceParent makes sp the parent of the VM's next migration span,
// linking a managed migration to the VPC apply that ordered it. The
// parent is consumed by the next Migrate call; nil clears it.
func (v *VM) SetTraceParent(sp *obs.Span) { v.traceParent = sp }

// totalPages is the VM image size in pages.
func (v *VM) totalPages() int { return v.cfg.MemoryMB << 20 / pageSize }

// Migrate live-migrates the VM to dst using iterative pre-copy over a
// TCP connection between the two hosts' Dom0 stacks. It blocks the
// calling process until the VM runs on dst and returns the report.
func (v *VM) Migrate(p *sim.Proc, dst HostPort) (*MigrationReport, error) {
	if v.migrating {
		return nil, ErrMigrating
	}
	if !v.running {
		return nil, ErrNotUp
	}
	src := v.host
	if src.Dom0() == nil || dst.Dom0() == nil {
		return nil, fmt.Errorf("vm: both hosts need Dom0 stacks for migration")
	}
	v.migrating = true
	defer func() { v.migrating = false }()

	rep := &MigrationReport{VM: v.name, From: src.Name(), To: dst.Name(), Start: p.Now()}
	sp := v.cfg.Tracer.Start(v.traceParent, "migrate", obs.Labels{Host: src.Name()})
	v.traceParent = nil
	sp.Event("vm %s: %s -> %s", v.name, src.Name(), dst.Name())
	defer sp.End()

	// Destination side: accept the image stream and count arrivals; each
	// length-prefixed round is acknowledged by unparking the migrator.
	lis, err := dst.Dom0().Listen(v.cfg.MigrationPort)
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	var roundDone bool
	var recvConn *ipstack.Conn
	recvErr := error(nil)
	v.eng.Spawn("migrate-recv-"+v.name, func(rp *sim.Proc) {
		conn, err := lis.Accept(rp)
		if err != nil {
			recvErr = err
			p.Unpark()
			return
		}
		recvConn = conn
		hdr := make([]byte, 8)
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.ReadFull(rp, hdr); err != nil {
				return
			}
			n := int64(binary.BigEndian.Uint64(hdr))
			if n == 0 { // end of stream
				conn.Close()
				return
			}
			for n > 0 {
				chunk := buf
				if n < int64(len(chunk)) {
					chunk = chunk[:n]
				}
				got, err := conn.ReadFull(rp, chunk)
				n -= int64(got)
				if err != nil {
					recvErr = err
					p.Unpark()
					return
				}
			}
			roundDone = true
			p.Unpark()
		}
	})

	conn, err := src.Dom0().Dial(p, netsim.Addr{IP: dst.Dom0().IP(), Port: v.cfg.MigrationPort})
	if err != nil {
		v.Aborts++
		sp.Event("aborted: migration channel: %v", err)
		return nil, fmt.Errorf("vm: migration channel: %w", err)
	}
	defer conn.Close()

	// Stall watchdog: the transfer's only liveness signal is new bytes
	// entering the TCP stream (acks drain the send buffer and let more
	// in). When the destination becomes unreachable mid-copy the stream
	// freezes; rather than stalling until TCP's full retransmission
	// budget expires, abort both ends after StallTimeout of no progress
	// and fail the migration cleanly — the VM stays at the source.
	var stallErr error
	lastOut := conn.BytesOut
	lastProgress := v.eng.Now()
	watchdog := sim.NewTicker(v.eng, v.cfg.StallTimeout/4, func() {
		if stallErr != nil {
			return
		}
		if conn.BytesOut != lastOut {
			lastOut = conn.BytesOut
			lastProgress = v.eng.Now()
			return
		}
		if v.eng.Now().Sub(lastProgress) < v.cfg.StallTimeout {
			return
		}
		stallErr = ErrStalled
		conn.Abort()
		if recvConn != nil {
			recvConn.Abort()
		}
		p.Unpark()
	})
	defer watchdog.Stop()

	sendRound := func(pages int64) error {
		bytes := pages * pageSize
		hdr := make([]byte, 8)
		binary.BigEndian.PutUint64(hdr, uint64(bytes))
		if _, err := conn.Write(p, hdr); err != nil {
			if stallErr != nil {
				return stallErr
			}
			return err
		}
		chunk := make([]byte, 64<<10)
		for sent := int64(0); sent < bytes; {
			n := bytes - sent
			if n > int64(len(chunk)) {
				n = int64(len(chunk))
			}
			if _, err := conn.Write(p, chunk[:n]); err != nil {
				if stallErr != nil {
					return stallErr
				}
				return err
			}
			sent += n
		}
		// Wait for the receiver to consume the round.
		roundDone = false
		for !roundDone && recvErr == nil && stallErr == nil {
			if !p.Park() {
				return errors.New("vm: migration interrupted")
			}
		}
		if stallErr != nil {
			return stallErr
		}
		rep.BytesSent += bytes
		rep.RoundBytes = append(rep.RoundBytes, bytes)
		return recvErr
	}

	// Iterative pre-copy.
	toSend := int64(v.totalPages())
	prev := toSend + 1
	for round := 0; ; round++ {
		roundStart := p.Now()
		rs := v.cfg.Tracer.Start(sp, "migrate.round", obs.Labels{Host: src.Name()})
		rs.Event("round %d: %d pages", round, toSend)
		if err := sendRound(toSend); err != nil {
			v.Aborts++
			rs.Event("aborted: %v", err)
			rs.End()
			sp.Event("aborted in round %d: %v", round, err)
			return nil, err
		}
		rs.End()
		rep.Rounds++
		elapsed := p.Now().Sub(roundStart)
		dirtied := int64(v.cfg.DirtyRate * elapsed.Seconds())
		if max := int64(v.totalPages()); dirtied > max {
			dirtied = max
		}
		if dirtied <= stopCopyPages ||
			round+1 >= v.cfg.MaxRounds ||
			dirtied >= prev {
			prev = dirtied
			toSend = dirtied
			break
		}
		prev = toSend
		toSend = dirtied
	}

	// Stop-and-copy: pause, send the final set plus device state, hand
	// off, resume at the destination.
	pausedAt := p.Now()
	v.Pause()
	if toSend < 1 {
		toSend = 1
	}
	sc := v.cfg.Tracer.Start(sp, "migrate.stopcopy", obs.Labels{Host: src.Name()})
	sc.Event("%d pages", toSend)
	if err := sendRound(toSend); err != nil {
		// Roll back: resume at the source.
		v.Resume()
		v.Aborts++
		sc.Event("aborted, resumed at source: %v", err)
		sc.End()
		sp.Event("aborted in stop-and-copy: %v", err)
		return nil, err
	}
	sc.End()
	rep.Rounds++
	// End-of-stream marker.
	zero := make([]byte, 8)
	conn.Write(p, zero)

	// The transfer is complete; the watchdog must not misread the quiet
	// handoff as a stall.
	watchdog.Stop()
	p.Sleep(handoffDelay)
	v.host = dst
	v.Resume()
	rep.Downtime = p.Now().Sub(pausedAt)

	// The resumed VMM announces the VM's new location; WAVNet floods the
	// broadcast over every tunnel, IPOP ignores it (stale routes).
	v.stack.AnnounceGratuitousARP()
	for i := 1; i <= 2; i++ {
		v.eng.Schedule(sim.Duration(i)*200*sim.Millisecond, v.stack.AnnounceGratuitousARP)
	}

	sp.Event("resumed at %s: downtime %v, %d rounds, %d bytes",
		dst.Name(), rep.Downtime, rep.Rounds, rep.BytesSent)
	rep.End = p.Now()
	v.Migrations = append(v.Migrations, rep)
	v.MigrationsDone++
	v.Rounds += uint64(rep.Rounds)
	v.PagesCopied += uint64(rep.BytesSent / pageSize)
	v.DowntimeUs += uint64(rep.Downtime / sim.Microsecond)
	return rep, nil
}
