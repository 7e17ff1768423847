// Package bot is a Bag-of-Tasks runtime over WAVNet's virtual cluster —
// the paper's motivating workload class ("users who want multiple
// non-dedicated computing resources to complete computation-intensive
// jobs, e.g. Bag-of-Task applications", §I). A master streams task
// inputs to workers over virtual TCP, workers compute for a simulated
// duration scaled by their speed, and results stream back; the makespan
// therefore reflects both the cluster's compute capacity and the
// quality of the network between master and workers — which is what the
// locality-sensitive grouping strategy optimizes.
package bot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// Task is one unit of work: ship InputBytes to a worker, compute for
// Compute (at speed 1.0), ship OutputBytes back.
type Task struct {
	ID          int
	InputBytes  int
	OutputBytes int
	Compute     sim.Duration
}

// UniformTasks builds n identical tasks.
func UniformTasks(n, inputBytes, outputBytes int, compute sim.Duration) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{ID: i, InputBytes: inputBytes, OutputBytes: outputBytes, Compute: compute}
	}
	return ts
}

// taskHeader is the master->worker frame: id, input length, compute
// nanoseconds, output length.
const taskHeaderLen = 8 + 4 + 8 + 4

// resultHeaderLen is the worker->master frame: id, output length.
const resultHeaderLen = 8 + 4

// Worker executes tasks for any master that connects. One worker serves
// connections sequentially per accepted connection but accepts several
// concurrent masters (or dispatcher lanes).
type Worker struct {
	speed float64

	// Stats.
	TasksDone    uint64
	BytesIn      uint64
	BytesOut     uint64
	ComputeSpent sim.Duration
}

// StartWorker runs a worker on st:port with the given relative speed
// (1.0 = reference machine; 2.0 halves compute time).
func StartWorker(st *ipstack.Stack, port uint16, speed float64) (*Worker, error) {
	if speed <= 0 {
		return nil, errors.New("bot: worker speed must be positive")
	}
	lis, err := st.Listen(port)
	if err != nil {
		return nil, err
	}
	w := &Worker{speed: speed}
	st.Engine().Spawn("bot-worker-accept", func(p *sim.Proc) {
		for {
			conn, err := lis.Accept(p)
			if err != nil {
				return
			}
			st.Engine().Spawn("bot-worker-conn", func(cp *sim.Proc) {
				defer conn.Close()
				w.serve(cp, conn)
			})
		}
	})
	return w, nil
}

// serve executes tasks arriving on one connection until it closes.
func (w *Worker) serve(p *sim.Proc, conn *ipstack.Conn) {
	hdr := make([]byte, taskHeaderLen)
	for {
		if err := readFull(p, conn, hdr); err != nil {
			return
		}
		id := binary.BigEndian.Uint64(hdr[0:])
		inLen := int(binary.BigEndian.Uint32(hdr[8:]))
		compute := sim.Duration(binary.BigEndian.Uint64(hdr[12:]))
		outLen := int(binary.BigEndian.Uint32(hdr[20:]))

		if err := discard(p, conn, inLen); err != nil {
			return
		}
		w.BytesIn += uint64(inLen)

		scaled := sim.Duration(float64(compute) / w.speed)
		if scaled > 0 {
			p.Sleep(scaled)
		}
		w.ComputeSpent += scaled

		resp := make([]byte, resultHeaderLen)
		binary.BigEndian.PutUint64(resp[0:], id)
		binary.BigEndian.PutUint32(resp[8:], uint32(outLen))
		if _, err := conn.Write(p, resp); err != nil {
			return
		}
		if err := writeZeros(p, conn, outLen); err != nil {
			return
		}
		w.BytesOut += uint64(outLen)
		w.TasksDone++
	}
}

// TaskResult records one completed task.
type TaskResult struct {
	Task     Task
	Worker   netsim.Addr
	Started  sim.Time
	Finished sim.Time
	// Attempts counts dispatch tries (>1 means the task was requeued
	// after a worker failure).
	Attempts int
}

// Run is a completed bag execution.
type Run struct {
	Results  []TaskResult
	Start    sim.Time
	End      sim.Time
	Requeues int
}

// Makespan is the wall-clock duration of the whole bag.
func (r *Run) Makespan() sim.Duration { return r.End.Sub(r.Start) }

// PerWorker tallies completed tasks by worker address.
func (r *Run) PerWorker() map[netsim.Addr]int {
	m := make(map[netsim.Addr]int)
	for _, res := range r.Results {
		m[res.Worker]++
	}
	return m
}

// maxAttempts bounds per-task dispatch attempts across worker failures.
const maxAttempts = 3

// Options tunes Execute.
type Options struct {
	// LanesPerWorker is the number of concurrent task streams per worker
	// (default 1; >1 overlaps a lane's transfer with another's compute).
	LanesPerWorker int
	// TaskTimeout aborts a dispatch whose result has not arrived in time
	// and requeues the task. Without it a worker that dies *after*
	// acknowledging the request leaves a half-open connection that TCP
	// alone never detects (there is nothing in flight to retransmit).
	// Zero disables the watchdog.
	TaskTimeout sim.Duration
}

func (o Options) withDefaults() Options {
	if o.LanesPerWorker <= 0 {
		o.LanesPerWorker = 1
	}
	return o
}

// Execute runs the bag on the given workers from master, blocking the
// calling process until every task completes (or becomes undeliverable).
// Scheduling is pull-based: each worker lane takes the next pending task,
// so faster or nearer workers naturally take more of the bag.
func Execute(p *sim.Proc, master *ipstack.Stack, workers []netsim.Addr, tasks []Task, opts Options) (*Run, error) {
	if len(workers) == 0 {
		return nil, errors.New("bot: no workers")
	}
	if len(tasks) == 0 {
		return nil, errors.New("bot: empty bag")
	}
	opts = opts.withDefaults()
	eng := master.Engine()

	type pending struct {
		task     Task
		attempts int
	}
	queue := make([]pending, len(tasks))
	for i, t := range tasks {
		queue[i] = pending{task: t}
	}
	run := &Run{Start: eng.Now()}
	var failed []Task
	outstanding := 0
	lanes := 0
	var wake sim.WaitQueue

	take := func() (pending, bool) {
		if len(queue) == 0 {
			return pending{}, false
		}
		t := queue[0]
		queue = queue[1:]
		outstanding++
		return t, true
	}
	finish := func(t pending, w netsim.Addr, started sim.Time, err error) {
		outstanding--
		if err == nil {
			run.Results = append(run.Results, TaskResult{
				Task: t.task, Worker: w, Started: started,
				Finished: eng.Now(), Attempts: t.attempts + 1,
			})
		} else if t.attempts+1 < maxAttempts {
			t.attempts++
			run.Requeues++
			queue = append(queue, t)
		} else {
			failed = append(failed, t.task)
		}
		wake.Broadcast()
	}

	for _, w := range workers {
		for lane := 0; lane < opts.LanesPerWorker; lane++ {
			w := w
			lanes++
			eng.Spawn(fmt.Sprintf("bot-lane-%s", w), func(lp *sim.Proc) {
				defer func() {
					lanes--
					wake.Broadcast()
				}()
				var conn *ipstack.Conn
				defer func() {
					if conn != nil {
						conn.Close()
					}
				}()
				for {
					t, ok := take()
					if !ok {
						// Tasks in flight elsewhere may still be requeued
						// (worker failure); park until the bag settles.
						if outstanding == 0 {
							return
						}
						if !wake.Wait(lp) {
							return
						}
						continue
					}
					started := lp.Now()
					if conn == nil {
						c, err := master.Dial(lp, w)
						if err != nil {
							finish(t, w, started, err)
							return // this worker is unreachable; stop its lane
						}
						conn = c
					}
					var watchdog *sim.Timer
					if opts.TaskTimeout > 0 {
						c := conn
						watchdog = sim.NewTimer(eng, func() { c.Abort() })
						watchdog.Reset(opts.TaskTimeout)
					}
					err := dispatch(lp, conn, t.task)
					if watchdog != nil {
						watchdog.Stop()
					}
					if err != nil {
						conn.Abort()
						conn = nil
						finish(t, w, started, err)
						return
					}
					finish(t, w, started, nil)
				}
			})
		}
	}

	for outstanding > 0 || (len(queue) > 0 && lanes > 0) {
		if !wake.Wait(p) {
			return nil, errors.New("bot: interrupted")
		}
	}
	run.End = eng.Now()
	sort.Slice(run.Results, func(i, j int) bool { return run.Results[i].Task.ID < run.Results[j].Task.ID })
	if len(failed) > 0 || len(run.Results) != len(tasks) {
		return run, fmt.Errorf("bot: %d of %d tasks undeliverable", len(tasks)-len(run.Results), len(tasks))
	}
	return run, nil
}

// dispatch ships one task over an established connection and waits for
// its result.
func dispatch(p *sim.Proc, conn *ipstack.Conn, t Task) error {
	hdr := make([]byte, taskHeaderLen)
	binary.BigEndian.PutUint64(hdr[0:], uint64(t.ID))
	binary.BigEndian.PutUint32(hdr[8:], uint32(t.InputBytes))
	binary.BigEndian.PutUint64(hdr[12:], uint64(t.Compute))
	binary.BigEndian.PutUint32(hdr[20:], uint32(t.OutputBytes))
	if _, err := conn.Write(p, hdr); err != nil {
		return err
	}
	if err := writeZeros(p, conn, t.InputBytes); err != nil {
		return err
	}
	resp := make([]byte, resultHeaderLen)
	if err := readFull(p, conn, resp); err != nil {
		return err
	}
	if got := binary.BigEndian.Uint64(resp[0:]); got != uint64(t.ID) {
		return fmt.Errorf("bot: result for task %d, expected %d", got, t.ID)
	}
	outLen := int(binary.BigEndian.Uint32(resp[8:]))
	return discard(p, conn, outLen)
}

// ---- stream helpers ----

func readFull(p *sim.Proc, conn *ipstack.Conn, buf []byte) error {
	for off := 0; off < len(buf); {
		n, err := conn.Read(p, buf[off:])
		off += n
		if err != nil {
			if err == io.EOF && off == len(buf) {
				return nil
			}
			return err
		}
	}
	return nil
}

func discard(p *sim.Proc, conn *ipstack.Conn, n int) error {
	buf := make([]byte, 32<<10)
	for n > 0 {
		want := n
		if want > len(buf) {
			want = len(buf)
		}
		got, err := conn.Read(p, buf[:want])
		n -= got
		if err != nil {
			if err == io.EOF && n <= 0 {
				return nil
			}
			return err
		}
	}
	return nil
}

func writeZeros(p *sim.Proc, conn *ipstack.Conn, n int) error {
	buf := make([]byte, 32<<10)
	for n > 0 {
		want := n
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := conn.Write(p, buf[:want]); err != nil {
			return err
		}
		n -= want
	}
	return nil
}
