// Package apps implements the measurement workloads of the paper's
// evaluation — ping, ttcp, netperf TCP_STREAM and an ApacheBench-style
// HTTP load generator — as real clients and servers running on virtual
// protocol stacks. Every byte they move traverses the full encapsulation
// path, so their numbers are measurements, not models.
package apps

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// ---- ping ----

// PingRun is an in-progress or completed ICMP probe series.
type PingRun struct {
	// RTTms holds one sample per answered echo (value in milliseconds).
	RTTms *Series
	// Losses records the send times of unanswered echos.
	Losses []sim.Time
	Sent   int
	Done   bool
}

// LossRate reports the fraction of unanswered probes.
func (r *PingRun) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(len(r.Losses)) / float64(r.Sent)
}

// StartPinger launches a ping loop from st to dst: one echo every
// interval for the given duration (0 = until the run's Stop flag is
// set by the caller via the returned cancel func).
func StartPinger(st *ipstack.Stack, dst netsim.IP, interval, duration sim.Duration) (*PingRun, func()) {
	run := &PingRun{RTTms: newSeries("ping-rtt-ms")}
	stop := false
	st.Engine().Spawn("pinger", func(p *sim.Proc) {
		deadline := p.Now().Add(duration)
		for !stop && (duration == 0 || p.Now() < deadline) {
			sentAt := p.Now()
			run.Sent++
			rtt, err := st.Ping(p, dst, 56, interval)
			if err != nil {
				run.Losses = append(run.Losses, sentAt)
			} else {
				run.RTTms.Add(sentAt, msFloat(rtt))
			}
			// Keep the cadence even when the reply was fast.
			if wait := interval - p.Now().Sub(sentAt); wait > 0 {
				p.Sleep(wait)
			}
		}
		run.Done = true
	})
	return run, func() { stop = true }
}

// ---- sink servers ----

// StartSink starts a TCP sink on port that reads and discards
// everything from every connection (the netperf/ttcp server side).
func StartSink(st *ipstack.Stack, port uint16) error {
	lis, err := st.Listen(port)
	if err != nil {
		return err
	}
	st.Engine().Spawn("sink-accept", func(p *sim.Proc) {
		for {
			conn, err := lis.Accept(p)
			if err != nil {
				return
			}
			st.Engine().Spawn("sink-conn", func(cp *sim.Proc) {
				buf := make([]byte, 64<<10)
				for {
					if _, err := conn.Read(cp, buf); err != nil {
						return
					}
				}
			})
		}
	})
	return nil
}

// ---- ttcp ----

// TTCPResult is one ttcp transfer measurement.
type TTCPResult struct {
	Bytes   int64
	Elapsed sim.Duration
	// KBps is the transfer rate in kilobytes/second, as ttcp reports.
	KBps float64
}

// Mbps is the transfer rate in megabits per second.
func (r *TTCPResult) Mbps() float64 { return rate(r.Bytes, r.Elapsed) }

// TTCP performs a bulk transfer of total bytes from st to dst (which
// must run a sink), writing in bufSize chunks — the paper uses 16384.
func TTCP(p *sim.Proc, st *ipstack.Stack, dst netsim.Addr, total int64, bufSize int) (*TTCPResult, error) {
	if bufSize <= 0 {
		bufSize = 16384
	}
	conn, err := st.Dial(p, dst)
	if err != nil {
		return nil, err
	}
	start := p.Now()
	chunk := make([]byte, bufSize)
	for sent := int64(0); sent < total; {
		n := total - sent
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		if _, err := conn.Write(p, chunk[:n]); err != nil {
			return nil, err
		}
		sent += n
	}
	conn.Close()
	// Wait until everything is acknowledged (ttcp measures to completion).
	for conn.Flight() > 0 && conn.Err() == nil {
		p.Sleep(10 * sim.Millisecond)
	}
	elapsed := p.Now().Sub(start)
	return &TTCPResult{
		Bytes:   total,
		Elapsed: elapsed,
		KBps:    float64(total) / 1024 / elapsed.Seconds(),
	}, nil
}

// ---- netperf TCP_STREAM ----

// NetperfRun is a TCP_STREAM measurement: a sender that streams for a
// fixed duration and a receiver-side interval report (the paper polls
// every 500 ms during migration experiments).
type NetperfRun struct {
	// IntervalMbps holds one receiver-side throughput sample per interval.
	IntervalMbps *Series
	TotalBytes   int64
	Elapsed      sim.Duration
	Done         bool
	Err          error
}

// Mbps is the mean receiver-side throughput over the full run.
func (r *NetperfRun) Mbps() float64 { return rate(r.TotalBytes, r.Elapsed) }

// StartNetperf launches a TCP_STREAM from src to a fresh sink on dst
// port, streaming for duration with the given report interval.
func StartNetperf(src, dst *ipstack.Stack, port uint16, duration, interval sim.Duration) (*NetperfRun, error) {
	run := &NetperfRun{IntervalMbps: newSeries("netperf-mbps")}
	lis, err := dst.Listen(port)
	if err != nil {
		return nil, err
	}
	eng := src.Engine()
	var rxBytes int64
	// Receiver + interval reporter.
	eng.Spawn("netperf-recv", func(p *sim.Proc) {
		conn, err := lis.Accept(p)
		lis.Close()
		if err != nil {
			run.Err = err
			return
		}
		// Reporter samples rxBytes every interval.
		stop := false
		eng.Spawn("netperf-report", func(rp *sim.Proc) {
			last := int64(0)
			for !stop {
				rp.Sleep(interval)
				cur := rxBytes
				run.IntervalMbps.Add(rp.Now(), rate(cur-last, interval))
				last = cur
			}
		})
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(p, buf)
			rxBytes += int64(n)
			if err != nil {
				stop = true
				return
			}
		}
	})
	// Sender.
	eng.Spawn("netperf-send", func(p *sim.Proc) {
		start := p.Now()
		conn, err := src.Dial(p, netsim.Addr{IP: dst.IP(), Port: port})
		if err != nil {
			run.Err = err
			run.Done = true
			return
		}
		chunk := make([]byte, 32<<10)
		deadline := start.Add(duration)
		for p.Now() < deadline {
			if _, err := conn.Write(p, chunk); err != nil {
				break
			}
		}
		conn.Close()
		run.TotalBytes = rxBytes
		run.Elapsed = p.Now().Sub(start)
		run.Done = true
	})
	return run, nil
}

// ---- HTTP server and ApacheBench ----

// HTTPConfig tunes the synthetic HTTP server.
type HTTPConfig struct {
	// ServiceTime is the serialized per-request CPU cost (a single-core
	// Apache worker model); default 600 µs ≈ 1600 req/s peak.
	ServiceTime sim.Duration
}

// StartHTTPServer serves synthetic files: a request line "GET /<size>"
// is answered with that many bytes (e.g. "GET /8192"). This mirrors the
// paper's AB tests with 1K/8K/64K files.
func StartHTTPServer(st *ipstack.Stack, port uint16) error {
	return StartHTTPServerCfg(st, port, HTTPConfig{})
}

// StartHTTPServerCfg is StartHTTPServer with explicit tuning.
func StartHTTPServerCfg(st *ipstack.Stack, port uint16, cfg HTTPConfig) error {
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 600 * sim.Microsecond
	}
	lis, err := st.Listen(port)
	if err != nil {
		return err
	}
	eng := st.Engine()
	// busyUntil serializes request CPU across connections (one core).
	var busyUntil sim.Time
	eng.Spawn("http-accept", func(p *sim.Proc) {
		for {
			conn, err := lis.Accept(p)
			if err != nil {
				return
			}
			eng.Spawn("http-conn", func(cp *sim.Proc) {
				defer conn.Close()
				req, err := readLine(cp, conn)
				if err != nil {
					return
				}
				if cfg.ServiceTime > 0 {
					now := cp.Now()
					if busyUntil < now {
						busyUntil = now
					}
					busyUntil = busyUntil.Add(cfg.ServiceTime)
					cp.Sleep(busyUntil.Sub(now))
				}
				size := parseRequestSize(req)
				if size < 0 {
					conn.Write(cp, []byte("ERR bad request\n"))
					return
				}
				header := fmt.Sprintf("OK %d\n", size)
				if _, err := conn.Write(cp, []byte(header)); err != nil {
					return
				}
				chunk := make([]byte, 16<<10)
				for sent := 0; sent < size; {
					n := size - sent
					if n > len(chunk) {
						n = len(chunk)
					}
					if _, err := conn.Write(cp, chunk[:n]); err != nil {
						return
					}
					sent += n
				}
			})
		}
	})
	return nil
}

func parseRequestSize(req string) int {
	parts := strings.Fields(req)
	if len(parts) != 2 || parts[0] != "GET" || !strings.HasPrefix(parts[1], "/") {
		return -1
	}
	n, err := strconv.Atoi(parts[1][1:])
	if err != nil || n < 0 || n > 64<<20 {
		return -1
	}
	return n
}

func readLine(p *sim.Proc, conn *ipstack.Conn) (string, error) {
	var line []byte
	b := make([]byte, 1)
	for len(line) < 4096 {
		if _, err := conn.Read(p, b); err != nil {
			return "", err
		}
		if b[0] == '\n' {
			return string(line), nil
		}
		line = append(line, b[0])
	}
	return "", errors.New("apps: request line too long")
}

// ABResult is an ApacheBench-style report.
type ABResult struct {
	Requests int
	Failures int
	Elapsed  sim.Duration
	ConnMs   Summary // per-request TCP connect time (ms)
	TotalMs  Summary // per-request completion time (ms)
	Bytes    int64
	// ThroughputSeries samples completed requests/second per interval
	// (used by Figure 10's timeline).
	ThroughputSeries *Series
	Done             bool
}

// ReqPerSec is the mean request rate.
func (r *ABResult) ReqPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// StartAB launches concurrency worker loops fetching /<size> from the
// server for the given duration (like `ab -c N -t T`). The interval
// parameter sets the throughput sampling period (0 = no series).
func StartAB(client *ipstack.Stack, server netsim.Addr, size, concurrency int,
	duration, interval sim.Duration) *ABResult {
	res := &ABResult{ThroughputSeries: newSeries("ab-req-per-sec")}
	eng := client.Engine()
	var connMs, totalMs []float64
	start := eng.Now()
	deadline := start.Add(duration)
	live := concurrency
	var windowCount int

	if interval > 0 {
		eng.Spawn("ab-report", func(p *sim.Proc) {
			for p.Now() < deadline {
				p.Sleep(interval)
				res.ThroughputSeries.Add(p.Now(), float64(windowCount)/interval.Seconds())
				windowCount = 0
			}
		})
	}
	req := []byte(fmt.Sprintf("GET /%d\n", size))
	for w := 0; w < concurrency; w++ {
		eng.Spawn("ab-worker", func(p *sim.Proc) {
			defer func() {
				live--
				if live == 0 {
					res.Elapsed = p.Now().Sub(start)
					res.ConnMs = Summarize(connMs)
					res.TotalMs = Summarize(totalMs)
					res.Done = true
				}
			}()
			buf := make([]byte, 32<<10)
			for p.Now() < deadline {
				t0 := p.Now()
				conn, err := client.Dial(p, server)
				if err != nil {
					res.Failures++
					continue
				}
				connMs = append(connMs, msFloat(p.Now().Sub(t0)))
				if _, err := conn.Write(p, req); err != nil {
					res.Failures++
					conn.Close()
					continue
				}
				hdr, err := readLine(p, conn)
				if err != nil || !strings.HasPrefix(hdr, "OK ") {
					res.Failures++
					conn.Close()
					continue
				}
				want, _ := strconv.Atoi(strings.TrimPrefix(hdr, "OK "))
				got := 0
				ok := true
				for got < want {
					n, err := conn.Read(p, buf)
					got += n
					if err != nil {
						ok = got >= want
						break
					}
				}
				conn.Close()
				if !ok {
					res.Failures++
					continue
				}
				res.Requests++
				windowCount++
				res.Bytes += int64(got)
				totalMs = append(totalMs, msFloat(p.Now().Sub(t0)))
			}
		})
	}
	return res
}
