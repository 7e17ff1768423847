package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wavnet/internal/ether"
	"wavnet/internal/ipstack"
	"wavnet/internal/scenario"
)

// cpuProfileHz is raised from pprof's fixed 100 Hz so that a measured
// phase of a few seconds on one P still yields thousands of samples.
const cpuProfileHz = 500

// cpuLayers and allocLayers are the buckets the profiles are folded
// into; each list sums to 1.
var (
	cpuLayers = []string{"sim", "netsim", "nat", "ipstack", "ether", "core", "rendezvous", "obs", "vpc",
		"harness", "runtime.gc", "runtime.sched", "runtime.mem", "other"}
	allocLayers = []string{"sim", "netsim", "ipstack", "ether", "core", "rendezvous", "obs", "other"}
)

// tracer instruments one rep from outside: timing shims around every
// member stack's NIC, and a CPU and an allocation profile of the
// measured phase. None of it schedules an event, so a traced rep
// dispatches exactly the events an untraced one does.
type tracer struct {
	workload string
	dumpDir  string
	spans    *spanLog

	rxNs, txNs, rxNested time.Duration
	rxFrames, txFrames   uint64

	// Profiles accumulate over the traced reps: samples and sampled
	// bytes per layer, and the last rep's raw CPU profile for the dump.
	cpu        bytes.Buffer
	mem0       map[[32]uintptr]runtime.MemProfileRecord
	cpuSums    map[string]float64
	allocSums  map[string]float64
	cpuSamples float64
	err        error
}

// nicShim times the two directions of one stack's NIC. Receive time is
// the stack's self time: sends it makes while handling a frame (ACKs,
// echo replies) are charged to the transmit side only.
type nicShim struct {
	inner ether.NIC
	t     *tracer
}

func (s *nicShim) Send(f *ether.Frame) {
	t0 := time.Now()
	s.inner.Send(f)
	d := time.Since(t0)
	s.t.txNs += d
	s.t.rxNested += d
	s.t.txFrames++
}

func (s *nicShim) SetRecv(fn func(*ether.Frame)) {
	s.inner.SetRecv(func(f *ether.Frame) {
		nested := s.t.rxNested
		t0 := time.Now()
		fn(f)
		s.t.rxNs += time.Since(t0) - (s.t.rxNested - nested)
		s.t.rxFrames++
	})
}

func (t *tracer) shim(st *ipstack.Stack) {
	if _, done := st.NIC().(*nicShim); !done && st.NIC() != nil {
		st.SetNIC(&nicShim{inner: st.NIC(), t: t})
	}
}

// shimMembers wraps the NIC of every tenant member stack the world has.
func (t *tracer) shimMembers(w *scenario.World) {
	for _, n := range w.VPC().Networks() {
		for _, m := range n.Members() {
			t.shim(m.Stack)
		}
	}
}

func (t *tracer) start(w *scenario.World) {
	t.shimMembers(w)
	t.mem0 = memProfile()
	t.cpu.Reset()
	// pprof.StartCPUProfile insists on 100 Hz; a rate set beforehand
	// wins (the runtime says so on stderr and keeps ours).
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		t.err = err
	}
}

func (t *tracer) stop() {
	pprof.StopCPUProfile()
	if t.err != nil {
		return
	}
	if t.cpuSums == nil {
		t.cpuSums, t.allocSums = map[string]float64{}, map[string]float64{}
	}
	foldAllocs(t.mem0, memProfile(), t.allocSums)
	t.mem0 = nil
	t.err = foldCPU(t.cpu.Bytes(), t.cpuSums)
	t.cpuSamples = 0
	for _, n := range t.cpuSums {
		t.cpuSamples += n
	}
}

func (t *tracer) cpuShare() map[string]float64   { return normalise(t.cpuSums, cpuLayers) }
func (t *tracer) allocShare() map[string]float64 { return normalise(t.allocSums, allocLayers) }

// dump writes the raw material of the traced rep next to its summary:
// the spans as JSON, the CPU profile as pprof reads it, and the folded
// shares.
func (t *tracer) dump() error {
	if t.dumpDir == "" {
		return nil
	}
	if err := os.MkdirAll(t.dumpDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dumpDir, t.workload+".cpu.pb.gz"), t.cpu.Bytes(), 0o644); err != nil {
		return err
	}
	doc := struct {
		Workload   string             `json:"workload"`
		Spans      []span             `json:"spans"`
		CPUSamples float64            `json:"cpu_samples"`
		CPUShare   map[string]float64 `json:"cpu_share"`
		AllocShare map[string]float64 `json:"alloc_share"`
	}{t.workload, t.spans.Spans, t.cpuSamples, t.cpuShare(), t.allocShare()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dumpDir, t.workload+".trace.json"), append(b, '\n'), 0o644)
}

// ---- folding stacks into layers ----

// pkgOf returns the import path of a function's package.
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i] // type arguments and receivers may hold slashes and dots
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// repoLayer maps an import path of this repository (or the harness) to
// its layer; ok is false for everything else.
func repoLayer(pkg string) (string, bool) {
	if pkg == "main" || pkg == "wavnet/benchmark" {
		return "harness", true
	}
	name, ok := strings.CutPrefix(pkg, "wavnet/internal/")
	if !ok {
		if pkg == "wavnet" {
			return "other", true
		}
		return "", false
	}
	switch name {
	case "sim", "netsim", "nat", "ipstack", "ether", "core", "rendezvous", "obs", "vpc":
		return name, true
	case "stun", "can":
		return "rendezvous", true // the broker's own services
	case "metrics":
		return "obs", true
	case "scenario", "dhcp", "service", "placement", "vm":
		return "vpc", true
	}
	return "other", true
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/cpu" || pkg == "internal/bytealg" || pkg == "internal/chacha8rand"
}

var (
	gcFuncs = []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcMark", "gcStart", "gcSweep", "gcResetMarkState",
		"bgsweep", "bgscavenge", "markroot", "scanobject", "scanblock", "scanstack", "greyobject", "sweepone",
		"(*gcWork)", "(*gcControllerState)", "(*sweepLocked)", "(*scavengerState)", "(*pageAlloc).scavenge", "wbBufFlush", "gcWriteBarrier"}
	// helperFuncs are runtime leaves that do a caller's work, not the
	// scheduler's: their time goes to the nearest repository frame.
	helperFuncs = []string{"map", "memhash", "strhash", "aeshash", "nilinterhash", "interhash", "efaceeq", "ifaceeq", "memequal",
		"convT", "assertE2I", "assertI2I", "getitab", "(*itabTableType)", "cmpstring", "concatstring", "slicebytetostring",
		"stringtoslicebyte", "intstring", "panic", "deferreturn", "deferproc"}
	memFuncs = []string{"mallocgc", "memmove", "memclr", "growslice", "makeslice", "newobject", "newarray", "nextFree",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*pageAlloc)", "(*pageCache)", "(*fixalloc)", "(*spanSet)",
		"heapBits", "heapSetType", "typedmemmove", "bulkBarrierPreWrite", "typedslicecopy", "slicecopy", "duffcopy", "duffzero",
		"deductAssistCredit", "profilealloc", "mProf_", "roundupsize", "publicationBarrier", "makemap", "makechan", "sysUsed", "sysAlloc", "(*stkframe)",
		"stackalloc", "stackfree", "stackpool", "malg", "newstack", "copystack", "morestack", "adjustframe", "adjustpointers"}
)

func hasAny(fn string, parts []string) bool {
	short := fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(short, '.'); i >= 0 {
		short = short[i+1:]
	}
	for _, p := range parts {
		if strings.HasPrefix(short, p) {
			return true
		}
	}
	return false
}

// cpuLayer names the bucket of one CPU sample from its stack of function
// names, leaf first. Collector work is runtime.gc wherever it runs.
// Time in a repository package is that layer's. Time in the allocator
// and in copying is runtime.mem, the rest of the runtime (goroutine
// hand-offs, futex, timers) is runtime.sched — except the runtime's map,
// hash and interface helpers, which, like the rest of the standard
// library, are charged to the nearest repository frame above them.
func cpuLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		if isRuntime(pkgOf(fn)) && hasAny(fn, gcFuncs) {
			return "runtime.gc"
		}
	}
	leaf := stack[0]
	if isRuntime(pkgOf(leaf)) {
		if hasAny(leaf, memFuncs) {
			return "runtime.mem"
		}
		if !hasAny(leaf, helperFuncs) {
			return "runtime.sched"
		}
	}
	for _, fn := range stack {
		if layer, ok := repoLayer(pkgOf(fn)); ok {
			return layer
		}
	}
	return "other"
}

// allocLayer names the bucket of one allocation site: the nearest
// repository frame above the allocator.
func allocLayer(stack []string) string {
	for _, fn := range stack {
		if layer, ok := repoLayer(pkgOf(fn)); ok {
			for _, l := range allocLayers {
				if l == layer {
					return layer
				}
			}
			return "other"
		}
	}
	return "other"
}

func normalise(sums map[string]float64, layers []string) map[string]float64 {
	total := 0.0
	for _, v := range sums {
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = sums[l] / total
		}
	}
	if total == 0 {
		out["other"] = 1 // an empty profile explains nothing
	}
	return out
}

// ---- allocation profile ----

// memProfile snapshots the runtime's allocation profile. Two collections
// first: the profile only publishes allocations up to the last
// completed cycle.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
			for _, r := range recs[:n] {
				out[r.Stack0] = r
			}
			return out
		}
	}
}

func foldAllocs(before, after map[[32]uintptr]runtime.MemProfileRecord, sums map[string]float64) {
	rate := float64(runtime.MemProfileRate)
	for key, rec := range after {
		bytes, objs := rec.AllocBytes-before[key].AllocBytes, rec.AllocObjects-before[key].AllocObjects
		if bytes <= 0 || objs <= 0 {
			continue
		}
		// Undo the sampling: a site whose objects average s bytes is
		// sampled with probability 1-exp(-s/rate).
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(bytes)/float64(objs)/rate))
		}
		var names []string
		frames := runtime.CallersFrames(rec.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function != "" {
				names = append(names, fr.Function)
			}
			if !more {
				break
			}
		}
		sums[allocLayer(names)] += float64(bytes) * scale
	}
}

// ---- CPU profile ----

// foldCPU decodes the gzipped pprof protobuf the runtime wrote — only
// the four tables a stack needs — and adds the samples to their layers.
func foldCPU(gz []byte, sums map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64
		counts    []int64
		msg       = pbuf(raw)
		malformed = fmt.Errorf("cpu profile: malformed protobuf")
	)
	for len(msg) > 0 {
		num, _, data, ok := msg.field()
		if !ok {
			return malformed
		}
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			for m := pbuf(data); len(m) > 0; {
				n, v, d, ok := m.field()
				if !ok {
					return malformed
				}
				switch n {
				case 1:
					locs = appendVarints(locs, v, d)
				case 2:
					vals = appendVarints(vals, v, d)
				}
			}
			if len(vals) > 0 {
				samples = append(samples, locs)
				counts = append(counts, int64(vals[0]))
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			for m := pbuf(data); len(m) > 0; {
				n, v, d, ok := m.field()
				if !ok {
					return malformed
				}
				switch n {
				case 1:
					id = v
				case 4: // Line, innermost inlined call first
					for l := pbuf(d); len(l) > 0; {
						ln, lv, _, ok := l.field()
						if !ok {
							return malformed
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for m := pbuf(data); len(m) > 0; {
				n, v, _, ok := m.field()
				if !ok {
					return malformed
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	for i, locs := range samples {
		var stack []string
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		sums[cpuLayer(stack)] += float64(counts[i])
	}
	return nil
}

// pbuf is a cursor over protobuf wire format.
type pbuf []byte

func (b *pbuf) varint() (uint64, bool) {
	var v uint64
	for i := 0; i < len(*b) && i < 10; i++ {
		c := (*b)[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			*b = (*b)[i+1:]
			return v, true
		}
	}
	return 0, false
}

// field reads one field: val for varints, data for length-delimited
// fields. Fixed-width fields are skipped (the profile's tables have none).
func (b *pbuf) field() (num int, val uint64, data []byte, ok bool) {
	key, ok := b.varint()
	if !ok {
		return 0, 0, nil, false
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, ok = b.varint()
	case 2:
		n, ok2 := b.varint()
		if !ok2 || n > uint64(len(*b)) {
			return 0, 0, nil, false
		}
		data, *b, ok = (*b)[:n], (*b)[n:], true
	case 1:
		ok = len(*b) >= 8
		if ok {
			*b = (*b)[8:]
		}
	case 5:
		ok = len(*b) >= 4
		if ok {
			*b = (*b)[4:]
		}
	default:
		ok = false
	}
	return num, val, data, ok
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, val uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, val)
	}
	for m := pbuf(packed); len(m) > 0; {
		v, ok := m.varint()
		if !ok {
			break
		}
		dst = append(dst, v)
	}
	return dst
}
