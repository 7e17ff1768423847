// Package placement is the tenant-aware VM scheduler: given a VM that
// needs a host, it picks the best member of the VM's virtual network.
//
// The scheduler composes three signals, in strict priority order:
//
//   - federation scope: a candidate must be homed on one of the brokers
//     the VM's network declares (NetworkSpec.Brokers) — a VM's vif must
//     never land on a host whose records live outside the tenant's
//     declared broker set;
//   - locality: the distance locator's measured RTT matrix is run
//     through the paper's locality-sensitive grouping
//     (grouping.LocalitySensitiveFiltered), and candidates inside the
//     resulting mutually-near core are preferred — a VM placed there
//     talks to most of its co-tenants over short edges;
//   - load: within a tier, candidates carrying fewer VMs (then less VM
//     memory, then lower mean RTT) win, so placement spreads instead of
//     piling onto one machine.
//
// The scheduler is deliberately stateless about the fleet: callers
// (vpc.Manager's reconciler) pass the current candidates and matrix on
// every decision, which keeps it trivially correct under membership
// churn and broker failover.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"wavnet/internal/grouping"
	"wavnet/internal/obs"
	"wavnet/internal/sim"
)

// Errors returned by the scheduler.
var (
	// ErrNoCandidates means the request's constraints excluded every
	// candidate host (or none were offered).
	ErrNoCandidates = errors.New("placement: no eligible candidate host")
)

// Candidate is one host eligible to run a VM: a member of the VM's
// network, with its declared home broker and its current VM load.
type Candidate struct {
	// Key is the machine key / WAVNet host name.
	Key string
	// Broker is the broker the host is declared to home on ("" = the
	// fabric's primary broker).
	Broker string
	// VMs is the number of the tenant's VMs already placed on this host.
	VMs int
	// MemMB is the VM memory (MB) already placed on this host.
	MemMB int
}

// Request describes the VM that needs a host.
type Request struct {
	// VM names the VM (diagnostics only).
	VM string
	// MemoryMB is the VM's image size.
	MemoryMB int
	// Brokers is the network's declared federation; a candidate homed on
	// an unnamed broker is excluded. Empty disables the check (an
	// unfederated network admits members on the primary broker only, so
	// every candidate is in scope by construction).
	Brokers []string
}

// Config tunes the scheduler.
type Config struct {
	// GroupSize is the size k of the locality core the scheduler asks
	// the grouping algorithm for; 0 derives it as half the candidates
	// (minimum 2).
	GroupSize int
	// MaxEdge is the "reasonable connection" cutoff handed to
	// LocalitySensitiveFiltered: candidate cores containing a pairwise
	// RTT above it are discarded (0 disables the filter).
	MaxEdge sim.Duration
}

// Decision reports one placement choice with its scoring diagnostics.
type Decision struct {
	// Host is the chosen machine key.
	Host string
	// InGroup reports whether the chosen host sits inside the locality
	// core (false when no RTT data was available).
	InGroup bool
	// MeanRTT is the chosen host's mean measured RTT to the other
	// candidates (0 when unmeasured).
	MeanRTT sim.Duration
	// Group is the locality core the matrix produced (nil without data).
	Group []string
}

// Scheduler scores candidates and counts its decisions.
type Scheduler struct {
	cfg Config

	// Decision statistics (ScrapeInto exports them): placements made,
	// choices that landed inside the locality core, decisions taken with
	// no RTT data at all, decisions where data existed but no usable
	// core emerged, and candidates excluded by the federation scope.
	Placements, GroupHits, NoMatrix, CoreUnusable, FilteredBroker uint64
}

// New returns a scheduler.
func New(cfg Config) *Scheduler { return &Scheduler{cfg: cfg} }

// ScrapeInto copies the decision statistics into r under l as
// "placement.*" counters.
func (s *Scheduler) ScrapeInto(r *obs.Registry, l obs.Labels) {
	r.Counter("placement.placements", l).Add(s.Placements)
	r.Counter("placement.group_hits", l).Add(s.GroupHits)
	r.Counter("placement.no_matrix", l).Add(s.NoMatrix)
	r.Counter("placement.core_unusable", l).Add(s.CoreUnusable)
	r.Counter("placement.filtered_broker", l).Add(s.FilteredBroker)
}

// score is one candidate's evaluated standing.
type score struct {
	cand    Candidate
	inGroup bool
	mean    sim.Duration
	known   bool // at least one measured RTT to another candidate
}

// Choose picks a host for the request from cands. names/rtts is the
// distance locator's accumulated matrix (rows follow names; 0 entries
// are unmeasured); candidates absent from it are scored by load alone.
func (s *Scheduler) Choose(req Request, cands []Candidate, names []string, rtts [][]sim.Duration) (Decision, error) {
	// Federation scope first: it is a hard constraint, not a preference.
	eligible := make([]Candidate, 0, len(cands))
	if len(req.Brokers) > 0 {
		named := make(map[string]bool, len(req.Brokers))
		for _, b := range req.Brokers {
			named[b] = true
		}
		for _, c := range cands {
			if named[c.Broker] {
				eligible = append(eligible, c)
			} else {
				s.FilteredBroker++
			}
		}
	} else {
		eligible = append(eligible, cands...)
	}
	if len(eligible) == 0 {
		return Decision{}, fmt.Errorf("%w: %s (offered %d)", ErrNoCandidates, req.VM, len(cands))
	}

	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	scores := make([]score, len(eligible))
	for i, c := range eligible {
		scores[i] = score{cand: c}
		ci, ok := idx[c.Key]
		if !ok {
			continue
		}
		var sum sim.Duration
		n := 0
		for _, other := range eligible {
			oi, ok := idx[other.Key]
			if !ok || oi == ci {
				continue
			}
			if d := rtts[ci][oi]; d > 0 {
				sum += d
				n++
			}
		}
		if n > 0 {
			scores[i].mean = sum / sim.Duration(n)
			scores[i].known = true
		}
	}

	// Locality core over the measured sub-matrix of eligible candidates.
	group, measured := s.localityCore(eligible, idx, rtts)
	switch {
	case group != nil:
		in := make(map[string]bool, len(group))
		for _, name := range group {
			in[name] = true
		}
		for i := range scores {
			scores[i].inGroup = in[scores[i].cand.Key]
		}
	case measured:
		// RTT data existed but the grouping produced no usable core:
		// distinct from having no data at all, which usually means RTT
		// reporting is not wired up.
		s.CoreUnusable++
	default:
		s.NoMatrix++
	}

	sort.SliceStable(scores, func(a, b int) bool {
		x, y := scores[a], scores[b]
		if x.inGroup != y.inGroup {
			return x.inGroup
		}
		if x.cand.VMs != y.cand.VMs {
			return x.cand.VMs < y.cand.VMs
		}
		if x.cand.MemMB != y.cand.MemMB {
			return x.cand.MemMB < y.cand.MemMB
		}
		if x.known != y.known {
			return x.known // measured hosts beat unmeasured ties
		}
		if x.mean != y.mean {
			return x.mean < y.mean
		}
		return x.cand.Key < y.cand.Key
	})
	best := scores[0]
	s.Placements++
	if best.inGroup {
		s.GroupHits++
	}
	return Decision{
		Host:    best.cand.Key,
		InGroup: best.inGroup,
		MeanRTT: best.mean,
		Group:   group,
	}, nil
}

// localityCore runs the paper's locality-sensitive grouping over the
// eligible candidates' measured sub-matrix and returns the core's
// member names (nil when none could be formed). measured reports
// whether any pairwise RTT data existed at all.
func (s *Scheduler) localityCore(eligible []Candidate, idx map[string]int, rtts [][]sim.Duration) (group []string, measured bool) {
	var rows []int
	var keys []string
	for _, c := range eligible {
		if i, ok := idx[c.Key]; ok {
			rows = append(rows, i)
			keys = append(keys, c.Key)
		}
	}
	if len(rows) < 2 {
		return nil, false
	}
	sub := make([][]sim.Duration, len(rows))
	for r, i := range rows {
		sub[r] = make([]sim.Duration, len(rows))
		for c, j := range rows {
			sub[r][c] = rtts[i][j]
			if r != c && sub[r][c] > 0 {
				measured = true
			}
		}
	}
	if !measured {
		return nil, false
	}
	k := s.cfg.GroupSize
	if k <= 0 {
		k = (len(rows) + 1) / 2
	}
	if k < 2 {
		k = 2
	}
	if k > len(rows) {
		k = len(rows)
	}
	sel, err := grouping.LocalitySensitiveFiltered(sub, k, s.cfg.MaxEdge)
	if err != nil {
		return nil, true
	}
	out := make([]string, len(sel))
	for i, r := range sel {
		out[i] = keys[r]
	}
	sort.Strings(out)
	return out, true
}
