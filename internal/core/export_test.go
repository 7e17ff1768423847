package core

import (
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// JoinAny registers with the first reachable rendezvous server in the
// list — the paper's "sending a joining message to at least one
// rendezvous server" — through the election a re-home runs. Servers are
// tried in order; a dead broker costs one STUN/RPC timeout before the
// next is attempted. The list becomes the host's standing candidate set
// for broker failover.
func (h *Host) JoinAny(p *sim.Proc, rdvs []netsim.Addr) error {
	h.candidates = append([]netsim.Addr(nil), rdvs...)
	return h.electAndJoin(p, rdvs)
}
