package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RunAsyncPlatform executes the buffered-async variant of the platform loop:
// instead of gating every round on a full gather barrier, it applies node
// updates as they arrive with staleness-decayed weights and keeps
// re-broadcasting the current θ, so one straggler no longer sets the pace of
// the whole federation. It is RunPlatform with cfg.Async set.
//
// The consistency model (DESIGN.md §12):
//
//   - θ carries a version: the number of aggregations applied so far
//     (== CommStats.Rounds). Every broadcast and probe is stamped with it
//     (transport.Msg.Version) and nodes echo the stamp on their reply.
//   - Each node holds at most one outstanding assignment. A node with no
//     work in flight gets the current θ at the current version; a node still
//     computing keeps its old assignment and is simply left alone.
//   - At delivery, an update's staleness s = currentVersion − echoed
//     version. It is applied with weight ω·StalenessDecay^s when
//     s ≤ MaxStaleness and discarded (CommStats.StaleDropped) otherwise.
//   - Each round the platform waits only for an AsyncQuorum fraction of the
//     assignments it dispatched *this* round (bounded by RoundTimeout), then
//     aggregates whatever has arrived — fresh or stale. Stragglers past the
//     quorum deliver in a later round at decayed weight.
//   - A node whose in-flight assignment falls MaxStaleness versions behind
//     gets one last poll: an update that has already arrived is discarded
//     past the bound (StaleDropped) and the node is handed fresh work, while
//     a node that stayed silent is suspected — its recovery then runs through
//     the ordinary probe/rejoin machinery, which in async mode is the common
//     path rather than the exception.
//
// With StalenessDecay 1, MaxStaleness 0, AsyncQuorum 1, and every node
// answering within RoundTimeout, each round dispatches to every node, waits
// for all of them, and aggregates identical slot sets in the aggregation
// core's order-independent merge — the θ trajectory is bit-identical to
// the sync loop (degenerate-case equality, mirroring the flat-vs-sharded
// guarantee).
//
// The loop is fault-tolerant by construction (cfg.RoundTimeout must be
// positive): it takes ownership of the links, and checkpoint/resume works as
// in the sync loop — the θ-version rides on the persisted Rounds counter,
// and a resumed platform restarts with no assignments in flight (the nodes
// it reconnects to are fresh processes).
func RunAsyncPlatform(links []transport.Link, weights []float64, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, error) {
	cfg.Async = true
	return RunPlatform(links, weights, theta0, cfg)
}

// writeOff retires assignments that fell past the drop bound, with one last
// poll each: a node whose answer already arrived is alive — its update is
// discarded (past the bound by construction) and the node is free for fresh
// work. A node that stayed silent goes to the probe/rejoin machinery instead
// of being waited on forever.
func (f *flatSource) writeOff(round, ver int, theta tensor.Vec, thetaNorm float64) {
	ls := f.ls
	for i, pv := range f.pending {
		if pv < 0 || ver-pv <= f.c.MaxStaleness {
			continue
		}
		f.pending[i] = -1
		msg, err := ls.gatherFrom(i, round, theta, f.pollTO, true)
		if err != nil {
			ls.gatherFailed(i, round, msg, fmt.Errorf("in-flight update at version %d exceeded staleness bound %d at version %d: %w", pv, f.c.MaxStaleness, ver, err))
			continue
		}
		f.deliver(i, round, ver-msg.Version, msg, theta, thetaNorm)
	}
}

// idle clears the round's fresh set and keeps the selected nodes with no
// work in flight; nodes still computing keep their older assignment.
func (f *flatSource) idle(selected []int) []int {
	clear(f.fresh)
	free := make([]int, 0, len(selected))
	for _, i := range selected {
		if f.pending[i] < 0 {
			free = append(free, i)
		}
	}
	return free
}

// sweep records this round's dispatches (sent) as pending at version ver,
// then polls every link with work in flight until the quorum of the fresh
// assignments has resolved (or the round deadline passes). Stragglers from
// earlier rounds deliver here too — they just don't gate the quorum.
func (f *flatSource) sweep(round, ver int, theta tensor.Vec, thetaNorm float64, sent []int) {
	ls := f.ls
	for _, i := range sent {
		f.pending[i] = ver
		f.fresh[i] = true
	}
	need := int(math.Ceil(f.c.AsyncQuorum * float64(len(sent))))
	resolvedFresh, resolvedAny := 0, 0
	resolve := func(i int) {
		f.pending[i] = -1
		resolvedAny++
		if f.fresh[i] {
			f.fresh[i] = false
			resolvedFresh++
		}
	}
	deadline := time.Now().Add(f.c.RoundTimeout)
	for time.Now().Before(deadline) {
		if len(sent) > 0 && resolvedFresh >= need || len(sent) == 0 && resolvedAny > 0 {
			break
		}
		anyPending := false
		for i, pv := range f.pending {
			if pv < 0 {
				continue
			}
			anyPending = true
			msg, err := ls.gatherFrom(i, round, theta, f.pollTO, true)
			switch {
			case err == nil:
				f.deliver(i, round, ver-msg.Version, msg, theta, thetaNorm)
				if msg.Version == pv {
					resolve(i)
				}
			case errors.Is(err, transport.ErrTimeout):
				// Nothing arrived within this poll; try again next pass.
			default:
				ls.gatherFailed(i, round, msg, err)
				resolve(i)
			}
		}
		if !anyPending {
			break
		}
	}
}
