package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// CommStats accounts for the platform↔edge traffic of one training run. Its
// counters and their billing rules are documented on transport.ShardStats,
// the one definition shared with the shard wire format and run snapshots.
type CommStats transport.ShardStats

// add accumulates other into s field by field.
func (s *CommStats) add(other CommStats) {
	s.Rounds += other.Rounds
	s.Messages += other.Messages
	s.Bytes += other.Bytes
	s.Dropped += other.Dropped
	s.Rejoined += other.Rejoined
	s.Rejected += other.Rejected
	s.SkippedRounds += other.SkippedRounds
	s.StaleApplied += other.StaleApplied
	s.StaleDropped += other.StaleDropped
	s.BudgetFiltered += other.BudgetFiltered
}

// RunPlatform executes the platform side of Algorithms 1/2: broadcast the
// current global parameters to the (possibly sampled) nodes, gather their
// local updates, and aggregate with the data-size weights (Eq. 5),
// renormalized over the responders. links[i] must connect to the node
// carrying weight weights[i]; theta0 is not modified.
//
// RunPlatform is the one-shard degenerate case of the layered architecture:
// the round engine (engine.go) driving one flat source — a linkSet (link
// layer) feeding one aggCore (aggregation core) over the whole index space
// [0, n), steered by the policy layer. RunDirector drives the same engine
// over shard partials; both produce bit-identical aggregates because every
// sum follows the aggregation core's fixed merge rule (see aggcore.go).
//
// With cfg.RoundTimeout > 0 the platform runs fault-tolerant rounds: it
// takes ownership of the links (they are closed when training ends), and a
// node that misses the deadline, disconnects, or reports an error is
// dropped and training continues while at least cfg.MinNodes remain.
// Dropped nodes are kept as suspects and re-probed with the current θ every
// round; one that answers rejoins the federation. Gathered updates pass the
// sanitation guard (see Config.GuardRadius) before aggregation, and with
// cfg.CheckpointPath set the platform snapshots its state after aggregation
// rounds and can resume from the snapshot after a crash (cfg.Resume).
//
// With cfg.Async set the same loop runs buffered-async rounds instead of
// gather barriers; see RunAsyncPlatform.
func RunPlatform(links []transport.Link, weights []float64, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, error) {
	c := cfg.normalized()
	if err := c.Validate(); err != nil {
		return nil, CommStats{}, err
	}
	f, err := newFlatSource(c, links, weights, 0)
	if err != nil {
		return nil, CommStats{}, err
	}
	defer f.ls.finish()
	theta := theta0.Clone()
	if err := f.size(len(theta)); err != nil {
		return nil, f.ls.stats, err
	}
	if err := runRounds(c, theta, f); err != nil {
		return nil, f.ls.stats, err
	}
	if err := f.ls.shutdown(); err != nil {
		return nil, f.ls.stats, err
	}
	return theta, f.ls.stats, nil
}

// flatSource is the round source over node links: the flat platform's, and
// the one a leaf shard aggregator drives per dispatch. A round is selector →
// budget filter → broadcast and probe → gather → aggregation core; the
// async fields switch the gather barrier for RunAsyncPlatform's
// version-stamped dispatch and quorum sweep (async.go).
type flatSource struct {
	c        Config
	ls       *linkSet
	weights  []float64 // by local index
	selector *participationSelector
	// pi is the uniform inclusion probability; with useHT each sampled
	// weight is divided by it and the sum normalized by fullW, the
	// merge-folded weight total of every node, instead of by the
	// responders' weight — the unbiased (Horvitz–Thompson) estimator. It
	// engages only when sampling is active; under full participation both
	// estimators coincide and the responder renormalization keeps its
	// fault-tolerance semantics.
	pi    float64
	useHT bool
	fullW float64

	// agg and bp are sized by size once the model dimension is known.
	agg *aggCore
	bp  *budgetPolicy

	// Async state, nil unless c.Async. pending[i] is the θ-version assigned
	// to node i and not yet resolved (answered, written off, or suspected);
	// -1 means the node is free. fresh marks the assignments dispatched in
	// the current round — the set the quorum is measured against. pollTO is
	// the per-link poll deadline of the gather sweep.
	pending []int
	fresh   []bool
	pollTO  time.Duration
}

var _ roundSource = (*flatSource)(nil)

// newFlatSource validates the node fleet (links[k] carries weights[k] and
// global index base+k) and builds its link layer. c must be normalized and
// validated; the caller must f.ls.finish() when the run ends.
func newFlatSource(c Config, links []transport.Link, weights []float64, base int) (*flatSource, error) {
	if len(links) == 0 {
		return nil, errors.New("core: no nodes to federate")
	}
	if len(links) != len(weights) {
		return nil, fmt.Errorf("core: %d links but %d weights", len(links), len(weights))
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: aggregation weight %v must be finite and non-negative", w)
		}
		wsum += w
	}
	if wsum <= 0 || math.IsInf(wsum, 0) {
		return nil, fmt.Errorf("core: aggregation weights sum to %v", wsum)
	}
	sel := newParticipationSelector(c, len(links), uint64(base))
	f := &flatSource{
		c:        c,
		ls:       newLinkSet(c, links, base),
		weights:  weights,
		selector: sel,
		pi:       sel.inclusionProb(),
		useHT:    c.UnbiasedParticipation && c.samplingActive(),
		// Folded with the merge rule so a director's cross-shard fold of
		// the shards' totals reproduces the flat scalar bit for bit.
		fullW: foldScalars(base, base+len(links), func(gi int) float64 { return weights[gi-base] }),
	}
	if c.Async {
		f.pending = make([]int, len(links))
		for i := range f.pending {
			f.pending[i] = -1
		}
		f.fresh = make([]bool, len(links))
		// Small enough that a silent straggler cannot stall the sweep,
		// large enough not to busy-spin the scheduler.
		f.pollTO = min(max(c.RoundTimeout/64, 200*time.Microsecond), 2*time.Millisecond)
	}
	return f, nil
}

// checkDim validates the model dimension a round engine aggregates over.
func checkDim(c Config, dim int) error {
	if dim == 0 {
		return errors.New("core: empty initial parameters")
	}
	if c.SyncMask != nil {
		return c.SyncMask.validateDim(dim)
	}
	return nil
}

// size builds the dimension-dependent state: the budget filter and the
// aggregation core over the source's global index range.
func (f *flatSource) size(dim int) error {
	if err := checkDim(f.c, dim); err != nil {
		return err
	}
	bp, err := newBudgetPolicy(f.c, f.weights, f.ls.base, dim)
	if err != nil {
		return err
	}
	f.bp = bp
	f.agg = newAggCore(f.ls.base, f.ls.base+len(f.weights), dim)
	return nil
}

func (f *flatSource) gather(round, t0 int, theta tensor.Vec) (tensor.Vec, float64, int, error) {
	sum, wsum, count, err := f.collect(round, t0, theta)
	if f.useHT {
		wsum = f.fullW
	}
	return sum, wsum, count, err
}

func (f *flatSource) dispersion(theta tensor.Vec, denom float64) float64 {
	return f.agg.dispersion(theta, denom)
}

func (f *flatSource) alive() int           { return f.ls.aliveCnt }
func (f *flatSource) counters() *CommStats { return &f.ls.stats }
func (f *flatSource) totals() CommStats    { return f.ls.stats }

// collect runs one node-facing round and returns the aggregation core's
// reduction: the weighted sum, the folded weight sum of the updates in it,
// and their count. Rejected updates are billed and counted but never reach
// the core. A non-nil error means the run must abort (strict-mode failure,
// or the alive count fell below MinNodes).
func (f *flatSource) collect(round, t0 int, theta tensor.Vec) (tensor.Vec, float64, int, error) {
	ls := f.ls
	f.agg.reset()
	thetaNorm := theta.Norm()
	// The θ-version is the aggregation count — skipped rounds leave both θ
	// and the version unchanged, so staleness measures actual drift. The
	// sync path does not stamp versions.
	ver := 0
	if f.pending != nil {
		ver = ls.stats.Rounds
		f.writeOff(round, ver, theta, thetaNorm)
	}
	selected := f.selector.selectAlive(round, ls.alive)
	if f.bp != nil {
		selected = f.bp.filter(round, t0, selected, func(i int, joules float64) {
			ls.markBudgetFiltered(i, round, joules)
		})
	}
	if f.pending != nil {
		selected = f.idle(selected)
	}
	sent, err := ls.broadcast(round, t0, ver, theta, selected)
	if err != nil {
		return nil, 0, 0, err
	}
	probed, err := ls.probe(round, t0, ver, theta)
	if err != nil {
		return nil, 0, 0, err
	}
	if f.pending != nil {
		f.sweep(round, ver, theta, thetaNorm, sent)
	} else if err := f.gatherSent(round, theta, thetaNorm, sent); err != nil {
		return nil, 0, 0, err
	}

	// Probe gathers: a suspect that answered rejoins, and its reply (at the
	// probed version, staleness 0) aggregates like any other.
	for _, i := range probed {
		msg, err := ls.gatherFrom(i, round, theta, ls.probeTO, false)
		if err != nil {
			ls.probeFailed(i)
			continue // still unreachable; stays suspect
		}
		ls.rejoin(i, round)
		s := 0
		if f.pending != nil {
			s = ver - msg.Version
		}
		f.deliver(i, round, s, msg, theta, thetaNorm)
	}
	if min := ls.minNodes(); ls.aliveCnt < min {
		return nil, 0, 0, fmt.Errorf("core: only %d nodes alive, below MinNodes=%d", ls.aliveCnt, min)
	}
	sum, wsum, count := f.agg.reduce()
	return sum, wsum, count, nil
}

// gatherSent is the sync gather barrier: wait for every broadcast's reply.
func (f *flatSource) gatherSent(round int, theta tensor.Vec, thetaNorm float64, sent []int) error {
	ls := f.ls
	for _, i := range sent {
		msg, err := ls.gatherFrom(i, round, theta, ls.c.RoundTimeout, false)
		if err != nil {
			if !ls.ft {
				return err
			}
			ls.gatherFailed(i, round, msg, err)
			continue
		}
		if err := f.deliver(i, round, 0, msg, theta, thetaNorm); err != nil {
			return err
		}
	}
	return nil
}

// deliver vets one arrived update: bill the wire bytes, apply the staleness
// drop bound (s is the update's staleness, 0 on the sync path), sanitize,
// and hand the survivor to the aggregation core at its (decayed) weight. In
// strict mode a poisoned update aborts the run instead of degrading it; that
// is the only error, so fault-tolerant callers may ignore it.
func (f *flatSource) deliver(i, round, s int, msg transport.Msg, theta tensor.Vec, thetaNorm float64) error {
	ls := f.ls
	u := tensor.Vec(msg.Params)
	bad := sanitize(u, theta, thetaNorm, f.c.GuardRadius)
	if bad != nil && !ls.ft {
		return fmt.Errorf("core: node %d round %d: %v", ls.base+i, round, bad)
	}
	// The message crossed the wire either way; account for it even when
	// the update is discarded below.
	ls.billUp(i, round, wireBytes(msg))
	switch {
	case s > f.c.MaxStaleness:
		ls.markStaleDrop(i, round, s)
		return nil
	case bad != nil:
		ls.reject(i, round, bad)
		return nil
	}
	w := f.weights[i]
	if f.useHT {
		w /= f.pi
	}
	if s > 0 {
		w *= math.Pow(f.c.StalenessDecay, float64(s))
		ls.markStaleApply(i, round, s)
	}
	f.agg.accept(ls.base+i, u, w)
	return nil
}
