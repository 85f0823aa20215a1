package core

import (
	"errors"
	"sync"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// ShardedOptions shapes the two-tier topology built by TrainSharded.
type ShardedOptions struct {
	// Shards is the number of leaf shard aggregators. Used only when Ranges
	// is nil; ShardRanges(n, Shards) plans the layout.
	Shards int
	// Ranges, when non-nil, is an explicit shard layout. It must tile the
	// node index space with boundaries on merge-recursion split points
	// (validateRanges); use ShardRanges to generate one.
	Ranges []ShardRange
	// ShardObserver, when non-nil, supplies a per-shard observer for the
	// shard aggregators' round and traffic events. Cfg.Observer stays with
	// the director: sharing one observer across shards would interleave
	// round streams, so each shard gets its own (typically its own JSONL
	// file — see cmd/fedml -shards).
	ShardObserver func(shard int) obs.RoundObserver
}

// ShardedResult is the outcome of a two-tier federated meta-training run.
type ShardedResult struct {
	// Theta is the final global model initialization θ.
	Theta tensor.Vec
	// Comm is the root accounting: traffic and fault counters are the exact
	// sum of the shard counters, Rounds/SkippedRounds count global
	// aggregations.
	Comm CommStats
	// Shards holds each shard aggregator's own cumulative accounting.
	Shards []CommStats
}

// TrainSharded runs FedML through the two-tier topology fully in-process:
// each source node of fed executes in its own goroutine behind an in-memory
// link, the node links are partitioned into contiguous shards each owned by
// a RunShardAggregator goroutine, and a RunDirector merges the shard
// partials; the node fleet and its teardown are Train's (runFleet). Because the shard layout aligns with the aggregation core's
// merge recursion, the θ sequence is bit-identical to Train over the same
// federation whenever the same updates arrive.
//
// Division of labor inside cfg: the director keeps the policy surface —
// Observer, OnRound, T0Controller, CheckpointPath/Resume — while sampling,
// fault tolerance, codecs, and the sanitation guard are applied by the
// shards against their own node links (cfg.MinNodes is per shard).
// cfg.WrapLink wraps the node links with their *global* index, exactly as
// in Train; director↔shard links are an unbilled in-process control plane
// and are never wrapped.
func TrainSharded(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config, opt ShardedOptions) (*ShardedResult, error) {
	c := cfg.normalized()
	theta0, err := trainInputs(m, fed, theta0, c)
	if err != nil {
		return nil, err
	}
	n := len(fed.Sources)
	ranges := opt.Ranges
	if ranges == nil {
		if opt.Shards < 1 {
			return nil, errors.New("core: sharded training needs Shards >= 1 or an explicit Ranges layout")
		}
		ranges = ShardRanges(n, opt.Shards)
	}
	if err := validateRanges(n, ranges); err != nil {
		return nil, err
	}

	res := &ShardedResult{}
	err = runFleet(m, fed, c, func(links []transport.Link) ([]error, error) {
		weights := fed.Weights()
		dirLinks := make([]transport.Link, len(ranges))
		shardErrs := make([]error, len(ranges))
		var wg sync.WaitGroup
		for s, r := range ranges {
			var shardLink transport.Link
			dirLinks[s], shardLink = transport.Pair()
			sc := c
			// The policy surface stays with the director; a shard must
			// neither re-wrap its links nor write the global checkpoint.
			sc.Observer = nil
			if opt.ShardObserver != nil {
				sc.Observer = opt.ShardObserver(s)
			}
			sc.OnRound = nil
			sc.T0Controller = nil
			sc.WrapLink = nil
			sc.CheckpointPath = ""
			sc.CheckpointEvery = 0
			sc.Resume = false
			wg.Add(1)
			go func(s int, r ShardRange, up transport.Link, sc Config) {
				defer wg.Done()
				shardErrs[s] = RunShardAggregator(up, links[r.Lo:r.Hi], weights[r.Lo:r.Hi], r, sc)
			}(s, r, shardLink, sc)
		}
		var err error
		res.Theta, res.Comm, res.Shards, err = RunDirector(dirLinks, ranges, theta0, c)
		// Tear down outside-in: closing the director links unblocks shards
		// stuck in Recv or mid-partial-Send after a director-side failure;
		// runFleet then closes the node links. In fault-tolerant mode the
		// shards' linkSets already closed the node links they own.
		for _, l := range dirLinks {
			_ = l.Close()
		}
		wg.Wait()
		return shardErrs, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
