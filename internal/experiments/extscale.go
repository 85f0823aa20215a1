package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// The paper frames the platform as a coordinator for fleets of edge devices,
// but every experiment so far ran tens of nodes — one goroutine each. This
// extension exercises the two-tier topology at fleet scale on one machine:
// simulated nodes (core.SimNodeLink, a few words of state each, no
// goroutines) behind real RunShardAggregator/RunDirector instances, driving
// 10⁵–10⁶ nodes per round through the exact production round loop. The node
// dynamics are linear, u = θ + η(c_i − θ), so the trained θ has a closed
// form — θ_R = c̄_ω + (1−η)^R (θ0 − c̄_ω) — and the run verifies itself:
// the aggregate must match the closed form and the director's traffic
// totals must equal the sum of the shard totals exactly.

// ExtScaleConfig parameterizes the fleet-scale simulation.
type ExtScaleConfig struct {
	Scale Scale
	// Nodes is the simulated fleet size.
	Nodes int
	// Shards is the number of leaf aggregators the fleet is split across.
	Shards int
	// Dim is the simulated model dimension (kept small: the experiment
	// measures coordination overhead, not FLOPs).
	Dim int
	// Rounds is the number of global aggregations.
	Rounds int
	// Eta is the contraction rate of the linear node dynamics.
	Eta  float64
	Seed uint64
}

// DefaultExtScaleConfig returns the experiment configuration: 4096 nodes in
// CI, 262144 (2.6×10⁵) at paper scale.
func DefaultExtScaleConfig(scale Scale) ExtScaleConfig {
	cfg := ExtScaleConfig{
		Scale:  scale,
		Nodes:  262144,
		Shards: 8,
		Dim:    16,
		Rounds: 3,
		Eta:    0.3,
		Seed:   17,
	}
	if scale == ScaleCI {
		cfg.Nodes = 4096
		cfg.Shards = 4
	}
	return cfg
}

// ExtScaleResult is the measured outcome; it is recorded as is under
// "ext_scale".
type ExtScaleResult struct {
	Scale  Scale `json:"scale"`
	Nodes  int   `json:"nodes"`
	Shards int   `json:"shards"`
	Dim    int   `json:"dim"`
	Rounds int   `json:"rounds"`
	// Elapsed is the wall-clock of the director's full run.
	Elapsed time.Duration `json:"elapsed_ns"`
	// RoundsPerSec and NodeRoundsPerSec are the coordination throughput.
	RoundsPerSec     float64 `json:"rounds_per_sec"`
	NodeRoundsPerSec float64 `json:"node_rounds_per_sec"`
	// StatsParity reports whether the root traffic counters equal the sum
	// of the shard counters (they must).
	StatsParity bool `json:"stats_parity"`
	// MaxClosedFormErr is the max-abs deviation of the final θ from the
	// linear dynamics' closed form.
	MaxClosedFormErr float64 `json:"max_closed_form_err"`
	// Root is the director's accounting.
	Root core.CommStats `json:"-"`
}

// Gate is ext-scale's acceptance check: the root traffic equals the shard
// sum, and the aggregate tracks the closed form to FP accumulation error,
// not algorithmic error.
func (r *ExtScaleResult) Gate() error {
	if !r.StatsParity {
		return fmt.Errorf("root stats diverged from shard sum: %+v", r.Root)
	}
	if !(r.MaxClosedFormErr <= 1e-9) {
		return fmt.Errorf("closed-form deviation %v above 1e-9", r.MaxClosedFormErr)
	}
	return nil
}

// simCenter derives node i's fixed point c_i deterministically; the Update
// callback regenerates it per round instead of storing n·dim floats.
func simCenter(seed uint64, i, dim int, out []float64) {
	r := rng.New(seed ^ 0xc0ffee).Split(uint64(i))
	for d := 0; d < dim; d++ {
		out[d] = r.Norm()
	}
}

func simWeight(i int) float64 { return 0.5 + float64(i%10)/10 }

// RunExtScale builds the simulated fleet, runs the two-tier topology, and
// verifies the aggregate against the closed form.
func RunExtScale(cfg ExtScaleConfig) (*ExtScaleResult, error) {
	n, dim := cfg.Nodes, cfg.Dim
	if n < 1 || cfg.Shards < 1 || dim < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("ext-scale: bad config %+v", cfg)
	}
	eta := cfg.Eta

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = simWeight(i)
	}
	// Weighted fixed-point mean c̄_ω for the closed form.
	cbar := tensor.NewVec(dim)
	ci := make([]float64, dim)
	var wsum float64
	for i := 0; i < n; i++ {
		simCenter(cfg.Seed, i, dim, ci)
		w := weights[i]
		wsum += w
		for d := range cbar {
			cbar[d] += w * ci[d]
		}
	}
	for d := range cbar {
		cbar[d] /= wsum
	}

	runCfg := core.Config{
		Alpha: 0.01, Beta: 0.01, // required by validation; unused by SimNodeLink dynamics
		T: cfg.Rounds, T0: 1,
		Seed: cfg.Seed,
	}
	ranges := core.ShardRanges(n, cfg.Shards)
	dirLinks := make([]transport.Link, len(ranges))
	shardErrs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for s, r := range ranges {
		var shardLink transport.Link
		dirLinks[s], shardLink = transport.Pair()
		links := make([]transport.Link, r.Hi-r.Lo)
		sim := make([]core.SimNodeLink, r.Hi-r.Lo)
		// One center scratch per shard: a shard drives its links from one
		// goroutine, so the sequential Update calls may share it.
		scratch := make([]float64, dim)
		for k := range sim {
			sim[k] = core.SimNodeLink{
				ID: r.Lo + k,
				Update: func(id, round, t0 int, theta []float64) []float64 {
					// u = θ + η(c_i − θ), computed in place; the per-node
					// center is regenerated from (seed, id) each call.
					simCenter(cfg.Seed, id, len(theta), scratch)
					for d := range theta {
						theta[d] += eta * (scratch[d] - theta[d])
					}
					return theta
				},
			}
			links[k] = &sim[k]
		}
		wg.Add(1)
		go func(s int, r core.ShardRange, up transport.Link, links []transport.Link) {
			defer wg.Done()
			shardErrs[s] = core.RunShardAggregator(up, links, weights[r.Lo:r.Hi], r, runCfg)
		}(s, r, shardLink, links)
	}

	theta0 := tensor.NewVec(dim) // origin start keeps the closed form simple
	start := time.Now()
	theta, root, shardStats, err := core.RunDirector(dirLinks, ranges, theta0, runCfg)
	elapsed := time.Since(start)
	for _, l := range dirLinks {
		_ = l.Close()
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("ext-scale director: %w", err)
	}
	for s, serr := range shardErrs {
		if serr != nil {
			return nil, fmt.Errorf("ext-scale shard %d: %w", s, serr)
		}
	}

	// Closed form: θ_R = c̄ + (1−η)^R (θ0 − c̄); θ0 = 0.
	decay := math.Pow(1-eta, float64(cfg.Rounds))
	var maxErr float64
	for d := range theta {
		want := cbar[d] * (1 - decay)
		if e := math.Abs(theta[d] - want); e > maxErr {
			maxErr = e
		}
	}

	var sum core.CommStats
	for _, s := range shardStats {
		sum.Messages += s.Messages
		sum.Bytes += s.Bytes
		sum.Dropped += s.Dropped
		sum.Rejoined += s.Rejoined
		sum.Rejected += s.Rejected
	}
	parity := sum.Messages == root.Messages && sum.Bytes == root.Bytes &&
		root.Messages == 2*n*cfg.Rounds

	secs := elapsed.Seconds()
	return &ExtScaleResult{
		Scale: cfg.Scale, Nodes: n, Shards: cfg.Shards, Dim: dim, Rounds: cfg.Rounds,
		Elapsed:          elapsed,
		RoundsPerSec:     float64(cfg.Rounds) / secs,
		NodeRoundsPerSec: float64(cfg.Rounds) * float64(n) / secs,
		MaxClosedFormErr: maxErr,
		StatsParity:      parity,
		Root:             root,
	}, nil
}

// Render implements the printable experiment.
func (r *ExtScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: fleet-scale two-tier aggregation (simulated nodes, production round loop)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-6s %-8s %-12s %-12s %-16s\n", "nodes", "shards", "dim", "rounds", "elapsed", "rounds/s", "node-rounds/s")
	fmt.Fprintf(&b, "%-10d %-8d %-6d %-8d %-12s %-12.2f %-16.0f\n",
		r.Nodes, r.Shards, r.Dim, r.Rounds, r.Elapsed.Round(time.Millisecond), r.RoundsPerSec, r.NodeRoundsPerSec)
	fmt.Fprintf(&b, "traffic: %d msgs, %d bytes; stats parity (root == Σ shards, 2 msgs/node/round): %v\n",
		r.Root.Messages, r.Root.Bytes, r.StatsParity)
	fmt.Fprintf(&b, "closed-form max |θ−θ*| = %.3g (linear dynamics self-check)\n", r.MaxClosedFormErr)
	return b.String()
}
