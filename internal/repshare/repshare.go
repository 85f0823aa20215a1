// Package repshare implements the representation-sharing baseline
// (FedPer/LG-FedAvg style, the "shared feature extractor, local classifier"
// pattern): nodes jointly train the model's feature layers but each keeps a
// private classification head that is never synchronized. Personalization is
// thus structural — baked into the parameter layout — rather than recovered
// by post-hoc gradient adaptation as in FedML.
//
// The split rides on the Model.Segments layout metadata: every segment named
// "head.*" stays local, everything else is the shared representation. A
// model whose parameters are all head (e.g. softmax regression) is rejected
// at configuration time — there would be nothing to share.
package repshare

import (
	"errors"
	"fmt"
	"time"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// Config holds the representation-sharing hyper-parameters.
type Config struct {
	// Eta is the local gradient-descent learning rate.
	Eta float64
	// T is the total number of local iterations; T0 the number between
	// aggregations. T must be a multiple of T0.
	T, T0 int
	// Seed drives the default initialization.
	Seed uint64
	// Workers bounds the per-round node fan-out (0 = GOMAXPROCS). Results
	// are bit-identical for every worker count.
	Workers int
	// OnRound, when non-nil, is invoked after each aggregation with the
	// aggregate parameter vector (shared representation + weighted-mean
	// head). theta is a borrowed buffer; Clone to retain.
	OnRound func(round, iter int, theta tensor.Vec)
	// Observer, when non-nil, receives round lifecycle events.
	Observer obs.RoundObserver
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Eta <= 0:
		return fmt.Errorf("repshare: learning rate must be positive, got %v", c.Eta)
	case c.T <= 0 || c.T0 <= 0:
		return fmt.Errorf("repshare: T=%d and T0=%d must be positive", c.T, c.T0)
	case c.T%c.T0 != 0:
		return fmt.Errorf("repshare: T=%d must be a multiple of T0=%d", c.T, c.T0)
	}
	return nil
}

// Result is the outcome of a representation-sharing run.
type Result struct {
	// Theta is the shared representation paired with the weighted mean of
	// the local heads — the initialization a node unseen during training
	// would start from.
	Theta tensor.Vec
	// Locals holds each source node's personalized parameters: the shared
	// representation plus that node's private head.
	Locals []tensor.Vec
}

// SharedSegments returns the model's non-head segments — the representation
// block this baseline synchronizes. It errors when every parameter belongs
// to the head.
func SharedSegments(m nn.Model) ([]nn.Segment, error) {
	var shared []nn.Segment
	for _, s := range m.Segments() {
		if len(s.Name) >= 5 && s.Name[:5] == "head." {
			continue
		}
		shared = append(shared, s)
	}
	if len(shared) == 0 {
		return nil, fmt.Errorf("repshare: model %T is all head — nothing to share", m)
	}
	return shared, nil
}

// Train runs the representation-sharing baseline over the federation's
// source nodes. Each round every node takes T0 full-batch gradient steps on
// its complete local dataset, then only the shared (non-head) segments are
// aggregated and redistributed; heads never leave the node. theta0 may be
// nil.
func Train(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil || fed == nil {
		return nil, errors.New("repshare: nil model or federation")
	}
	if len(fed.Sources) == 0 {
		return nil, errors.New("repshare: federation has no source nodes")
	}
	shared, err := SharedSegments(m)
	if err != nil {
		return nil, err
	}
	if theta0 == nil {
		theta0 = m.InitParams(rng.New(cfg.Seed))
	}
	if len(theta0) != m.NumParams() {
		return nil, fmt.Errorf("repshare: theta0 has %d params, model needs %d", len(theta0), m.NumParams())
	}

	local := make([][]data.Sample, len(fed.Sources))
	for i, nd := range fed.Sources {
		local[i] = nd.All()
	}
	weights := fed.Weights()

	np := m.NumParams()
	// Every node starts from the same initialization; heads diverge from
	// round one and never re-converge.
	locals := make([]tensor.Vec, len(fed.Sources))
	for i := range locals {
		locals[i] = theta0.Clone()
	}
	wss := make([]nn.Workspace, par.Span(cfg.Workers, len(fed.Sources)))
	for w := range wss {
		wss[w] = m.NewWorkspace()
	}
	agg := tensor.NewVec(np)
	var prev tensor.Vec
	if cfg.Observer != nil {
		prev = tensor.NewVec(np)
	}
	rounds := cfg.T / cfg.T0
	for round := 1; round <= rounds; round++ {
		var roundT0 time.Time
		if cfg.Observer != nil {
			roundT0 = time.Now()
			prev.CopyFrom(agg)
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundStart, Round: round, Iter: (round - 1) * cfg.T0,
				T0: cfg.T0, Alive: len(fed.Sources),
			})
		}
		err := par.ForEachWorkerErr(cfg.Workers, len(fed.Sources), func(w, i int) error {
			ti := locals[i]
			for t := 0; t < cfg.T0; t++ {
				m.GradStepInto(wss[w], ti, local[i], cfg.Eta, ti)
			}
			if !ti.IsFinite() {
				return fmt.Errorf("repshare: node %d diverged in round %d", i, round)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Aggregate the full vectors once, then write back only the shared
		// ranges: each node keeps its private head, and agg's head range
		// doubles as the weighted-mean head the final Theta reports.
		tensor.WeightedSumInto(agg, weights, locals)
		for _, seg := range shared {
			for i := range locals {
				copy(locals[i][seg.Lo:seg.Hi], agg[seg.Lo:seg.Hi])
			}
		}
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundEnd, Round: round, Iter: round * cfg.T0,
				T0: cfg.T0, Alive: len(fed.Sources), Dur: time.Since(roundT0),
				Value: agg.Dist(prev),
			})
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, round*cfg.T0, agg)
		}
	}
	return &Result{Theta: agg, Locals: locals}, nil
}
