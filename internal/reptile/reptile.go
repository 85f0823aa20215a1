// Package reptile implements federated Reptile (Nichol, Achiam, Schulman:
// "On First-Order Meta-Learning Algorithms"), the first-order meta-learning
// baseline the paper's related-work section positions FedML against.
//
// Each round, every node runs InnerSteps full-batch gradient-descent steps
// on its K-sample training split starting from the global parameters, and
// the platform moves the global parameters toward the data-size-weighted
// average of the adapted parameters with meta step ε:
//
//	θ ← (1−ε)·θ + ε·Σ_i ω_i φ_i.
//
// With ε = 1 and local steps on the full local dataset this degenerates to
// FedAvg; the interesting regimes use ε < 1 and few-shot inner runs, which
// approximate the MAML update to first order without any Hessian term.
package reptile

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

// Config holds the federated Reptile hyper-parameters.
type Config struct {
	// InnerLR is the task-level gradient-descent rate.
	InnerLR float64
	// MetaLR is the interpolation step ε ∈ (0, 1].
	MetaLR float64
	// InnerSteps is the number of local gradient steps per round.
	InnerSteps int
	// Rounds is the number of global rounds.
	Rounds int
	// Seed drives the default initialization.
	Seed uint64
	// Workers bounds the per-round node fan-out (0 = GOMAXPROCS). Results
	// are bit-identical for every worker count.
	Workers int
	// OnRound, when non-nil, is invoked after every round. theta is a
	// reused buffer, overwritten next round: borrowed for the duration of
	// the call, Clone to retain.
	OnRound func(round int, theta tensor.Vec)
	// Observer, when non-nil, receives round lifecycle events
	// (obs.TypeRoundStart/TypeRoundEnd with wall-clock duration and update
	// norm), so baseline runs share the FedML metrics pipeline. Nil adds
	// no overhead.
	Observer obs.RoundObserver
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.InnerLR <= 0:
		return fmt.Errorf("reptile: inner learning rate must be positive, got %v", c.InnerLR)
	case c.MetaLR <= 0 || c.MetaLR > 1:
		return fmt.Errorf("reptile: meta step ε must be in (0, 1], got %v", c.MetaLR)
	case c.InnerSteps <= 0:
		return fmt.Errorf("reptile: inner steps must be positive, got %d", c.InnerSteps)
	case c.Rounds <= 0:
		return fmt.Errorf("reptile: rounds must be positive, got %d", c.Rounds)
	}
	return nil
}

// Result is the outcome of a Reptile run.
type Result struct {
	// Theta is the final meta-initialization.
	Theta tensor.Vec
}

// Train runs federated Reptile over the federation's source nodes, using
// each node's K-sample training split for the inner runs (matching FedML's
// few-shot inner step). theta0 may be nil.
func Train(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil || fed == nil {
		return nil, errors.New("reptile: nil model or federation")
	}
	if len(fed.Sources) == 0 {
		return nil, errors.New("reptile: federation has no source nodes")
	}
	if theta0 == nil {
		theta0 = m.InitParams(rng.New(cfg.Seed))
	}
	if len(theta0) != m.NumParams() {
		return nil, fmt.Errorf("reptile: theta0 has %d params, model needs %d", len(theta0), m.NumParams())
	}

	weights := fed.Weights()
	theta := theta0.Clone()
	// Per-worker workspaces and per-node adapted-parameter slots φ_i, all
	// reused across rounds. Error slots are owned by par.ForEachWorkerErr
	// and fresh per round, so a failure in one round cannot leak into the
	// next.
	np := m.NumParams()
	wss := make([]nn.Workspace, par.Span(cfg.Workers, len(fed.Sources)))
	for w := range wss {
		wss[w] = m.NewWorkspace()
	}
	adapted := make([]tensor.Vec, len(fed.Sources))
	for i := range adapted {
		adapted[i] = tensor.NewVec(np)
	}
	avg := tensor.NewVec(np)
	var prev tensor.Vec // pre-interpolation snapshot for the update norm
	if cfg.Observer != nil {
		prev = tensor.NewVec(np)
	}
	for round := 1; round <= cfg.Rounds; round++ {
		var roundT0 time.Time
		if cfg.Observer != nil {
			roundT0 = time.Now()
			prev.CopyFrom(theta)
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundStart, Round: round, Iter: (round - 1) * cfg.InnerSteps,
				T0: cfg.InnerSteps, Alive: len(fed.Sources),
			})
		}
		// Inner runs are independent; run them on the pool and keep the
		// aggregation order fixed by index for determinism.
		err := par.ForEachWorkerErr(cfg.Workers, len(fed.Sources), func(w, i int) error {
			phi := adapted[i]
			phi.CopyFrom(theta)
			for s := 0; s < cfg.InnerSteps; s++ {
				m.GradStepInto(wss[w], phi, fed.Sources[i].Train, cfg.InnerLR, phi)
			}
			if !phi.IsFinite() {
				return fmt.Errorf("reptile: node %d diverged in round %d", i, round)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		tensor.WeightedSumInto(avg, weights, adapted)
		// θ ← (1−ε)θ + ε·avg.
		theta.ScaleInPlace(1 - cfg.MetaLR)
		theta.Axpy(cfg.MetaLR, avg)
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundEnd, Round: round, Iter: round * cfg.InnerSteps,
				T0: cfg.InnerSteps, Alive: len(fed.Sources), Dur: time.Since(roundT0),
				Value: theta.Dist(prev),
			})
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, theta)
		}
	}
	return &Result{Theta: theta}, nil
}
