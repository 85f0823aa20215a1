// Package fedavg implements the FedAvg baseline (McMahan et al., 2016) the
// paper compares against: each node performs T0 local full-batch gradient
// descent steps on its entire local dataset, and the platform aggregates the
// resulting parameters with data-size weights. Unlike FedML it optimizes a
// single global fit rather than an adaptation-friendly initialization, which
// is exactly the difference the Figure 3 experiments expose.
package fedavg

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

// Config holds the FedAvg hyper-parameters. The paper gives FedAvg the same
// learning rate as FedML's meta rate β.
type Config struct {
	// Eta is the local gradient-descent learning rate.
	Eta float64
	// T is the total number of local iterations; T0 the number between
	// aggregations. T must be a multiple of T0.
	T, T0 int
	// ProxMu, when positive, adds the FedProx proximal term (Sahu et al.,
	// cited by the paper for its synthetic generator): each local step
	// descends L_i(θ) + (μ/2)‖θ − θ_global‖², which tames client drift on
	// heterogeneous federations.
	ProxMu float64
	// Seed drives the default initialization.
	Seed uint64
	// Workers bounds the per-round node fan-out (0 = GOMAXPROCS). Results
	// are bit-identical for every worker count.
	Workers int
	// OnRound, when non-nil, is invoked after each aggregation. theta is
	// a reused buffer, overwritten next round: borrowed for the duration
	// of the call, Clone to retain.
	OnRound func(round, iter int, theta tensor.Vec)
	// Observer, when non-nil, receives round lifecycle events
	// (obs.TypeRoundStart/TypeRoundEnd with wall-clock duration and update
	// norm), so baseline runs share the FedML metrics pipeline. Nil adds
	// no overhead.
	Observer obs.RoundObserver
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Eta <= 0:
		return fmt.Errorf("fedavg: learning rate must be positive, got %v", c.Eta)
	case c.T <= 0 || c.T0 <= 0:
		return fmt.Errorf("fedavg: T=%d and T0=%d must be positive", c.T, c.T0)
	case c.T%c.T0 != 0:
		return fmt.Errorf("fedavg: T=%d must be a multiple of T0=%d", c.T, c.T0)
	case c.ProxMu < 0:
		return fmt.Errorf("fedavg: proximal coefficient must be non-negative, got %v", c.ProxMu)
	}
	return nil
}

// Result is the outcome of a FedAvg run.
type Result struct {
	// Theta is the final global model.
	Theta tensor.Vec
}

// Train runs FedAvg over the federation's source nodes. Each node trains on
// its entire local dataset (train ∪ test), matching the paper's setup
// ("the entire dataset is used for training in Fedavg"). theta0 may be nil.
func Train(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil || fed == nil {
		return nil, errors.New("fedavg: nil model or federation")
	}
	if len(fed.Sources) == 0 {
		return nil, errors.New("fedavg: federation has no source nodes")
	}
	if theta0 == nil {
		theta0 = m.InitParams(rng.New(cfg.Seed))
	}
	if len(theta0) != m.NumParams() {
		return nil, fmt.Errorf("fedavg: theta0 has %d params, model needs %d", len(theta0), m.NumParams())
	}

	// Cache each node's full local dataset.
	local := make([][]data.Sample, len(fed.Sources))
	for i, nd := range fed.Sources {
		local[i] = nd.All()
	}
	weights := fed.Weights()

	theta := theta0.Clone()
	rounds := cfg.T / cfg.T0
	// Per-worker scratch (one workspace and gradient buffer per pool
	// worker) plus per-node parameter buffers, all reused across rounds so
	// the steady-state round loop allocates only error slots. Earlier
	// revisions kept a single nodeErrs slice alive across rounds, which
	// let a stale slot from a failed round leak into later ones;
	// par.ForEachWorkerErr owns fresh slots per call.
	type workerScratch struct {
		ws nn.Workspace
		g  tensor.Vec // gradient buffer of the proximal step
	}
	np := m.NumParams()
	scratch := make([]workerScratch, par.Span(cfg.Workers, len(fed.Sources)))
	for w := range scratch {
		scratch[w] = workerScratch{ws: m.NewWorkspace(), g: tensor.NewVec(np)}
	}
	updates := make([]tensor.Vec, len(fed.Sources))
	for i := range updates {
		updates[i] = tensor.NewVec(np)
	}
	var prev tensor.Vec // pre-aggregation snapshot for the update norm
	if cfg.Observer != nil {
		prev = tensor.NewVec(np)
	}
	for round := 1; round <= rounds; round++ {
		var roundT0 time.Time
		if cfg.Observer != nil {
			roundT0 = time.Now()
			prev.CopyFrom(theta)
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundStart, Round: round, Iter: (round - 1) * cfg.T0,
				T0: cfg.T0, Alive: len(fed.Sources),
			})
		}
		// Nodes are independent within a round; run them on the pool.
		// theta is read-only during the fan-out and aggregation order is
		// fixed by index, so results are bit-identical for every worker
		// count.
		err := par.ForEachWorkerErr(cfg.Workers, len(fed.Sources), func(w, i int) error {
			sc := &scratch[w]
			ti := updates[i]
			ti.CopyFrom(theta)
			for t := 0; t < cfg.T0; t++ {
				if cfg.ProxMu > 0 {
					// ∇[(μ/2)‖θ_i − θ_global‖²] = μ(θ_i − θ_global); the
					// proximal term modifies the gradient, so the step
					// cannot fuse.
					m.GradInto(sc.ws, ti, local[i], sc.g)
					sc.g.Axpy(cfg.ProxMu, ti)
					sc.g.Axpy(-cfg.ProxMu, theta)
					ti.Axpy(-cfg.Eta, sc.g)
				} else {
					m.GradStepInto(sc.ws, ti, local[i], cfg.Eta, ti)
				}
			}
			if !ti.IsFinite() {
				return fmt.Errorf("fedavg: node %d diverged in round %d", i, round)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// theta never aliases the node buffers, so aggregating into it is
		// safe. OnRound borrows the reused buffer; callers must Clone to
		// retain it.
		tensor.WeightedSumInto(theta, weights, updates)
		if cfg.Observer != nil {
			cfg.Observer.Observe(obs.Event{
				Type: obs.TypeRoundEnd, Round: round, Iter: round * cfg.T0,
				T0: cfg.T0, Alive: len(fed.Sources), Dur: time.Since(roundT0),
				Value: theta.Dist(prev),
			})
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, round*cfg.T0, theta)
		}
	}
	return &Result{Theta: theta}, nil
}
