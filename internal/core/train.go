package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// Result is the outcome of a federated meta-training run.
type Result struct {
	// Theta is the final global model initialization θ.
	Theta tensor.Vec
	// Comm accounts for the platform↔edge traffic.
	Comm CommStats
}

// Train runs FedML (or Robust FedML when cfg.Robust is set) fully
// in-process: each source node of fed executes in its own goroutine,
// connected to the platform by an in-memory link. The computation is
// deterministic: aggregation order is fixed by node index and every node's
// randomness derives from cfg.Seed.
//
// theta0 may be nil, in which case the model initializes it from cfg.Seed
// (Algorithm 1 line 3).
func Train(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (*Result, error) {
	c := cfg.normalized()
	theta0, err := trainInputs(m, fed, theta0, c)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	err = runFleet(m, fed, c, func(links []transport.Link) ([]error, error) {
		var err error
		res.Theta, res.Comm, err = RunPlatform(links, fed.Weights(), theta0, c)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// trainInputs validates the inputs Train and TrainSharded share and resolves
// a nil theta0 from the model (Algorithm 1 line 3). c must be normalized.
func trainInputs(m nn.Model, fed *data.Federation, theta0 tensor.Vec, c Config) (tensor.Vec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if m == nil || fed == nil {
		return nil, errors.New("core: nil model or federation")
	}
	if len(fed.Sources) == 0 {
		return nil, errors.New("core: federation has no source nodes")
	}
	if theta0 == nil {
		theta0 = m.InitParams(rng.New(c.Seed))
	}
	if len(theta0) != m.NumParams() {
		return nil, fmt.Errorf("core: theta0 has %d params, model needs %d", len(theta0), m.NumParams())
	}
	return theta0, nil
}

// runFleet is the in-process fleet behind Train and TrainSharded: one
// RunNode goroutine per source node of fed behind an in-memory link, whose
// platform-side endpoints (wrapped by c.WrapLink, keyed by global node index
// — the fault-injection hook resilience tests and the CLI use) are handed
// to run. run returns its own error plus the errors of any tier it ran
// between itself and the nodes (the shard aggregators).
//
// Teardown closes the platform-side links, so nodes blocked on Recv after a
// platform-side failure unblock, then collects the node errors. A failure
// surfaces at every tier; when run fails, the error that carries the root
// cause is preferred: a node's, then a tier's, then run's own.
func runFleet(m nn.Model, fed *data.Federation, c Config, run func(links []transport.Link) (tierErrs []error, err error)) error {
	n := len(fed.Sources)
	platformLinks := make([]transport.Link, n)
	nodeLinks := make([]transport.Link, n)
	for i := range fed.Sources {
		platformLinks[i], nodeLinks[i] = transport.Pair()
		if c.WrapLink != nil {
			platformLinks[i] = c.WrapLink(i, platformLinks[i])
		}
	}

	var wg sync.WaitGroup
	nodeErrs := make([]error, n)
	for i, nd := range fed.Sources {
		wg.Add(1)
		go func(i int, nd *data.NodeDataset) {
			defer wg.Done()
			nodeErrs[i] = RunNode(nodeLinks[i], NodeConfig{
				ID:     i,
				Model:  m,
				Data:   nd,
				Shared: c,
			})
		}(i, nd)
	}

	tierErrs, runErr := run(platformLinks)

	for _, l := range platformLinks {
		_ = l.Close()
	}
	wg.Wait()
	for _, l := range nodeLinks {
		_ = l.Close()
	}

	if runErr != nil {
		for _, err := range append(nodeErrs, tierErrs...) {
			if err != nil && !errors.Is(err, transport.ErrClosed) {
				return fmt.Errorf("federated training: %w", err)
			}
		}
		return fmt.Errorf("federated training: %w", runErr)
	}
	for _, err := range tierErrs {
		if err != nil {
			return fmt.Errorf("federated training: %w", err)
		}
	}
	for _, err := range nodeErrs {
		// In fault-tolerant mode dropped (or raced-at-shutdown) nodes see
		// their link closed by the platform; that is expected, not failure.
		if err == nil || c.RoundTimeout > 0 && errors.Is(err, transport.ErrClosed) {
			continue
		}
		return fmt.Errorf("federated training: %w", err)
	}
	return nil
}
