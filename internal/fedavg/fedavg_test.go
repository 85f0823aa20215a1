package fedavg

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func tinyFederation(t *testing.T) *data.Federation {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 10
	cfg.Dim = 10
	cfg.Classes = 4
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// globalLoss is the FedAvg objective: the data-size-weighted average loss
// over the full local datasets.
func globalLoss(m nn.Model, fed *data.Federation, theta tensor.Vec) float64 {
	w := fed.Weights()
	var total float64
	for i, nd := range fed.Sources {
		total += w[i] * m.LossWith(nil, theta, nd.All())
	}
	return total
}

func TestConfigValidate(t *testing.T) {
	good := Config{Eta: 0.1, T: 10, T0: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Eta: 0, T: 10, T0: 5},
		{Eta: 0.1, T: 0, T0: 5},
		{Eta: 0.1, T: 10, T0: 0},
		{Eta: 0.1, T: 10, T0: 4},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrainReducesGlobalLoss(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(1))
	before := globalLoss(m, fed, theta0)
	res, err := Train(m, fed, theta0, Config{Eta: 0.05, T: 100, T0: 10})
	if err != nil {
		t.Fatal(err)
	}
	after := globalLoss(m, fed, res.Theta)
	if after >= before {
		t.Errorf("FedAvg did not reduce the global loss: %v -> %v", before, after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	cfg := Config{Eta: 0.05, T: 40, T0: 10, Seed: 3}
	a, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Error("FedAvg is not deterministic")
	}
}

func TestTrainOnRoundCallback(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	var iters []int
	cfg := Config{Eta: 0.05, T: 30, T0: 10, OnRound: func(round, iter int, theta tensor.Vec) {
		iters = append(iters, iter)
	}}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[0] != 10 || iters[2] != 30 {
		t.Errorf("callback iters = %v", iters)
	}
}

func TestTrainValidation(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	okCfg := Config{Eta: 0.05, T: 10, T0: 5}
	if _, err := Train(nil, fed, nil, okCfg); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Train(m, nil, nil, okCfg); err == nil {
		t.Error("nil federation accepted")
	}
	if _, err := Train(m, &data.Federation{}, nil, okCfg); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := Train(m, fed, tensor.NewVec(1), okCfg); err == nil {
		t.Error("bad theta0 accepted")
	}
	if _, err := Train(m, fed, nil, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFedProxValidation(t *testing.T) {
	cfg := Config{Eta: 0.1, T: 10, T0: 5, ProxMu: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative ProxMu accepted")
	}
}

func TestFedProxKeepsUpdatesNearGlobal(t *testing.T) {
	// A large proximal coefficient must hold the per-round update close to
	// the previous global model, so the overall parameter movement shrinks.
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(5))

	plain, err := Train(m, fed, theta0, Config{Eta: 0.05, T: 30, T0: 10})
	if err != nil {
		t.Fatal(err)
	}
	prox, err := Train(m, fed, theta0, Config{Eta: 0.05, T: 30, T0: 10, ProxMu: 10})
	if err != nil {
		t.Fatal(err)
	}
	plainMove := plain.Theta.Dist(theta0)
	proxMove := prox.Theta.Dist(theta0)
	if proxMove >= plainMove {
		t.Errorf("FedProx moved farther (%v) than FedAvg (%v) despite μ=10", proxMove, plainMove)
	}
}

func TestFedProxStillLearns(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(6))
	before := globalLoss(m, fed, theta0)
	res, err := Train(m, fed, theta0, Config{Eta: 0.05, T: 100, T0: 10, ProxMu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	after := globalLoss(m, fed, res.Theta)
	if after >= before {
		t.Errorf("FedProx did not reduce the global loss: %v -> %v", before, after)
	}
}

// The proximal local step takes its own (unfused) path; the round events
// and the OnRound callback must still fire once per aggregation.
func TestFedProxObserverAndOnRound(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	rec := obs.NewRecorder()
	var iters []int
	cfg := Config{Eta: 0.05, ProxMu: 0.5, T: 20, T0: 5, Observer: rec,
		OnRound: func(round, iter int, _ tensor.Vec) { iters = append(iters, iter) }}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds()) != 4 {
		t.Errorf("round records = %d, want 4", len(rec.Rounds()))
	}
	if len(iters) != 4 || iters[3] != 20 {
		t.Errorf("OnRound iters = %v", iters)
	}
}

func TestTrainDivergenceDetected(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
	if _, err := Train(m, fed, nil, Config{Eta: 1e200, T: 20, T0: 10}); err == nil {
		t.Error("divergent FedAvg run reported success")
	}
}

// nanAtCall wraps a model and poisons the step for a window of
// GradStepInto calls. With Workers=1 the round loop visits nodes strictly in index order
// (T0 calls per node per round), so a call window addresses an exact
// (node, round) pair.
type nanAtCall struct {
	nn.Model
	calls    int
	from, to int // 0-based [from, to) window of poisoned calls
}

func (m *nanAtCall) GradStepInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	m.Model.GradStepInto(ws, theta, batch, lr, out)
	if m.calls >= m.from && m.calls < m.to {
		out[0] = math.NaN()
	}
	m.calls++
}

// Regression guard for the per-round error slots: a node failing in round 2
// must be reported as exactly that node and that round — round 1 completed
// cleanly, and no slot from a previous round may leak forward.
func TestTrainDivergenceNamesNodeAndRound(t *testing.T) {
	fed := tinyFederation(t)
	base := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	const t0 = 4
	n := len(fed.Sources)
	from := n*t0 + 3*t0 // node 3's local steps in round 2
	m := &nanAtCall{Model: base, from: from, to: from + t0}
	_, err := Train(m, fed, nil, Config{Eta: 0.05, T: 3 * t0, T0: t0, Workers: 1})
	if err == nil {
		t.Fatal("poisoned gradient not detected")
	}
	want := "fedavg: node 3 diverged in round 2"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// Training results must be bit-identical for every worker count.
func TestTrainWorkerCountInvariance(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	ref, err := Train(m, fed, nil, Config{Eta: 0.05, T: 20, T0: 5, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		res, err := Train(m, fed, nil, Config{Eta: 0.05, T: 20, T0: 5, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Theta {
			if res.Theta[i] != ref.Theta[i] {
				t.Fatalf("workers=%d: theta[%d] = %v, want %v (bit-identical)", workers, i, res.Theta[i], ref.Theta[i])
			}
		}
	}
}

func TestTrainObserverRoundEvents(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
	rec := obs.NewRecorder()
	cfg := Config{Eta: 0.05, T: 20, T0: 5, Seed: 1, Observer: rec}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	rounds := rec.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("got %d round records, want 4", len(rounds))
	}
	for k, r := range rounds {
		if r.Round != k+1 || r.Iter != (k+1)*cfg.T0 || r.T0 != cfg.T0 {
			t.Errorf("record %d has wrong shape: %+v", k, r)
		}
		if r.Alive != len(fed.Sources) {
			t.Errorf("record %d alive = %d, want %d", k, r.Alive, len(fed.Sources))
		}
		if r.UpdateNorm <= 0 {
			t.Errorf("record %d update norm %v not positive", k, r.UpdateNorm)
		}
	}
	if got := rec.Count(obs.TypeRoundStart); got != 4 {
		t.Errorf("round_start events = %d, want 4", got)
	}
}
