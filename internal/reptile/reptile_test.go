package reptile

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func tinyFederation(t *testing.T) (*data.Federation, *nn.SoftmaxRegression) {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 10
	cfg.Dim = 10
	cfg.Classes = 4
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

func TestConfigValidate(t *testing.T) {
	good := Config{InnerLR: 0.1, MetaLR: 0.5, InnerSteps: 3, Rounds: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{InnerLR: 0, MetaLR: 0.5, InnerSteps: 3, Rounds: 5},
		{InnerLR: 0.1, MetaLR: 0, InnerSteps: 3, Rounds: 5},
		{InnerLR: 0.1, MetaLR: 1.5, InnerSteps: 3, Rounds: 5},
		{InnerLR: 0.1, MetaLR: 0.5, InnerSteps: 0, Rounds: 5},
		{InnerLR: 0.1, MetaLR: 0.5, InnerSteps: 3, Rounds: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrainImprovesMetaObjective(t *testing.T) {
	fed, m := tinyFederation(t)
	theta0 := m.InitParams(rng.New(1))
	const alpha = 0.05
	before := eval.GlobalMetaObjective(m, fed, alpha, theta0)
	res, err := Train(m, fed, theta0, Config{InnerLR: alpha, MetaLR: 0.5, InnerSteps: 3, Rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	after := eval.GlobalMetaObjective(m, fed, alpha, res.Theta)
	if after >= before {
		t.Errorf("Reptile did not improve the meta-objective: %v -> %v", before, after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	fed, m := tinyFederation(t)
	cfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: 3, Rounds: 10, Seed: 2}
	a, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Error("Reptile is not deterministic")
	}
}

func TestMetaLROneInterpolatesFully(t *testing.T) {
	// With ε = 1 the new θ is exactly the weighted average of the adapted
	// parameters.
	fed, m := tinyFederation(t)
	theta0 := m.InitParams(rng.New(3))
	res, err := Train(m, fed, theta0, Config{InnerLR: 0.05, MetaLR: 1, InnerSteps: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	weights := fed.Weights()
	adapted := make([]tensor.Vec, len(fed.Sources))
	for i, nd := range fed.Sources {
		phi := theta0.Clone()
		for s := 0; s < 2; s++ {
			m.GradStepInto(nil, phi, nd.Train, 0.05, phi)
		}
		adapted[i] = phi
	}
	want := tensor.WeightedSum(weights, adapted)
	if res.Theta.Dist(want) > 1e-12 {
		t.Errorf("ε=1 round does not match weighted average (dist %v)", res.Theta.Dist(want))
	}
}

func TestOnRoundCallback(t *testing.T) {
	fed, m := tinyFederation(t)
	var rounds []int
	cfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: 2, Rounds: 3,
		OnRound: func(round int, theta tensor.Vec) { rounds = append(rounds, round) }}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[2] != 3 {
		t.Errorf("callback rounds = %v", rounds)
	}
}

func TestTrainValidation(t *testing.T) {
	fed, m := tinyFederation(t)
	okCfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: 2, Rounds: 2}
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
		t.Error("zero config accepted")
	}
}

func TestTrainDivergenceDetected(t *testing.T) {
	fed, m := tinyFederation(t)
	if _, err := Train(m, fed, nil, Config{InnerLR: 1e200, MetaLR: 1, InnerSteps: 3, Rounds: 2}); err == nil {
		t.Error("divergent run reported success")
	}
}

// nanAtCall poisons a window of GradStepInto calls; with Workers=1 the round loop
// visits nodes in index order (InnerSteps calls per node per round), so the
// window addresses an exact (node, round) pair.
type nanAtCall struct {
	nn.Model
	calls    int
	from, to int
}

func (m *nanAtCall) GradStepInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	m.Model.GradStepInto(ws, theta, batch, lr, out)
	if m.calls >= m.from && m.calls < m.to {
		out[0] = math.NaN()
	}
	m.calls++
}

// Regression guard for the per-round error slots: a node failing in round 2
// is reported as that node and round, with no stale slot from round 1.
func TestTrainDivergenceNamesNodeAndRound(t *testing.T) {
	fed, base := tinyFederation(t)
	const steps = 3
	n := len(fed.Sources)
	from := n*steps + 2*steps // node 2's inner run in round 2
	m := &nanAtCall{Model: base, from: from, to: from + steps}
	cfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: steps, Rounds: 3, Workers: 1}
	_, err := Train(m, fed, nil, cfg)
	if err == nil {
		t.Fatal("poisoned gradient not detected")
	}
	want := "reptile: node 2 diverged in round 2"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// Training results must be bit-identical for every worker count.
func TestTrainWorkerCountInvariance(t *testing.T) {
	fed, m := tinyFederation(t)
	cfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: 3, Rounds: 5, Seed: 3}
	cfg.Workers = 1
	ref, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		res, err := Train(m, fed, nil, cfg)
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
	fed, m := tinyFederation(t)
	rec := obs.NewRecorder()
	cfg := Config{InnerLR: 0.05, MetaLR: 0.5, InnerSteps: 3, Rounds: 5, Seed: 1, Observer: rec}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	rounds := rec.Rounds()
	if len(rounds) != cfg.Rounds {
		t.Fatalf("got %d round records, want %d", len(rounds), cfg.Rounds)
	}
	for k, r := range rounds {
		if r.Round != k+1 || r.Iter != (k+1)*cfg.InnerSteps {
			t.Errorf("record %d has wrong shape: %+v", k, r)
		}
		if r.UpdateNorm <= 0 {
			t.Errorf("record %d update norm %v not positive", k, r.UpdateNorm)
		}
	}
	if got := rec.Count(obs.TypeRoundEnd); got != cfg.Rounds {
		t.Errorf("round_end events = %d, want %d", got, cfg.Rounds)
	}
}
