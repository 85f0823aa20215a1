package meta

import (
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/opt"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func centralizedFixture(t *testing.T) (*nn.SoftmaxRegression, []*data.NodeDataset, []float64, tensor.Vec) {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 6
	cfg.Dim = 8
	cfg.Classes = 3
	cfg.MeanSamples = 20
	cfg.Seed = 3
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
	return m, fed.Sources, fed.Weights(), m.InitParams(rng.New(1))
}

func weightedObjective(m nn.Model, tasks []*data.NodeDataset, weights []float64, theta tensor.Vec, alpha float64) float64 {
	var total float64
	for i, task := range tasks {
		total += weights[i] * objective(m, theta, task.Train, task.Test, alpha)
	}
	return total
}

func TestTrainCentralizedReducesObjective(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	const alpha = 0.05
	before := weightedObjective(m, tasks, weights, theta0, alpha)
	theta, err := TrainCentralized(m, tasks, weights, theta0, alpha, &opt.SGD{LR: 0.05}, 100, SecondOrder, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := weightedObjective(m, tasks, weights, theta, alpha)
	if after >= before {
		t.Errorf("centralized training failed: %v -> %v", before, after)
	}
	// θ0 untouched.
	if theta0.Dist(m.InitParams(rng.New(1))) != 0 {
		t.Error("θ0 was modified")
	}
}

func TestTrainCentralizedMatchesManualSGD(t *testing.T) {
	// With opt.SGD the trajectory must equal the hand-rolled loop.
	m, tasks, weights, theta0 := centralizedFixture(t)
	const alpha, beta = 0.05, 0.02
	got, err := TrainCentralized(m, tasks, weights, theta0, alpha, &opt.SGD{LR: beta}, 10, SecondOrder, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := theta0.Clone()
	for t := 0; t < 10; t++ {
		g := tensor.NewVec(len(want))
		for i, task := range tasks {
			gi, _ := metaGrad(m, want, task.Train, task.Test, alpha, SecondOrder)
			g.Axpy(weights[i], gi)
		}
		want.Axpy(-beta, g)
	}
	if got.Dist(want) != 0 {
		t.Errorf("centralized SGD trajectory differs by %v", got.Dist(want))
	}
}

func TestTrainCentralizedWithAdam(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	const alpha = 0.05
	before := weightedObjective(m, tasks, weights, theta0, alpha)
	theta, err := TrainCentralized(m, tasks, weights, theta0, alpha, &opt.Adam{LR: 0.05}, 100, SecondOrder, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := weightedObjective(m, tasks, weights, theta, alpha)
	if after >= before {
		t.Errorf("Adam-outer training failed: %v -> %v", before, after)
	}
}

func TestTrainCentralizedOnIterCallback(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	var iters []int
	_, err := TrainCentralized(m, tasks, weights, theta0, 0.05, &opt.SGD{LR: 0.01}, 3, SecondOrder, 1,
		func(iter int, theta tensor.Vec) { iters = append(iters, iter) })
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[2] != 3 {
		t.Errorf("callback iters = %v", iters)
	}
}

func TestTrainCentralizedValidation(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	sgd := &opt.SGD{LR: 0.01}
	if _, err := TrainCentralized(nil, tasks, weights, theta0, 0.05, sgd, 1, SecondOrder, 1, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := TrainCentralized(m, nil, nil, theta0, 0.05, sgd, 1, SecondOrder, 1, nil); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := TrainCentralized(m, tasks, weights[:1], theta0, 0.05, sgd, 1, SecondOrder, 1, nil); err == nil {
		t.Error("weight mismatch accepted")
	}
	if _, err := TrainCentralized(m, tasks, weights, theta0, 0.05, nil, 1, SecondOrder, 1, nil); err == nil {
		t.Error("nil optimizer accepted")
	}
	if _, err := TrainCentralized(m, tasks, weights, theta0, 0, sgd, 1, SecondOrder, 1, nil); err == nil {
		t.Error("zero α accepted")
	}
	if _, err := TrainCentralized(m, tasks, weights, theta0, 0.05, sgd, 0, SecondOrder, 1, nil); err == nil {
		t.Error("zero iters accepted")
	}
	if _, err := TrainCentralized(m, tasks, weights, tensor.NewVec(1), 0.05, sgd, 1, SecondOrder, 1, nil); err == nil {
		t.Error("bad θ0 accepted")
	}
}

func TestTrainCentralizedDivergenceDetected(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	if _, err := TrainCentralized(m, tasks, weights, theta0, 0.05, &opt.SGD{LR: 1e200}, 5, SecondOrder, 1, nil); err == nil {
		t.Error("divergence not detected")
	}
}

// TrainCentralized must produce a bit-identical trajectory for every worker
// count: per-task gradients land in index slots and are reduced in index
// order regardless of the schedule.
func TestTrainCentralizedWorkerCountInvariance(t *testing.T) {
	m, tasks, weights, theta0 := centralizedFixture(t)
	const alpha = 0.05
	for _, mode := range []GradMode{SecondOrder, FirstOrder} {
		ref, err := TrainCentralized(m, tasks, weights, theta0, alpha, &opt.SGD{LR: 0.02}, 25, mode, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := TrainCentralized(m, tasks, weights, theta0, alpha, &opt.SGD{LR: 0.02}, 25, mode, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("mode=%v workers=%d: theta[%d] = %v, want %v (bit-identical)", mode, workers, i, got[i], ref[i])
				}
			}
		}
	}
}
