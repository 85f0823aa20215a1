package meta

import (
	"testing"

	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The meta workspace must make the full steady-state meta-gradient
// (inner gradient → inner step → outer gradient → HVP correction) run
// without touching the heap. AllocsPerRun's untimed warmup call sizes the
// grow-only buffers, so a hard 0 is the contract.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
		t.Errorf("%s: %v allocs per call, want 0", name, allocs)
	}
}

func TestWorkspaceGradIntoZeroAllocs(t *testing.T) {
	m := &nn.SoftmaxRegression{In: 5, Classes: 3, L2: 0.01}
	r := rng.New(1)
	train := randBatch(r, 8, 5, 3)
	test := randBatch(r, 8, 5, 3)
	extra := randBatch(r, 4, 5, 3)
	theta := m.InitParams(r)
	ws := NewWorkspace(m)
	grad := tensor.NewVec(m.NumParams())
	phi := tensor.NewVec(m.NumParams())

	assertZeroAllocs(t, "Workspace.GradInto(second-order)", func() {
		ws.GradInto(theta, train, test, 0.05, SecondOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.GradInto(first-order)", func() {
		ws.GradInto(theta, train, test, 0.05, FirstOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.GradWithExtraInto", func() {
		ws.GradWithExtraInto(theta, train, test, extra, 0.05, SecondOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.Objective", func() {
		ws.Objective(theta, train, test, 0.05)
	})
	assertZeroAllocs(t, "Workspace.AdaptInto", func() {
		ws.AdaptInto(theta, train, 0.05, 3, phi)
	})
}

func mustMLP(t *testing.T, cfg nn.MLPConfig) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
