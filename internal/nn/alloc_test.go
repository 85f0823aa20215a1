package nn

import (
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The Into API's contract is zero steady-state allocations: after the first
// call has sized the workspace's grow-only buffers, repeated calls on the
// same shapes must not touch the heap. testing.AllocsPerRun warms up with
// one untimed call, which is exactly when the sizing happens, so these
// assert a hard 0.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // size the workspace before measuring
	if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
		t.Errorf("%s: %v allocs per call, want 0", name, allocs)
	}
}

func TestSoftmaxGradIntoZeroAllocs(t *testing.T) {
	m := &SoftmaxRegression{In: 6, Classes: 4, L2: 0.01}
	r := rng.New(1)
	batch := randBatch(r, 12, m.In, m.Classes)
	params := m.InitParams(r)
	ws := m.NewWorkspace()
	out := tensor.NewVec(m.NumParams())
	v := m.InitParams(rng.New(2))
	hvpOut := tensor.NewVec(m.NumParams())

	assertZeroAllocs(t, "SoftmaxRegression.GradInto", func() {
		m.GradInto(ws, params, batch, out)
	})
	assertZeroAllocs(t, "SoftmaxRegression.HVPInto", func() {
		m.HVPInto(ws, params, batch, v, hvpOut)
	})
	igOut := tensor.NewVec(m.In)
	assertZeroAllocs(t, "SoftmaxRegression.InputGradInto", func() {
		m.InputGradInto(ws, params, batch[0], batch, igOut)
	})
}

func TestMLPGradIntoZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MLPConfig
	}{
		{"plain", MLPConfig{Dims: []int{6, 8, 4, 3}, L2: 0.01}},
		{"batchnorm", MLPConfig{Dims: []int{6, 8, 4, 3}, BatchNorm: true, L2: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMLP(t, tc.cfg)
			r := rng.New(1)
			batch := randBatch(r, 10, 6, 3)
			params := m.InitParams(r)
			ws := m.NewWorkspace()
			out := tensor.NewVec(m.NumParams())

			assertZeroAllocs(t, "MLP.GradInto", func() {
				m.GradInto(ws, params, batch, out)
			})
			igOut := tensor.NewVec(6)
			assertZeroAllocs(t, "MLP.InputGradInto", func() {
				m.InputGradInto(ws, params, batch[0], batch, igOut)
			})
		})
	}
}

// TestFiniteDiffHVPIntoZeroAllocs covers the finite-difference HVP the MLP
// runs: with the workspace owning the perturbation scratch it must also be
// allocation-free.
func TestFiniteDiffHVPIntoZeroAllocs(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{5, 6, 3}, BatchNorm: true})
	r := rng.New(1)
	batch := randBatch(r, 8, 5, 3)
	params := m.InitParams(r)
	v := m.InitParams(rng.New(2))
	ws := m.NewWorkspace()
	out := tensor.NewVec(m.NumParams())

	assertZeroAllocs(t, "MLP.HVPInto (finite-diff)", func() {
		m.HVPInto(ws, params, batch, v, out)
	})
}

// TestGradIntoNilWorkspace pins the graceful-degradation contract: a nil
// workspace is always valid and produces the same numbers as a reused one.
func TestGradIntoNilWorkspace(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{4, 5, 2}, BatchNorm: true})
	r := rng.New(3)
	batch := randBatch(r, 6, 4, 2)
	params := m.InitParams(r)
	ws := m.NewWorkspace()
	want := tensor.NewVec(m.NumParams())
	m.GradInto(ws, params, batch, want)
	m.GradInto(ws, params, batch, want) // second call reuses the sized buffers
	out := tensor.NewVec(m.NumParams())
	m.GradInto(nil, params, batch, out)
	if d := out.Dist(want); d != 0 {
		t.Errorf("nil-workspace GradInto differs by %g", d)
	}
}
