package nn

import (
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The fused gradient+step kernel must be bit-identical to GradInto followed
// by an axpy — it is the same arithmetic in one pass over the parameter
// vector, and every inner-loop caller (fedavg, reptile, meta, eval) now
// relies on that equivalence.
func TestGradStepIntoMatchesGradThenStep(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 4},
		&SoftmaxRegression{In: 6, Classes: 4, L2: 0.05},
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}}),
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, L2: 0.02}),
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, BatchNorm: true, L2: 0.02}),
	}
	const lr = 0.3
	for _, m := range models {
		r := rng.New(11)
		batch := randBatch(r, 9, 6, 4)
		params := m.InitParams(r)
		ws := m.NewWorkspace()
		g := tensor.NewVec(m.NumParams())
		want := tensor.NewVec(m.NumParams())
		m.GradInto(m.NewWorkspace(), params, batch, g)
		params.AxpyInto(-lr, g, want)

		out := tensor.NewVec(m.NumParams())
		m.GradStepInto(ws, params, batch, lr, out)
		if d := out.Dist(want); d != 0 {
			t.Errorf("%T: fused GradStepInto differs from grad-then-step by %g", m, d)
		}

		// In-place: out aliases params (the adaptation-loop pattern).
		phi := params.Clone()
		m.GradStepInto(ws, phi, batch, lr, phi)
		if d := phi.Dist(want); d != 0 {
			t.Errorf("%T: in-place GradStepInto differs by %g", m, d)
		}
	}
}

// The grad-then-axpy fallback that models without a fused kernel used to
// take is deleted. This digest is the output it produced on this draw,
// which was then checked bit-equal to the fused kernel; the fused kernel
// must keep producing it.
func TestGradStepIntoFallbackMatchesFused(t *testing.T) {
	const fallback = "3826cfbb93b03461bf65074bc035685e823a992fc8f1dea477c6b3a5119d79b4"
	m := mustMLP(t, MLPConfig{Dims: []int{5, 6, 3}, L2: 0.01})
	r := rng.New(13)
	batch := randBatch(r, 7, 5, 3)
	params := m.InitParams(r)
	fused := tensor.NewVec(m.NumParams())
	m.GradStepInto(m.NewWorkspace(), params, batch, 0.2, fused)
	if got := digest(fused...); got != fallback {
		t.Errorf("fused GradStepInto digest %s, want the fallback's %s", got, fallback)
	}
}

func TestGradStepIntoZeroAllocs(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 4, L2: 0.01},
		mustMLP(t, MLPConfig{Dims: []int{6, 8, 4}, L2: 0.01}),
		mustMLP(t, MLPConfig{Dims: []int{6, 8, 4}, BatchNorm: true}),
	}
	for _, m := range models {
		r := rng.New(1)
		batch := randBatch(r, 10, 6, 4)
		params := m.InitParams(r)
		ws := m.NewWorkspace()
		out := tensor.NewVec(m.NumParams())
		assertZeroAllocs(t, "GradStepInto", func() {
			m.GradStepInto(ws, params, batch, 0.1, out)
		})
	}
}

// Batch-normalization statistics over zero samples are undefined; the old
// code divided by zero and let NaNs propagate into the parameters. It must
// fail fast with a message naming the operation.
func TestBatchStatsIntoEmptyBatchPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("batchStatsInto on empty batch did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "batchStatsInto") || !strings.Contains(msg, "empty batch") {
			t.Errorf("panic %v does not name batchStatsInto and the empty batch", r)
		}
	}()
	batchStatsInto(nil, tensor.NewVec(3), tensor.NewVec(3))
}
