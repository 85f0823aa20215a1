package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// TestSoftmaxGradPropertyRandomShapes checks the analytic gradient against
// the numerical one across randomly drawn model shapes, batch sizes, and
// parameter settings.
func TestSoftmaxGradPropertyRandomShapes(t *testing.T) {
	root := rng.New(77)
	check := func(seed uint16) bool {
		r := root.Split(uint64(seed))
		m := &SoftmaxRegression{
			In:      1 + r.IntN(8),
			Classes: 2 + r.IntN(5),
			L2:      float64(r.IntN(3)) * 0.05,
		}
		p := m.InitParams(r)
		for i := range p {
			p[i] = r.Norm() * 0.5
		}
		batch := randBatch(r, 1+r.IntN(6), m.In, m.Classes)
		got := grad(m, p, batch)
		want := NumericalGrad(m, p, batch)
		return relErr(got, want) < 1e-5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSoftmaxHVPPropertyRandomShapes checks HVP symmetry and agreement with
// finite differences across random shapes.
func TestSoftmaxHVPPropertyRandomShapes(t *testing.T) {
	root := rng.New(78)
	check := func(seed uint16) bool {
		r := root.Split(uint64(seed))
		m := &SoftmaxRegression{In: 1 + r.IntN(6), Classes: 2 + r.IntN(4)}
		p := m.InitParams(r)
		batch := randBatch(r, 1+r.IntN(5), m.In, m.Classes)
		v := tensor.NewVec(m.NumParams())
		w := tensor.NewVec(m.NumParams())
		for i := range v {
			v[i], w[i] = r.Norm(), r.Norm()
		}
		hv := hvp(m, p, batch, v)
		// Symmetry.
		lhs := hv.Dot(w)
		rhs := v.Dot(hvp(m, p, batch, w))
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			return false
		}
		// Finite-difference agreement.
		return relErr(hv, fdHVP(m, p, batch, v)) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMLPGradPropertyRandomShapes checks manual backprop against numerical
// gradients across random architectures (with and without batch norm).
func TestMLPGradPropertyRandomShapes(t *testing.T) {
	root := rng.New(79)
	check := func(seed uint16) bool {
		r := root.Split(uint64(seed))
		in := 2 + r.IntN(4)
		classes := 2 + r.IntN(3)
		dims := []int{in}
		for h := 0; h < 1+r.IntN(2); h++ {
			dims = append(dims, 2+r.IntN(5))
		}
		dims = append(dims, classes)
		m, err := NewMLP(MLPConfig{Dims: dims, BatchNorm: seed%2 == 0, L2: float64(r.IntN(2)) * 0.05})
		if err != nil {
			return false
		}
		p := m.InitParams(r)
		batch := randBatch(r, 3+r.IntN(5), in, classes)
		// ReLU is non-differentiable at 0: analytic backprop picks the 0
		// subgradient while central differences report 0.5. Skip draws
		// whose pre-activations sit on (or numerically at) the kink —
		// dead units make this exact-zero case common in deep stacks.
		c := m.forward(m.workspace(nil), m.view(p), batch, nil)
		for l := range c.preAct {
			for j := range c.preAct[l] {
				for _, x := range c.preAct[l][j] {
					if math.Abs(x) < 1e-4 {
						return true // vacuously pass: kink-adjacent draw
					}
				}
			}
		}
		got := grad(m, p, batch)
		want := NumericalGrad(m, p, batch)
		return relErr(got, want) < 5e-3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLossNonNegativeProperty checks that the cross-entropy-based losses are
// always non-negative, for both model families.
func TestLossNonNegativeProperty(t *testing.T) {
	root := rng.New(80)
	check := func(seed uint16) bool {
		r := root.Split(uint64(seed))
		m := &SoftmaxRegression{In: 1 + r.IntN(6), Classes: 2 + r.IntN(4), L2: 0.01}
		p := m.InitParams(r)
		for i := range p {
			p[i] = 3 * r.Norm()
		}
		batch := randBatch(r, 1+r.IntN(8), m.In, m.Classes)
		return m.LossWith(nil, p, batch) >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPredictionsMatchArgmaxOfLossGradientStationarity sanity-checks that
// a heavily trained model predicts the training labels (interpolation on a
// tiny separable batch).
func TestPredictionsMatchTrainingLabelsAfterInterpolation(t *testing.T) {
	r := rng.New(81)
	m := &SoftmaxRegression{In: 4, Classes: 3}
	batch := []data.Sample{
		{X: tensor.Vec{5, 0, 0, 0}, Y: 0},
		{X: tensor.Vec{0, 5, 0, 0}, Y: 1},
		{X: tensor.Vec{0, 0, 5, 0}, Y: 2},
	}
	p := m.InitParams(r)
	for i := 0; i < 400; i++ {
		p.Axpy(-0.5, grad(m, p, batch))
	}
	preds := m.PredictBatch(p, batch)
	for i, s := range batch {
		if preds[i] != s.Y {
			t.Errorf("sample %d predicted %d, want %d", i, preds[i], s.Y)
		}
	}
}
