package nn

import (
	"fmt"
	"math"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// SoftmaxRegression is multinomial logistic regression with cross-entropy
// loss and optional L2 regularization:
//
//	l(θ, (x, y)) = −log softmax(Wx + b)[y] + (λ₂/2)‖θ‖².
//
// With λ₂ > 0 the empirical loss is λ₂-strongly convex, matching
// Assumption 1 of the paper; it is H-smooth with H ≤ ‖x‖²/2 + λ₂.
// Parameters are laid out as the row-major C×In weight matrix followed by
// the C bias entries.
type SoftmaxRegression struct {
	// In is the input dimension; Classes the number of labels.
	In, Classes int
	// L2 is the λ₂ regularization coefficient (may be zero).
	L2 float64
	// InitScale is the standard deviation of the weight initialization
	// (biases start at zero). Zero means 0.01.
	InitScale float64
}

var _ Model = (*SoftmaxRegression)(nil)

// softmaxWorkspace owns the class-sized scratch vectors and the rebindable
// matrix views of the softmax kernels, so the steady-state GradInto /
// HVPInto / InputGradInto paths allocate nothing.
type softmaxWorkspace struct {
	classes, in int
	p, u, a     tensor.Vec // probability / direction / curvature scratch
	gstep       tensor.Vec // gradient accumulator of the fused GradStepInto
	w, gw, vw   tensor.Mat // views rebound onto params / out / v per call
}

func (*softmaxWorkspace) isWorkspace() {}

// NewWorkspace implements Model.
func (m *SoftmaxRegression) NewWorkspace() Workspace {
	ws := &softmaxWorkspace{
		classes: m.Classes,
		in:      m.In,
		p:       tensor.NewVec(m.Classes),
		u:       tensor.NewVec(m.Classes),
		a:       tensor.NewVec(m.Classes),
	}
	for _, mat := range []*tensor.Mat{&ws.w, &ws.gw, &ws.vw} {
		mat.Rows, mat.Cols = m.Classes, m.In
	}
	return ws
}

// workspace returns ws as a softmax workspace matching m, creating a fresh
// one when ws is nil or was built for a different model shape.
func (m *SoftmaxRegression) workspace(ws Workspace) *softmaxWorkspace {
	if s, ok := ws.(*softmaxWorkspace); ok && s.classes == m.Classes && s.in == m.In {
		return s
	}
	return m.NewWorkspace().(*softmaxWorkspace)
}

// bindView points mat's storage at the weight block of the flat vector p
// and returns the bias block. The shapes were fixed by NewWorkspace.
func (m *SoftmaxRegression) bindView(mat *tensor.Mat, p tensor.Vec) tensor.Vec {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression got %d params, want %d", len(p), m.NumParams()))
	}
	mat.Data = p[:m.Classes*m.In]
	return p[m.Classes*m.In:]
}

// GradInto implements Model.
func (m *SoftmaxRegression) GradInto(ws Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec) {
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	gb := m.bindView(&s.gw, out)
	out.Zero()
	if len(batch) > 0 {
		inv := 1 / float64(len(batch))
		for _, smp := range batch {
			m.probs(&s.w, b, smp.X, s.p)
			s.p[smp.Y]--
			s.gw.AddOuterInPlace(inv, s.p, smp.X)
			gb.Axpy(inv, s.p)
		}
	}
	if m.L2 != 0 {
		out.Axpy(m.L2, params)
	}
}

// GradStepInto implements Model: the gradient is held in workspace scratch
// and the step applied as one fused pass.
func (m *SoftmaxRegression) GradStepInto(ws Workspace, params tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	s := m.workspace(ws)
	if len(s.gstep) != m.NumParams() {
		s.gstep = tensor.NewVec(m.NumParams())
	}
	m.GradInto(s, params, batch, s.gstep)
	params.AxpyInto(-lr, s.gstep, out)
}

// HVPInto implements Model with the exact Hessian-vector product of the
// softmax cross-entropy. For a single sample with probabilities p and
// perturbation direction (V, v), let u = Vx + v; then
// ∇²l · (V, v) = ((p∘u − p(pᵀu)) xᵀ, p∘u − p(pᵀu)).
func (m *SoftmaxRegression) HVPInto(ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	if len(v) != m.NumParams() {
		panic(fmt.Sprintf("nn: HVP direction has %d entries, want %d", len(v), m.NumParams()))
	}
	vb := m.bindView(&s.vw, v)
	ob := m.bindView(&s.gw, out)
	out.Zero()
	if len(batch) > 0 {
		inv := 1 / float64(len(batch))
		for _, smp := range batch {
			m.probs(&s.w, b, smp.X, s.p)
			s.vw.MulVec(smp.X, s.u)
			s.u.AddInPlace(vb)
			pu := s.p.Dot(s.u)
			for c := range s.a {
				s.a[c] = s.p[c]*s.u[c] - s.p[c]*pu
			}
			s.gw.AddOuterInPlace(inv, s.a, smp.X)
			ob.Axpy(inv, s.a)
		}
	}
	if m.L2 != 0 {
		out.Axpy(m.L2, v)
	}
}

// InputGradInto implements Model: ∇_x l(θ, (x, y)) = Wᵀ(p − e_y). The ctx
// batch is unused (softmax regression has no batch statistics).
func (m *SoftmaxRegression) InputGradInto(ws Workspace, params tensor.Vec, smp data.Sample, _ []data.Sample, out tensor.Vec) {
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	m.probs(&s.w, b, smp.X, s.p)
	s.p[smp.Y]--
	s.w.MulVecT(s.p, out)
}

// NumParams implements Model.
func (m *SoftmaxRegression) NumParams() int { return m.Classes*m.In + m.Classes }

// InitParams implements Model.
func (m *SoftmaxRegression) InitParams(r *rng.Rand) tensor.Vec {
	scale := m.InitScale
	if scale == 0 {
		scale = 0.01
	}
	p := tensor.NewVec(m.NumParams())
	for i := 0; i < m.Classes*m.In; i++ {
		p[i] = r.Norm() * scale
	}
	return p
}

// view splits the flat parameter vector into the weight matrix and bias,
// aliasing the underlying storage.
func (m *SoftmaxRegression) view(params tensor.Vec) (*tensor.Mat, tensor.Vec) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression got %d params, want %d", len(params), m.NumParams()))
	}
	w := tensor.MatFromData(m.Classes, m.In, params[:m.Classes*m.In])
	b := params[m.Classes*m.In:]
	return w, b
}

// probs computes softmax(Wx+b) into out.
func (m *SoftmaxRegression) probs(w *tensor.Mat, b tensor.Vec, x tensor.Vec, out tensor.Vec) {
	w.MulVec(x, out)
	out.AddInPlace(b)
	tensor.Softmax(out, out)
}

// LossWith implements Model.
func (m *SoftmaxRegression) LossWith(ws Workspace, params tensor.Vec, batch []data.Sample) float64 {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression got %d params, want %d", len(params), m.NumParams()))
	}
	if len(batch) == 0 {
		return m.l2Term(params)
	}
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	var total float64
	for _, smp := range batch {
		s.w.MulVec(smp.X, s.u)
		s.u.AddInPlace(b)
		total += tensor.CrossEntropyFromLogits(s.u, smp.Y)
	}
	return total/float64(len(batch)) + m.l2Term(params)
}

func (m *SoftmaxRegression) l2Term(params tensor.Vec) float64 {
	if m.L2 == 0 {
		return 0
	}
	return 0.5 * m.L2 * params.Dot(params)
}

// PredictBatch implements Model.
func (m *SoftmaxRegression) PredictBatch(params tensor.Vec, batch []data.Sample) []int {
	w, b := m.view(params)
	preds := make([]int, len(batch))
	logits := tensor.NewVec(m.Classes)
	for i, s := range batch {
		w.MulVec(s.X, logits)
		logits.AddInPlace(b)
		preds[i] = logits.ArgMax()
	}
	return preds
}

// SmoothnessUpperBound returns a data-dependent upper bound on the
// H-smoothness constant of the empirical loss over batch: the softmax
// cross-entropy Hessian satisfies ‖∇²l‖ ≤ ‖x̃‖²/2 + λ₂ where x̃ = (x, 1).
// The theory package uses it to pick admissible learning rates.
func (m *SoftmaxRegression) SmoothnessUpperBound(batch []data.Sample) float64 {
	var maxSq float64
	for _, s := range batch {
		sq := s.X.Dot(s.X) + 1
		if sq > maxSq {
			maxSq = sq
		}
	}
	return maxSq/2 + m.L2
}

// StrongConvexity returns the strong-convexity modulus μ = λ₂ of the
// regularized loss (0 when unregularized).
func (m *SoftmaxRegression) StrongConvexity() float64 { return math.Max(m.L2, 0) }
