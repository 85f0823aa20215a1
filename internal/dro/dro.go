// Package dro implements the distributionally-robust-optimization substrate
// of Section V: the Wasserstein transportation cost, the Lagrangian-relaxed
// robust surrogate loss l_λ(θ, (x₀,y₀)) = sup_x { l(θ,(x,y₀)) − λ·c((x,y₀),(x₀,y₀)) }
// approximated by gradient ascent (the adversarial data generation of
// Algorithm 2), and the FGSM attack used to evaluate robustness in §VI-C.
package dro

import (
	"errors"
	"fmt"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// Cost is a transportation cost restricted to feature perturbations: the
// paper's §VI-C cost assigns infinite cost to label changes, so only x moves.
type Cost interface {
	// Value returns c((x, y), (x0, y)).
	Value(x, x0 tensor.Vec) float64
	// GradInto writes ∇_x c((x, y), (x0, y)) into out, which has the
	// feature dimension and aliases neither x nor x0.
	GradInto(x, x0, out tensor.Vec)
}

// SquaredL2 is the paper's transportation cost c = ‖x − x′‖₂². It is
// 2-strongly convex in x (Assumption 5 asks for 1-strong convexity, which
// ‖·‖² dominates).
type SquaredL2 struct{}

var _ Cost = SquaredL2{}

// Value implements Cost.
func (SquaredL2) Value(x, x0 tensor.Vec) float64 {
	d := x.Dist(x0)
	return d * d
}

// GradInto implements Cost: out = 2(x − x0).
func (SquaredL2) GradInto(x, x0, out tensor.Vec) {
	x.SubInto(x0, out)
	out.ScaleInPlace(2)
}

// PerturbConfig parameterizes the inner-maximization ascent of Algorithm 2
// (lines 17–20).
type PerturbConfig struct {
	// Lambda is the DRO penalty λ; smaller λ = larger uncertainty set =
	// more aggressive perturbations.
	Lambda float64
	// Nu is the ascent learning rate ν.
	Nu float64
	// Steps is Ta, the number of ascent steps.
	Steps int
	// Cost is the transportation cost (SquaredL2 in the paper).
	Cost Cost
	// ClampMin/ClampMax bound the perturbed features to the valid input
	// domain (e.g. [0,1] for image pixels). No clamping when equal.
	ClampMin, ClampMax float64
}

func (c PerturbConfig) validate() error {
	switch {
	case c.Lambda < 0:
		return fmt.Errorf("dro: negative lambda %v", c.Lambda)
	case c.Nu <= 0:
		return fmt.Errorf("dro: ascent rate nu must be positive, got %v", c.Nu)
	case c.Steps <= 0:
		return fmt.Errorf("dro: ascent steps must be positive, got %d", c.Steps)
	case c.Cost == nil:
		return errors.New("dro: nil transportation cost")
	case c.ClampMax < c.ClampMin:
		return fmt.Errorf("dro: clamp range [%v, %v] inverted", c.ClampMin, c.ClampMax)
	}
	return nil
}

// Perturb approximately solves x* = argmax_x { l(θ,(x,y)) − λ·c((x,y),(x₀,y)) }
// by cfg.Steps gradient-ascent steps from x₀ = s.X, returning the perturbed
// sample (the label is kept, matching the infinite label-transport cost).
// ctx supplies reference batch statistics for batch-normalized models.
func Perturb(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, cfg PerturbConfig) (data.Sample, error) {
	if err := cfg.validate(); err != nil {
		return data.Sample{}, err
	}
	return perturb(m, m.NewWorkspace(), params, s, ctx, cfg), nil
}

// perturb is Perturb for a validated cfg, running every ascent step on ws.
func perturb(m nn.Model, ws nn.Workspace, params tensor.Vec, s data.Sample, ctx []data.Sample, cfg PerturbConfig) data.Sample {
	x0 := s.X
	cur := data.Sample{X: x0.Clone(), Y: s.Y}
	// The penalty term makes the ascent objective λ·μ_c-strongly concave
	// (μ_c = 2 for SquaredL2); plain gradient ascent diverges when
	// ν·2λ > 1, so cap the effective step at the stability limit.
	nu := cfg.Nu
	if cfg.Lambda > 0 {
		if limit := 0.45 / cfg.Lambda; nu > limit {
			nu = limit
		}
	}
	// Two feature-sized buffers serve all ascent steps.
	g := tensor.NewVec(len(x0))
	var costG tensor.Vec
	if cfg.Lambda != 0 {
		costG = tensor.NewVec(len(x0))
	}
	for step := 0; step < cfg.Steps; step++ {
		m.InputGradInto(ws, params, cur, ctx, g)
		if cfg.Lambda != 0 {
			cfg.Cost.GradInto(cur.X, x0, costG)
			g.Axpy(-cfg.Lambda, costG)
		}
		cur.X.Axpy(nu, g)
		if cfg.ClampMax > cfg.ClampMin {
			cur.X.ClampInPlace(cfg.ClampMin, cfg.ClampMax)
		}
	}
	return cur
}

// SurrogateLoss estimates the robust surrogate l_λ(θ, s) by running Perturb
// and evaluating l(θ, (x*, y)) − λ·c(x*, x₀). It lower-bounds the true
// supremum (the ascent is approximate).
func SurrogateLoss(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, cfg PerturbConfig) (float64, error) {
	adv, err := Perturb(m, params, s, ctx, cfg)
	if err != nil {
		return 0, err
	}
	return m.LossWith(nil, params, []data.Sample{adv}) - cfg.Lambda*cfg.Cost.Value(adv.X, s.X), nil
}

// RobustAdapt performs the target-side counterpart of Eq. 8: `steps`
// gradient-descent updates from theta where each step's loss combines the
// clean adaptation set with freshly generated adversarial copies (the
// Lagrangian-relaxed inner maximization under the current parameters). The
// result is a locally adapted model that is hardened against perturbations
// of its own few-shot data. theta is not modified.
func RobustAdapt(m nn.Model, theta tensor.Vec, adaptSet []data.Sample, alpha float64, steps int, cfg PerturbConfig) (tensor.Vec, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("dro: adaptation rate must be positive, got %v", alpha)
	}
	if steps < 0 {
		return nil, fmt.Errorf("dro: negative adaptation steps %d", steps)
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("dro: robust adapt: %w", err)
	}
	ws := m.NewWorkspace()
	phi := theta.Clone()
	combined := make([]data.Sample, 2*len(adaptSet))
	copy(combined, adaptSet)
	for s := 0; s < steps; s++ {
		for i, sample := range adaptSet {
			combined[len(adaptSet)+i] = perturb(m, ws, phi, sample, adaptSet, cfg)
		}
		m.GradStepInto(ws, phi, combined, alpha, phi)
	}
	return phi, nil
}

// FGSM applies the Fast Gradient Sign Method attack of Goodfellow et al.
// with perturbation budget xi: x′ = x + ξ·sign(∇_x l(θ,(x,y))), optionally
// clamped to [clampMin, clampMax] (no clamping when equal). This is the
// attack the paper uses to evaluate (robust) FedML at the target node.
func FGSM(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, xi, clampMin, clampMax float64) (data.Sample, error) {
	advs, err := fgsmBatch(m, params, []data.Sample{s}, ctx, xi, clampMin, clampMax)
	if err != nil {
		return data.Sample{}, err
	}
	return advs[0], nil
}

// PGDL2 runs a projected-gradient-descent attack inside an ℓ2 ball of
// radius eps around s.X: `steps` ascent steps of size stepSize on the loss,
// each followed by projection back onto the ball (and the optional clamp
// box). This is the attack whose threat model matches the Wasserstein-DRO
// training objective (c = ‖x−x′‖²), complementing the ℓ∞ FGSM evaluation.
func PGDL2(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, eps, stepSize float64, steps int, clampMin, clampMax float64) (data.Sample, error) {
	advs, err := pgdL2Batch(m, params, []data.Sample{s}, ctx, eps, stepSize, steps, clampMin, clampMax)
	if err != nil {
		return data.Sample{}, err
	}
	return advs[0], nil
}

// PGDL2Batch attacks every sample of batch inside the same ℓ2 budget.
func PGDL2Batch(m nn.Model, params tensor.Vec, batch []data.Sample, eps, stepSize float64, steps int, clampMin, clampMax float64) ([]data.Sample, error) {
	return pgdL2Batch(m, params, batch, batch, eps, stepSize, steps, clampMin, clampMax)
}

// pgdL2Batch runs PGDL2 on every sample of batch against the reference
// statistics of ctx, with one workspace and gradient buffer for the batch.
func pgdL2Batch(m nn.Model, params tensor.Vec, batch, ctx []data.Sample, eps, stepSize float64, steps int, clampMin, clampMax float64) ([]data.Sample, error) {
	switch {
	case eps < 0:
		return nil, fmt.Errorf("dro: negative PGD radius %v", eps)
	case stepSize <= 0:
		return nil, fmt.Errorf("dro: PGD step size must be positive, got %v", stepSize)
	case steps <= 0:
		return nil, fmt.Errorf("dro: PGD steps must be positive, got %d", steps)
	case clampMax < clampMin:
		return nil, fmt.Errorf("dro: clamp range [%v, %v] inverted", clampMin, clampMax)
	}
	ws := m.NewWorkspace()
	out := make([]data.Sample, len(batch))
	var g tensor.Vec
	for i, s := range batch {
		x0 := s.X
		cur := data.Sample{X: x0.Clone(), Y: s.Y}
		if len(g) != len(x0) {
			g = tensor.NewVec(len(x0))
		}
		for step := 0; step < steps; step++ {
			m.InputGradInto(ws, params, cur, ctx, g)
			// Normalized ascent direction keeps the step scale-free.
			if n := g.Norm(); n > 0 {
				g.ScaleInPlace(1 / n)
			}
			cur.X.Axpy(stepSize, g)
			// Project back onto the ℓ2 ball around x0.
			delta := cur.X.Sub(x0)
			if n := delta.Norm(); n > eps {
				delta.ScaleInPlace(eps / n)
				cur.X = x0.Add(delta)
			}
			if clampMax > clampMin {
				cur.X.ClampInPlace(clampMin, clampMax)
			}
		}
		out[i] = cur
	}
	return out, nil
}

// FGSMBatch attacks every sample of batch (each with the same budget),
// returning the adversarial test set used by the Figure 4 evaluation.
func FGSMBatch(m nn.Model, params tensor.Vec, batch []data.Sample, xi, clampMin, clampMax float64) ([]data.Sample, error) {
	return fgsmBatch(m, params, batch, batch, xi, clampMin, clampMax)
}

// fgsmBatch runs FGSM on every sample of batch against the reference
// statistics of ctx, with one workspace and gradient buffer for the batch.
func fgsmBatch(m nn.Model, params tensor.Vec, batch, ctx []data.Sample, xi, clampMin, clampMax float64) ([]data.Sample, error) {
	if xi < 0 {
		return nil, fmt.Errorf("dro: negative FGSM budget %v", xi)
	}
	ws := m.NewWorkspace()
	out := make([]data.Sample, len(batch))
	var g tensor.Vec
	for i, s := range batch {
		if len(g) != len(s.X) {
			g = tensor.NewVec(len(s.X))
		}
		m.InputGradInto(ws, params, s, ctx, g)
		x := s.X.Clone()
		for j := range x {
			x[j] += xi * tensor.Sign(g[j])
		}
		if clampMax > clampMin {
			x.ClampInPlace(clampMin, clampMax)
		}
		out[i] = data.Sample{X: x, Y: s.Y}
	}
	return out, nil
}
