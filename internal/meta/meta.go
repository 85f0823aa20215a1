// Package meta implements the MAML-style meta-learning machinery at the
// heart of the paper: the one-step inner update φ_i(θ) = θ − α∇L(θ, D_train)
// (Eq. 3), the meta-gradient of the per-node objective
// G_i(θ) = L(φ_i(θ), D_test), and the fast-adaptation procedure used at the
// target edge node (Eq. 6).
//
// The exact meta-gradient is
//
//	∇G_i(θ) = (I − α∇²L(θ, D_train)) ∇L(φ_i, D_test),
//
// which needs one gradient at φ and one Hessian-vector product at θ. The
// first-order approximation (FOMAML/Reptile-style) drops the curvature term;
// it is provided as an ablation.
package meta

import "fmt"

// GradMode selects how the meta-gradient treats the inner-step curvature.
type GradMode int

const (
	// SecondOrder computes the exact MAML meta-gradient, including the
	// (I − α∇²L) correction. This is what the paper's Algorithm 1 uses.
	SecondOrder GradMode = iota + 1
	// FirstOrder drops the Hessian term (the FOMAML approximation).
	FirstOrder
)

// String implements fmt.Stringer.
func (g GradMode) String() string {
	switch g {
	case SecondOrder:
		return "second-order"
	case FirstOrder:
		return "first-order"
	default:
		return fmt.Sprintf("GradMode(%d)", int(g))
	}
}
