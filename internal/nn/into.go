package nn

import (
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/tensor"
)

// This file defines the buffer conventions of the Model kernels.
//
// The federated runtime executes gradient → inner step → outer gradient →
// HVP on every one of T0·rounds local iterations; if each stage allocated
// fresh vectors and per-layer scratch, garbage collection would be the
// dominant cost at paper scale. So every kernel inverts ownership: the
// caller provides the output buffer and a reusable Workspace that owns all
// intermediate scratch, sized once on first use.
//
// Conventions (see DESIGN.md §6):
//   - m.FooInto(ws, ..., out) overwrites out and never retains out or ws
//     beyond the call. out must not alias the params or direction inputs.
//   - A Workspace belongs to one goroutine; it is not safe for concurrent
//     use. Results that alias workspace memory are valid only until the
//     next call using the same workspace (this is documented per method).

// Workspace is reusable scratch memory for one model's kernels. Each model
// family provides its own concrete type via NewWorkspace; callers treat it
// as opaque and pass it back to the model's methods. A nil Workspace is
// always valid: the kernels then allocate their scratch per call.
type Workspace interface{ isWorkspace() }

// NewWorkspace returns m.NewWorkspace(). The package-level NewWorkspace,
// GradInto and HVPInto are kept for the benchmark harness in perfbench/,
// which compiles against them; everything else calls the methods.
func NewWorkspace(m Model) Workspace { return m.NewWorkspace() }

// GradInto forwards to m.GradInto.
func GradInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec) {
	m.GradInto(ws, params, batch, out)
}

// HVPInto forwards to m.HVPInto.
func HVPInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	m.HVPInto(ws, params, batch, v, out)
}

// FiniteDiffHVPInto approximates ∇²L(θ)·v into out by a central finite
// difference of m.GradInto: (∇L(θ+εv) − ∇L(θ−εv)) / 2ε, with ε scaled to
// the magnitudes of θ and v. The error is O(ε²‖∇³L‖). It is the MLP's
// HVPInto, and the reference the analytic softmax HVP is tested against.
// p and g are scratch of length NumParams; out must alias none of params,
// v, p and g.
func FiniteDiffHVPInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, v, out, p, g tensor.Vec) {
	vn := v.Norm()
	if vn == 0 {
		out.Zero()
		return
	}
	eps := _fdEpsBase * (1 + params.Norm()) / vn
	p.CopyFrom(params)
	p.Axpy(eps, v)
	m.GradInto(ws, p, batch, out)
	p.CopyFrom(params)
	p.Axpy(-eps, v)
	m.GradInto(ws, p, batch, g)
	out.SubInPlace(g)
	out.ScaleInPlace(1 / (2 * eps))
}
