package meta

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// digest is the SHA-256 of the little-endian IEEE-754 bits of vs.
func digest(vs ...tensor.Vec) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkspaceMatchesAllocatingAPI pins the exact bits of the
// meta-gradient (with φ) in both modes, the robust meta-gradient, and a
// 4-step adaptation, on one workspace per model. The digests are those of
// the deleted allocating functions (Grad, GradWithExtra, Adapt) on the same
// draw; the workspace methods must keep reproducing them.
func TestWorkspaceMatchesAllocatingAPI(t *testing.T) {
	want := map[string]string{
		"softmax/GradInto/second-order": "86738a8e9f44096ba13fa42783f58c77a239c79f40b597a350449c7d4401df6a",
		"softmax/GradInto/first-order":  "de7d193e96eb18c385d3279cf4fd1e9c408680375bd60a40580b980df2b217cc",
		"softmax/GradWithExtraInto":     "5ed397127919810df0076a3d12e553b881dbc4e8a02bd6b34af2f88518e0a88f",
		"softmax/AdaptInto":             "293e4779ecac33ac03b7d1ce2d2735fd2743f6027c06fa15d2d08f299982d9df",
		"mlp/GradInto/second-order":     "6b42c028af5b5b4b7dc14656a714cfd9eb725ef4c77cfe6fc1148278130bc415",
		"mlp/GradInto/first-order":      "9eb44d3d5f1dd1a2daf014a0fbb585f7db9c50429e1551e1d016273e07fa47d7",
		"mlp/GradWithExtraInto":         "dd1fa7bdde35ea3dd3aa834de5560fb362c3717b958f885759f85eeb6cbcaacc",
		"mlp/AdaptInto":                 "a75b6170ec3fb3e299885de424ffa5e980b01d934283d09793df36b13e84c140",
	}
	for _, tc := range []struct {
		name string
		m    nn.Model
	}{
		{"softmax", &nn.SoftmaxRegression{In: 4, Classes: 3, L2: 0.01}},
		{"mlp", mustMLP(t, nn.MLPConfig{Dims: []int{4, 5, 3}, BatchNorm: true, L2: 0.01})},
	} {
		m := tc.m
		r := rng.New(2)
		train := randBatch(r, 6, 4, 3)
		test := randBatch(r, 7, 4, 3)
		extra := randBatch(r, 3, 4, 3)
		theta := m.InitParams(r)
		ws := NewWorkspace(m)
		grad := tensor.NewVec(m.NumParams())
		out := tensor.NewVec(m.NumParams())
		for _, c := range []struct {
			method string
			run    func() []tensor.Vec
		}{
			{"GradInto/second-order", func() []tensor.Vec {
				return []tensor.Vec{grad, ws.GradInto(theta, train, test, 0.05, SecondOrder, grad)}
			}},
			{"GradInto/first-order", func() []tensor.Vec {
				return []tensor.Vec{grad, ws.GradInto(theta, train, test, 0.05, FirstOrder, grad)}
			}},
			{"GradWithExtraInto", func() []tensor.Vec {
				return []tensor.Vec{grad, ws.GradWithExtraInto(theta, train, test, extra, 0.05, SecondOrder, grad)}
			}},
			{"AdaptInto", func() []tensor.Vec {
				ws.AdaptInto(theta, train, 0.05, 4, out)
				return []tensor.Vec{out}
			}},
		} {
			name := tc.name + "/" + c.method
			t.Run(name, func(t *testing.T) {
				if got := digest(c.run()...); got != want[name] {
					t.Errorf("digest %s, want %s", got, want[name])
				}
			})
		}
	}
}
