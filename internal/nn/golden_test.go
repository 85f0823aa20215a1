package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// digest is the SHA-256 of the little-endian IEEE-754 bits of xs: a golden
// value that changes with any single-bit difference in the numbers.
func digest(xs ...float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenKernels holds, per model and kernel, the digest of the output of the
// allocating twin each kernel used to have (Grad, HVP, InputGrad, Loss) on
// the fixed draw in kernelDigests. Those twins are deleted; the kernels must
// keep reproducing their bits.
var goldenKernels = map[string]string{
	"softmax/GradInto":      "420e545885a6565147003119e8e41c5cd692fa56795ddcd1bc9526e915ba5b3f",
	"softmax/HVPInto":       "8e69085b1183aa3ef48c14f40c47e480324a3232dc397e71d196d3d42224661b",
	"softmax/InputGradInto": "0197891f3bb0196f3d23b9c9c5ca4d9da5ea81d13aadf879665a11ab2f5943a9",
	"softmax/LossWith":      "b5b7328b3772d0e8422ad434777a48bc2e7f9a5537a5bc5f46a804e43f619dc5",
	"mlp/GradInto":          "ae74c6c79127785116a083e0d0e6f04b1b35fd974ff9a85539beeee67ad04dee",
	"mlp/HVPInto":           "f0e834cb17e045ef0bf9de45f024b800a6c8e13f70ceae3593d6c7cdc16c7917",
	"mlp/InputGradInto":     "9ad0b446b42ed1f1767f73886bdb00a763874f730345f5bfae0fd0f244a0f3b9",
	"mlp/LossWith":          "b135a604eb00a6364f88334228b3a0147821ecf2a9fac4ede229f089b99a7cfa",
}

// kernelDigests runs all four kernels, in a fixed order on one shared
// workspace per model (which also exercises buffer reuse across kernel
// kinds), and returns the digest of each output keyed as in goldenKernels.
func kernelDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, tc := range []struct {
		name string
		m    Model
	}{
		{"softmax", &SoftmaxRegression{In: 6, Classes: 4, L2: 0.01}},
		{"mlp", mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, BatchNorm: true, L2: 0.01})},
	} {
		m := tc.m
		r := rng.New(9)
		batch := randBatch(r, 11, 6, 4)
		params := m.InitParams(r)
		v := tensor.NewVec(m.NumParams())
		for i := range v {
			v[i] = r.Norm()
		}
		ws := m.NewWorkspace()
		out := tensor.NewVec(m.NumParams())
		ig := tensor.NewVec(6)
		m.GradInto(ws, params, batch, out)
		got[tc.name+"/GradInto"] = digest(out...)
		m.HVPInto(ws, params, batch, v, out)
		got[tc.name+"/HVPInto"] = digest(out...)
		m.InputGradInto(ws, params, batch[0], batch, ig)
		got[tc.name+"/InputGradInto"] = digest(ig...)
		got[tc.name+"/LossWith"] = digest(m.LossWith(ws, params, batch))
	}
	return got
}

// checkGolden asserts one kernel's digests for both models.
func checkGolden(t *testing.T, kernel string) {
	t.Helper()
	got := kernelDigests(t)
	for _, model := range []string{"softmax", "mlp"} {
		key := model + "/" + kernel
		t.Run(model, func(t *testing.T) {
			if got[key] != goldenKernels[key] {
				t.Errorf("%s digest %s, want %s", key, got[key], goldenKernels[key])
			}
		})
	}
}

func TestGradIntoMatchesGrad(t *testing.T)           { checkGolden(t, "GradInto") }
func TestHVPIntoMatchesHVP(t *testing.T)             { checkGolden(t, "HVPInto") }
func TestInputGradIntoMatchesInputGrad(t *testing.T) { checkGolden(t, "InputGradInto") }
func TestLossWithMatchesLoss(t *testing.T)           { checkGolden(t, "LossWith") }
