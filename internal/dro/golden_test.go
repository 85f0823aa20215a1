package dro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
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

// flatten lists every sample's features followed by its label.
func flatten(ss []data.Sample, err error) ([]tensor.Vec, error) {
	var vs []tensor.Vec
	for _, s := range ss {
		vs = append(vs, s.X, tensor.Vec{float64(s.Y)})
	}
	return vs, err
}

// TestGoldenMLP pins the exact bits of robust adaptation and the attacks on
// a batch-normalized MLP, the model whose input gradient depends on the
// reference batch. The digests were recorded when every attack evaluated
// its input gradients on a fresh workspace per call, so they also prove
// that sharing one workspace per attack or batch changes nothing.
func TestGoldenMLP(t *testing.T) {
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 6, 3}, BatchNorm: true, L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	batch := make([]data.Sample, 12)
	for i := range batch {
		x := tensor.NewVec(4)
		for j := range x {
			x[j] = r.Norm()
		}
		batch[i] = data.Sample{X: x, Y: r.IntN(3)}
	}
	theta := m.InitParams(r)
	cfg := PerturbConfig{Lambda: 0.1, Nu: 0.3, Steps: 3, Cost: SquaredL2{}, ClampMin: -2, ClampMax: 2}
	for _, tc := range []struct {
		name string
		run  func() ([]tensor.Vec, error)
		want string
	}{
		{"RobustAdapt", func() ([]tensor.Vec, error) {
			phi, err := RobustAdapt(m, theta, batch[:6], 0.1, 2, cfg)
			return []tensor.Vec{phi}, err
		}, "12c0d2fccca8ff8d245895f8d7852468537b780c007359ca26a440831b65178b"},
		{"FGSMBatch", func() ([]tensor.Vec, error) {
			return flatten(FGSMBatch(m, theta, batch, 0.1, -2, 2))
		}, "ede2c9564d4e60c9185a281df1e234267e239e7b6fdfa616f1a5858853c878eb"},
		{"PGDL2Batch", func() ([]tensor.Vec, error) {
			return flatten(PGDL2Batch(m, theta, batch, 0.5, 0.2, 4, -2, 2))
		}, "f9cc1a77799e6d78d98a3f149b7dcf8f9edd20079c2c18fc97eafbbca79c2f58"},
		{"Perturb", func() ([]tensor.Vec, error) {
			adv, err := Perturb(m, theta, batch[0], batch, cfg)
			return flatten([]data.Sample{adv}, err)
		}, "cc2f0fd61fb5703af0e15f46fe63e46cfe23d78ade8f66e8df351d0c0a72a5c2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if d := digest(got...); d != tc.want {
				t.Errorf("digest %s, want %s", d, tc.want)
			}
		})
	}
}
