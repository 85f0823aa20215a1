package eval

import (
	"testing"

	"github.com/edgeai/fedml/internal/rng"
)

func TestPairedBootstrapValidation(t *testing.T) {
	r := rng.New(1)
	a := []float64{1, 2, 3}
	if _, err := PairedBootstrap(r, nil, nil, 100, 0.95); err == nil {
		t.Error("empty vectors accepted")
	}
	if _, err := PairedBootstrap(r, a, a[:2], 100, 0.95); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PairedBootstrap(r, a, a, 5, 0.95); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := PairedBootstrap(r, a, a, 100, 1.5); err == nil {
		t.Error("bad confidence accepted")
	}
	if _, err := PairedBootstrap(nil, a, a, 100, 0.95); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestPairedBootstrapIdenticalVectors(t *testing.T) {
	r := rng.New(2)
	a := []float64{0.5, 0.6, 0.7, 0.8}
	res, err := PairedBootstrap(r, a, a, 500, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDiff != 0 || res.Lo != 0 || res.Hi != 0 {
		t.Errorf("identical vectors gave %+v", res)
	}
	if res.Significant {
		t.Error("zero difference reported significant")
	}
}

func TestPairedBootstrapClearDifference(t *testing.T) {
	r := rng.New(3)
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = 0.8 + 0.01*float64(i%3)
		b[i] = 0.5 + 0.01*float64(i%3)
	}
	res, err := PairedBootstrap(r, a, b, 1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Errorf("0.3 mean gap not significant: %+v", res)
	}
	if res.MeanDiff < 0.29 || res.MeanDiff > 0.31 {
		t.Errorf("mean diff = %v", res.MeanDiff)
	}
	const eps = 1e-9 // summation-order slack; all pairwise diffs are ~0.3
	if res.Lo > res.MeanDiff+eps || res.Hi < res.MeanDiff-eps {
		t.Errorf("interval [%v, %v] does not cover the mean %v", res.Lo, res.Hi, res.MeanDiff)
	}
}

func TestPairedBootstrapNoisyNoDifference(t *testing.T) {
	// Paired noise with no systematic difference: the CI should straddle 0.
	r := rng.New(4)
	gen := rng.New(5)
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		base := gen.Float64()
		a[i] = base + 0.05*gen.Norm()
		b[i] = base + 0.05*gen.Norm()
	}
	res, err := PairedBootstrap(r, a, b, 2000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Errorf("pure noise reported significant: %+v", res)
	}
}

func TestPairedBootstrapDeterministic(t *testing.T) {
	a := []float64{0.1, 0.9, 0.4, 0.6, 0.3}
	b := []float64{0.2, 0.7, 0.5, 0.4, 0.5}
	r1, r2 := rng.New(7), rng.New(7)
	res1, err := PairedBootstrap(r1, a, b, 500, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := PairedBootstrap(r2, a, b, 500, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Errorf("bootstrap not deterministic: %+v vs %+v", res1, res2)
	}
}

func TestCompareAlgorithmsEndToEnd(t *testing.T) {
	fed, m := tinyFederation(t)
	r := rng.New(9)
	thetaGood := m.InitParams(rng.New(1))
	// Train one initialization briefly so the two differ meaningfully.
	var all []float64
	_ = all
	for i := 0; i < 50; i++ {
		for _, nd := range fed.Sources {
			m.GradStepInto(nil, thetaGood, nd.Train, 0.02, thetaGood)
		}
	}
	thetaBad := m.InitParams(rng.New(2))

	res, err := CompareAlgorithms(r, m, thetaGood, thetaBad, fed.Targets, 0.05, 3, 500, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDiff < -1 || res.MeanDiff > 1 {
		t.Errorf("nonsense mean diff %v", res.MeanDiff)
	}
	if _, err := CompareAlgorithms(r, m, thetaGood, thetaBad, nil, 0.05, 3, 500, 0.9); err == nil {
		t.Error("empty target list accepted")
	}
}
