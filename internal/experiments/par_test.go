package experiments

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/rng"
)

// estimateGStar's normal path returns a finite reference value and no error.
func TestEstimateGStarNormalPath(t *testing.T) {
	fed, err := syntheticFederation(0.5, 0.5, ScaleCI, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := softmaxModel(fed)
	gStar, err := estimateGStar(m, fed, 0.01, 0.01, 50, 1)
	if err != nil {
		t.Fatalf("normal path returned error: %v", err)
	}
	init := eval.GlobalMetaObjectiveN(m, fed, 0.01, m.InitParams(rng.New(99)), 1)
	if gStar >= init {
		t.Errorf("reference run did not improve on initialization: G* = %v, init = %v", gStar, init)
	}
}

// When the reference run diverges, estimateGStar must fall back to the
// initialization objective AND report the failure — the old code swallowed
// it, making a diverged baseline indistinguishable from a converged one.
func TestEstimateGStarFallbackReportsError(t *testing.T) {
	fed, err := syntheticFederation(0.5, 0.5, ScaleCI, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := softmaxModel(fed)
	// A NaN meta rate slips past the lower clamp (NaN < 0.05 is false) and
	// poisons θ on the first SGD step, so the reference run reliably fails.
	gStar, gErr := estimateGStar(m, fed, 0.01, math.NaN(), 20, 1)
	if gErr == nil {
		t.Fatal("diverged reference run reported no error")
	}
	if !strings.Contains(gErr.Error(), "falling back to initialization objective") {
		t.Errorf("error does not describe the fallback: %v", gErr)
	}
	want := eval.GlobalMetaObjectiveN(m, fed, 0.01, m.InitParams(rng.New(99)), 1)
	if gStar != want {
		t.Errorf("fallback value = %v, want initialization objective %v", gStar, want)
	}
}

// A degraded G* baseline must be visible in the rendered figure, and a clean
// run must not carry a warning banner.
func TestFig2aRendersGStarWarning(t *testing.T) {
	clean := Fig2aConfig{
		Scale:        ScaleCI,
		Similarities: []float64{0.5},
		Alpha:        0.01,
		Beta:         0.01,
		T:            20,
		T0:           10,
		Seed:         1,
		Workers:      1,
	}
	res, err := RunFig2a(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean run produced warnings: %v", res.Warnings)
	}
	if strings.Contains(res.Render(), "WARNING") {
		t.Error("clean render contains a warning banner")
	}
	res.Warnings = append(res.Warnings, "Synthetic(0.5,0.5): G* reference run failed")
	if out := res.Render(); !strings.Contains(out, "WARNING: Synthetic(0.5,0.5): G* reference run failed") {
		t.Errorf("warning not rendered:\n%s", out)
	}
}

// Experiment output must be byte-identical across worker counts. This is the
// end-to-end determinism check over the whole pipeline: data generation,
// training, evaluation, bootstrap, and rendering.
func TestExperimentsWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison")
	}
	t.Run("table1", func(t *testing.T) {
		t.Parallel()
		ref, err := RunTable1(Table1Config{Scale: ScaleCI, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunTable1(Table1Config{Scale: ScaleCI, Seed: 1, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Render() != par.Render() {
			t.Errorf("table1 output differs between workers=1 and workers=8:\n%s\n---\n%s", ref.Render(), par.Render())
		}
	})
	t.Run("fig2a", func(t *testing.T) {
		t.Parallel()
		cfg := Fig2aConfig{
			Scale:        ScaleCI,
			Similarities: []float64{0, 1},
			Alpha:        0.01,
			Beta:         0.01,
			T:            40,
			T0:           10,
			Seed:         1,
		}
		cfg.Workers = 1
		ref, err := RunFig2a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		par, err := RunFig2a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Render() != par.Render() {
			t.Error("fig2a output differs between workers=1 and workers=8")
		}
	})
	t.Run("ext-meta-opt", func(t *testing.T) {
		t.Parallel()
		cfg := DefaultExtMetaOptConfig(ScaleCI)
		cfg.Iters = 30
		cfg.Workers = 1
		ref, err := RunExtMetaOpt(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		par, err := RunExtMetaOpt(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Render() != par.Render() {
			t.Error("ext-meta-opt output differs between workers=1 and workers=8")
		}
	})
}

// Regression for the Degenerate flag: it used to be derived from
// runtime.GOMAXPROCS alone, so a `-workers 1` run on a multi-core box was
// recorded as a non-degenerate ~1.0× "speedup". It must depend on the
// parallelism the run actually used.
func TestDegenerateRun(t *testing.T) {
	cases := []struct {
		workers, gomaxprocs int
		want                bool
	}{
		{workers: 1, gomaxprocs: 8, want: true}, // the original bug: -workers 1 on a multi-core host
		{workers: 8, gomaxprocs: 1, want: true}, // single-core host: workers contend for one P
		{workers: 1, gomaxprocs: 1, want: true},
		{workers: 2, gomaxprocs: 2, want: false},
		{workers: 8, gomaxprocs: 8, want: false},
	}
	for _, c := range cases {
		if got := degenerateRun(c.workers, c.gomaxprocs); got != c.want {
			t.Errorf("degenerateRun(workers=%d, gomaxprocs=%d) = %v, want %v", c.workers, c.gomaxprocs, got, c.want)
		}
	}
}

// A worker count ≤ 0 means all cores, as everywhere else: the sweep used to
// record `-workers -2` as its worker count while running only workers=1.
func TestWorkerSweep(t *testing.T) {
	all := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers int
		want    []int
	}{
		{workers: 0, want: workerSweep(all)},
		{workers: -2, want: workerSweep(all)},
		{workers: 1, want: []int{1}},
		{workers: 2, want: []int{2}},
		{workers: 3, want: []int{2, 3}},
		{workers: 6, want: []int{2, 4, 6}},
		{workers: 8, want: []int{2, 4, 8}},
		{workers: 9, want: []int{2, 4, 8, 9}},
	}
	for _, c := range cases {
		if got := workerSweep(c.workers); !slices.Equal(got, c.want) {
			t.Errorf("workerSweep(%d) = %v, want %v", c.workers, got, c.want)
		}
	}
	if got := workerSweep(-2); got[len(got)-1] != all {
		t.Errorf("workerSweep(-2) = %v, want it to end at all %d cores", got, all)
	}
}
