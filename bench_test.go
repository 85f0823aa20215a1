package fedml_test

import (
	"fmt"
	"net"
	"testing"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/experiments"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// The experiment benchmarks run shrunken-but-structurally-identical
// configurations of each table/figure so that `go test -bench=.` finishes in
// minutes; `cmd/fedml-bench -paper` runs the full-scale versions.

func benchExperiment(b *testing.B, run func() error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	benchExperiment(b, func() error {
		_, err := experiments.RunTable1(experiments.Table1Config{Scale: experiments.ScaleCI, Seed: 1})
		return err
	})
}

func BenchmarkFig2aNodeSimilarity(b *testing.B) {
	cfg := experiments.DefaultFig2aConfig(experiments.ScaleCI)
	cfg.T = 100
	benchExperiment(b, func() error {
		_, err := experiments.RunFig2a(cfg)
		return err
	})
}

func BenchmarkFig2bLocalSteps(b *testing.B) {
	cfg := experiments.DefaultFig2bConfig(experiments.ScaleCI)
	cfg.T = 100
	benchExperiment(b, func() error {
		_, err := experiments.RunFig2b(cfg)
		return err
	})
}

func BenchmarkFig3aSent140Convergence(b *testing.B) {
	cfg := experiments.DefaultFig3aConfig(experiments.ScaleCI)
	cfg.T = 20
	benchExperiment(b, func() error {
		_, err := experiments.RunFig3a(cfg)
		return err
	})
}

func BenchmarkFig3bTargetSimilarity(b *testing.B) {
	cfg := experiments.DefaultFig3bConfig(experiments.ScaleCI)
	cfg.T = 50
	benchExperiment(b, func() error {
		_, err := experiments.RunFig3b(cfg)
		return err
	})
}

func BenchmarkFig3cAdaptSynthetic(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("synthetic", experiments.ScaleCI)
	cfg.T = 50
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig3dAdaptMNIST(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("mnist", experiments.ScaleCI)
	cfg.T = 30
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig3eAdaptSent140(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("sent140", experiments.ScaleCI)
	cfg.T = 20
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig4RobustAdapt(b *testing.B) {
	cfg := experiments.DefaultFig4Config(experiments.ScaleCI)
	cfg.T = 100
	cfg.N0 = 8
	cfg.Lambdas = []float64{0.01}
	benchExperiment(b, func() error {
		_, err := experiments.RunFig4(cfg)
		return err
	})
}

func BenchmarkFig4eXiSweep(b *testing.B) {
	cfg := experiments.DefaultFig4eConfig(experiments.ScaleCI)
	cfg.T = 100
	cfg.N0 = 8
	cfg.Xis = []float64{0.02}
	benchExperiment(b, func() error {
		_, err := experiments.RunFig4e(cfg)
		return err
	})
}

func BenchmarkThm3SurrogateDistance(b *testing.B) {
	cfg := experiments.DefaultThm3Config(experiments.ScaleCI)
	cfg.T = 50
	cfg.OptSteps = 50
	benchExperiment(b, func() error {
		_, err := experiments.RunThm3(cfg)
		return err
	})
}

func BenchmarkExtTimeToTarget(b *testing.B) {
	cfg := experiments.DefaultExtTimeConfig(experiments.ScaleCI)
	cfg.T = 100
	cfg.TargetG = 1.2
	benchExperiment(b, func() error {
		_, err := experiments.RunExtTime(cfg)
		return err
	})
}

func BenchmarkExtBaselines(b *testing.B) {
	cfg := experiments.DefaultExtBaselinesConfig(experiments.ScaleCI)
	cfg.T = 30
	benchExperiment(b, func() error {
		_, err := experiments.RunExtBaselines(cfg)
		return err
	})
}

// --- Ablation benchmarks (DESIGN.md §5) ---

func benchFederation(b *testing.B) (*data.Federation, *nn.SoftmaxRegression) {
	b.Helper()
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 10
	cfg.Seed = 1
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

// BenchmarkAblationFirstOrder compares the cost of federated training with
// the exact second-order meta-gradient vs the FOMAML approximation.
func BenchmarkAblationFirstOrder(b *testing.B) {
	fed, m := benchFederation(b)
	for _, mode := range []meta.GradMode{meta.SecondOrder, meta.FirstOrder} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Alpha: 0.05, Beta: 0.01, T: 20, T0: 5, Seed: 1, GradMode: mode}
				if _, err := core.Train(m, fed, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHVP compares the analytic softmax Hessian-vector product
// against the central finite difference the MLP runs (FiniteDiffHVPInto).
func BenchmarkAblationHVP(b *testing.B) {
	fed, m := benchFederation(b)
	r := rng.New(1)
	theta := m.InitParams(r)
	v := m.InitParams(r)
	batch := fed.Sources[0].Test
	ws := m.NewWorkspace()
	n := m.NumParams()
	out, p, g := tensor.NewVec(n), tensor.NewVec(n), tensor.NewVec(n)

	b.Run("analytic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.HVPInto(ws, theta, batch, v, out)
		}
	})
	b.Run("finite-difference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nn.FiniteDiffHVPInto(m, ws, theta, batch, v, out, p, g)
		}
	})
}

// BenchmarkAblationTransport compares one round-trip of a full parameter
// vector over the in-memory pipe vs loopback TCP.
func BenchmarkAblationTransport(b *testing.B) {
	params := make([]float64, 7850) // MNIST softmax parameter count

	b.Run("memory", func(b *testing.B) {
		p, n := transport.Pair()
		defer p.Close()
		defer n.Close()
		go func() {
			for {
				m, err := n.Recv()
				if err != nil {
					return
				}
				if err := n.Send(m); err != nil {
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Send(transport.Msg{Kind: transport.KindParams, Params: params}); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("tcp", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			links, err := transport.Accept(ln, 1)
			if err != nil {
				return
			}
			defer links[0].Close()
			for {
				m, err := links[0].Recv()
				if err != nil {
					return
				}
				if err := links[0].Send(m); err != nil {
					return
				}
			}
		}()
		link, err := transport.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := link.Send(transport.Msg{Kind: transport.KindParams, Params: params}); err != nil {
				b.Fatal(err)
			}
			if _, err := link.Recv(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		link.Close()
		<-done
	})
}

// BenchmarkAblationLocalSteps measures how the communication budget trades
// against wall time as T0 varies at fixed T (the knob Theorem 2 analyzes).
func BenchmarkAblationLocalSteps(b *testing.B) {
	fed, m := benchFederation(b)
	for _, t0 := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("T0=%d", t0), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Alpha: 0.05, Beta: 0.01, T: 20, T0: t0, Seed: 1}
				res, err := core.Train(m, fed, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Comm.Messages), "msgs/op")
			}
		})
	}
}

// BenchmarkMetaStep is the micro-benchmark of one full meta-update (inner
// step + outer gradient + HVP correction, then the β step of Eq. 4) on the
// synthetic model, against a warm workspace.
func BenchmarkMetaStep(b *testing.B) {
	fed, m := benchFederation(b)
	theta := m.InitParams(rng.New(1))
	nd := fed.Sources[0]
	ws := meta.NewWorkspace(m)
	grad := tensor.NewVec(m.NumParams())
	next := tensor.NewVec(m.NumParams())
	ws.GradInto(theta, nd.Train, nd.Test, 0.05, meta.SecondOrder, grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.GradInto(theta, nd.Train, nd.Test, 0.05, meta.SecondOrder, grad)
		theta.AxpyInto(-0.01, grad, next)
	}
}

// BenchmarkFastAdaptation measures the target-side cost of real-time edge
// intelligence: one adaptation gradient step on K samples.
func BenchmarkFastAdaptation(b *testing.B) {
	fed, m := benchFederation(b)
	theta := m.InitParams(rng.New(1))
	nd := fed.Targets[0]
	ws := meta.NewWorkspace(m)
	phi := tensor.NewVec(m.NumParams())
	ws.AdaptInto(theta, nd.Train, 0.05, 1, phi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.AdaptInto(theta, nd.Train, 0.05, 1, phi)
	}
}

// --- Zero-allocation kernel benchmarks (DESIGN.md §6) ---

// BenchmarkGradInto measures the buffered gradient kernels against a warm
// workspace; steady state is expected to report 0 allocs/op.
func BenchmarkGradInto(b *testing.B) {
	fed, sm := benchFederation(b)
	batch := fed.Sources[0].Train
	mlp, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, BatchNorm: true, L2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    nn.Model
	}{
		{"softmax", sm},
		{"mlp", mlp},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theta := tc.m.InitParams(rng.New(1))
			ws := tc.m.NewWorkspace()
			out := tensor.NewVec(tc.m.NumParams())
			tc.m.GradInto(ws, theta, batch, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.GradInto(ws, theta, batch, out)
			}
		})
	}
}

// BenchmarkGradStepInto measures the fused gradient+descent-step kernel —
// one pass over the parameter vector instead of gradient-write, copy, axpy —
// that the fedavg/reptile/meta inner loops run. Steady state is expected to
// report 0 allocs/op.
func BenchmarkGradStepInto(b *testing.B) {
	fed, sm := benchFederation(b)
	batch := fed.Sources[0].Train
	mlp, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, BatchNorm: true, L2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    nn.Model
	}{
		{"softmax", sm},
		{"mlp", mlp},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theta := tc.m.InitParams(rng.New(1))
			ws := tc.m.NewWorkspace()
			out := tensor.NewVec(tc.m.NumParams())
			tc.m.GradStepInto(ws, theta, batch, 0.05, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.GradStepInto(ws, theta, batch, 0.05, out)
			}
		})
	}
}

// BenchmarkMetaGradInto measures one full buffered meta-gradient (inner
// step + outer gradient + HVP correction) — BenchmarkMetaStep without the β
// step.
func BenchmarkMetaGradInto(b *testing.B) {
	fed, m := benchFederation(b)
	theta := m.InitParams(rng.New(1))
	nd := fed.Sources[0]
	ws := meta.NewWorkspace(m)
	grad := tensor.NewVec(m.NumParams())
	ws.GradInto(theta, nd.Train, nd.Test, 0.05, meta.SecondOrder, grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.GradInto(theta, nd.Train, nd.Test, 0.05, meta.SecondOrder, grad)
	}
}
