package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/fedavg"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/repshare"
	"github.com/edgeai/fedml/internal/tensor"
)

// The new-workloads extension: the Fed-Meta-Align-style comparison matrix on
// the two scenarios where fast adaptation is the product — federated
// recommendation (each node a user; the metric post-adaptation rating
// accuracy) and TinyML fault classification (heterogeneous per-device class
// skew and sensor calibration). Four algorithms run on the same federation
// and each is scored on the personalized-vs-global split over held-out
// target nodes:
//
//	fedml     meta-learned initialization (core.Train), the platform arm —
//	          composable with the codec/sync-mask/async knobs so the matrix
//	          exercises the whole stack, and the arm whose accuracy/traffic
//	          trajectory is recorded ext-codec style
//	fedavg    single global fit, the paper's baseline
//	fedprox   global fit with the proximal term (μ > 0)
//	repshare  structurally personalized: shared representation, private heads
//
// The headline claim the acceptance test pins: FedML's adapted accuracy
// beats the global (un-adapted) accuracy of both FedAvg and FedProx on both
// workloads — single global models cannot express per-node structure that
// one adaptation step recovers.

// ExtWorkloadConfig parameterizes one workload's comparison matrix.
type ExtWorkloadConfig struct {
	Scale Scale
	// Workload selects the scenario: "rec" or "fault".
	Workload string
	// Alpha, Beta are FedML's adaptation and meta rates; Eta the local rate
	// of the non-meta baselines (paper convention: Eta = Beta).
	Alpha, Beta, Eta float64
	// T, T0 are the iteration budget and local steps per round.
	T, T0 int
	// Hidden is the MLP hidden width (a hidden layer is required: repshare
	// needs a non-head representation block to share).
	Hidden int
	// AdaptSteps is the per-node adaptation budget of the personalized
	// column.
	AdaptSteps int
	// Mu is FedProx's proximal coefficient; it must be positive, or the
	// fedprox arm would silently be FedAvg.
	Mu float64
	// Codec, SyncMask, and Async thread the platform knobs through the
	// fedml arm: wire codec spec ("" = raw), partial-sync mask spec (e.g.
	// "head:2", "" = full sync), and buffered-async aggregation.
	Codec    string
	SyncMask string
	Async    bool
	Seed     uint64
	// Workers bounds the per-arm fan-out (0 = GOMAXPROCS).
	Workers int
}

// DefaultExtWorkloadConfig returns the matrix configuration for a workload.
func DefaultExtWorkloadConfig(workload string, scale Scale) ExtWorkloadConfig {
	cfg := ExtWorkloadConfig{
		Scale:      scale,
		Workload:   workload,
		Alpha:      0.05,
		Beta:       0.05,
		Eta:        0.05,
		T:          400,
		T0:         10,
		Hidden:     16,
		AdaptSteps: 5,
		Mu:         0.1,
		Seed:       1,
	}
	if scale == ScaleCI {
		cfg.T = 120
	}
	return cfg
}

// workloadFederation builds the named new-workload federation at scale.
func workloadFederation(workload string, scale Scale, seed uint64) (*data.Federation, error) {
	switch workload {
	case "rec":
		cfg := data.DefaultRecommendConfig()
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Users = 20
			cfg.Items = 60
		}
		return data.GenerateRecommend(cfg)
	case "fault":
		cfg := data.DefaultFaultConfig()
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Devices = 20
		}
		return data.GenerateFault(cfg)
	default:
		return nil, fmt.Errorf("ext-workload: unknown workload %q (want rec or fault)", workload)
	}
}

// ExtWorkloadResult holds the personalization matrix plus the fedml arm's
// accuracy/traffic trajectory.
type ExtWorkloadResult struct {
	Scale    Scale
	Workload string
	// AdaptSteps is the adaptation depth of the personalized column.
	AdaptSteps int
	// Arms and Pers are the matrix rows: per algorithm, global vs adapted
	// target accuracy.
	Arms []string
	Pers []eval.Personalization
	// AccVsKiB is the fedml arm's adapted accuracy against cumulative wire
	// KiB (ext-codec style); Codec/MaskSpec record the knobs it ran under.
	AccVsKiB *eval.Series
	TotalKiB float64
	Codec    string
	MaskSpec string
	Async    bool
}

// RunExtWorkload trains the four algorithms on the same workload federation
// and reports each one's personalized-vs-global split. Arms are independent
// and fan out on the worker pool; every arm rebuilds its own federation from
// the shared seed, so results are bit-identical for every worker count.
func RunExtWorkload(cfg ExtWorkloadConfig) (*ExtWorkloadResult, error) {
	if cfg.Mu <= 0 {
		return nil, fmt.Errorf("ext-%s: fedprox proximal coefficient must be positive, got %v", cfg.Workload, cfg.Mu)
	}
	arms := []string{"fedml", "fedavg", "fedprox", "repshare"}
	pers := make([]eval.Personalization, len(arms))
	var accVsKiB *eval.Series
	var totalKiB float64
	err := par.ForEachErr(cfg.Workers, len(arms), func(c int) error {
		arm := arms[c]
		fed, err := workloadFederation(cfg.Workload, cfg.Scale, cfg.Seed)
		if err != nil {
			return fmt.Errorf("ext-%s data: %w", cfg.Workload, err)
		}
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, cfg.Hidden, fed.NumClasses}, L2: 0.01})
		if err != nil {
			return fmt.Errorf("ext-%s model: %w", cfg.Workload, err)
		}
		var theta tensor.Vec
		switch arm {
		case "fedml":
			rec := obs.NewRecorder()
			accByIter := map[int]float64{}
			trainCfg := core.Config{
				Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
				Codec:    cfg.Codec,
				Observer: rec,
				OnRound: func(_, iter int, th tensor.Vec) {
					accs := eval.FinalAccuraciesN(m, th, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
					var s float64
					for _, a := range accs {
						s += a
					}
					accByIter[iter] = s / float64(len(accs))
				},
			}
			if cfg.SyncMask != "" {
				mask, err := core.ResolveSyncMask(cfg.SyncMask, m)
				if err != nil {
					return fmt.Errorf("ext-%s mask: %w", cfg.Workload, err)
				}
				trainCfg.SyncMask = mask
			}
			if cfg.Async {
				trainCfg.Async = true
				trainCfg.RoundTimeout = 30 * time.Second
			}
			res, err := core.Train(m, fed, nil, trainCfg)
			if err != nil {
				return fmt.Errorf("ext-%s train fedml: %w", cfg.Workload, err)
			}
			theta = res.Theta
			spec := cfg.Codec
			if spec == "" {
				spec = "raw"
			}
			curve := &eval.Series{Name: "fedml/" + spec}
			for _, p := range eval.TrafficTrajectory(spec, rec.Rounds()).Points {
				if acc, ok := accByIter[p.Iter]; ok {
					curve.Add(int(p.Value/1024), acc)
				}
			}
			accVsKiB = curve
			totalKiB = float64(res.Comm.Bytes) / 1024
		case "fedavg":
			res, err := fedavg.Train(m, fed, nil, fedavg.Config{
				Eta: cfg.Eta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Workers: 1,
			})
			if err != nil {
				return fmt.Errorf("ext-%s train fedavg: %w", cfg.Workload, err)
			}
			theta = res.Theta
		case "fedprox":
			res, err := fedavg.Train(m, fed, nil, fedavg.Config{
				Eta: cfg.Eta, ProxMu: cfg.Mu, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Workers: 1,
			})
			if err != nil {
				return fmt.Errorf("ext-%s train fedprox: %w", cfg.Workload, err)
			}
			theta = res.Theta
		case "repshare":
			res, err := repshare.Train(m, fed, nil, repshare.Config{
				Eta: cfg.Eta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Workers: 1,
			})
			if err != nil {
				return fmt.Errorf("ext-%s train repshare: %w", cfg.Workload, err)
			}
			theta = res.Theta
		}
		// Targets are nodes unseen during training for every arm, so the
		// same split applies: θ as-is (global) vs θ after AdaptSteps local
		// steps on the node's K-shot split (personalized).
		pers[c] = eval.PersonalizationN(m, theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtWorkloadResult{
		Scale:      cfg.Scale,
		Workload:   cfg.Workload,
		AdaptSteps: cfg.AdaptSteps,
		Arms:       arms,
		Pers:       pers,
		AccVsKiB:   accVsKiB,
		TotalKiB:   totalKiB,
		Codec:      cfg.Codec,
		MaskSpec:   cfg.SyncMask,
		Async:      cfg.Async,
	}, nil
}

// Gate is the personalization claim: FedML's adapted accuracy is at least
// the global accuracy of FedAvg and FedProx, and adaptation helps it (a
// positive personalization gap).
func (r *ExtWorkloadResult) Gate() error {
	arm := map[string]eval.Personalization{}
	for i, name := range r.Arms {
		arm[name] = r.Pers[i]
	}
	fedml := arm["fedml"]
	for _, baseline := range []string{"fedavg", "fedprox"} {
		if !(fedml.Adapted >= arm[baseline].Global) {
			return fmt.Errorf("%s: FedML adapted %.4f below %s global %.4f",
				r.Workload, fedml.Adapted, baseline, arm[baseline].Global)
		}
	}
	if !(fedml.Gap() > 0) {
		return fmt.Errorf("%s: FedML personalization gap %.4f not positive", r.Workload, fedml.Gap())
	}
	return nil
}

// workloadEntry is the "ext_rec"/"ext_fault" record: the fedml arm's
// accuracy/traffic trajectory and the personalization matrix.
type workloadEntry struct {
	Scale      Scale           `json:"scale"`
	Workload   string          `json:"workload"`
	AdaptSteps int             `json:"adapt_steps"`
	TotalKiB   float64         `json:"total_kib"`
	Trajectory []workloadPoint `json:"trajectory"`
	Arms       []workloadArm   `json:"arms"`
}

type workloadPoint struct {
	KiB int     `json:"kib"`
	Acc float64 `json:"acc"`
}

type workloadArm struct {
	Arm        string  `json:"arm"`
	GlobalAcc  float64 `json:"global_acc"`
	AdaptedAcc float64 `json:"adapted_acc"`
	Gap        float64 `json:"gap"`
}

// entry builds the "ext_rec"/"ext_fault" record.
func (r *ExtWorkloadResult) entry() workloadEntry {
	e := workloadEntry{Scale: r.Scale, Workload: r.Workload, AdaptSteps: r.AdaptSteps, TotalKiB: r.TotalKiB}
	if r.AccVsKiB != nil {
		for _, p := range r.AccVsKiB.Points {
			e.Trajectory = append(e.Trajectory, workloadPoint{KiB: p.Iter, Acc: p.Value})
		}
	}
	for i, name := range r.Arms {
		p := r.Pers[i]
		e.Arms = append(e.Arms, workloadArm{Arm: name, GlobalAcc: p.Global, AdaptedAcc: p.Adapted, Gap: p.Gap()})
	}
	return e
}

// Render implements the printable extension: the fedml accuracy-vs-KiB
// trajectory, then the personalization matrix.
func (r *ExtWorkloadResult) Render() string {
	var b strings.Builder
	knobs := ""
	if r.Codec != "" {
		knobs += " codec=" + r.Codec
	}
	if r.MaskSpec != "" {
		knobs += " mask=" + r.MaskSpec
	}
	if r.Async {
		knobs += " async"
	}
	fmt.Fprintf(&b, "Extension: %s workload — personalized vs global accuracy on held-out nodes%s\n", r.Workload, knobs)
	if r.AccVsKiB != nil {
		fmt.Fprintf(&b, "arm %s (KiB -> mean adapted target accuracy, total %.1f KiB)\n", r.AccVsKiB.Name, r.TotalKiB)
		b.WriteString(r.AccVsKiB.TSV())
	}
	b.WriteString("arm        global acc   adapted acc   gap\n")
	for i, name := range r.Arms {
		p := r.Pers[i]
		fmt.Fprintf(&b, "%-10s %-12.4f %-13.4f %+.4f\n", name, p.Global, p.Adapted, p.Gap())
	}
	b.WriteString("(global = θ applied unchanged; adapted = after per-node K-shot fine-tuning;\n" +
		"fedml meta-learns for adaptation, repshare personalizes structurally via private heads)\n")
	return b.String()
}
