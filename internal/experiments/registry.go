package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Renderable is a result that can print itself in the paper's table/series
// format.
type Renderable interface {
	Render() string
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the figure/table identifier (e.g. "fig2a").
	ID string
	// Description says what the paper shows there.
	Description string
	// Run executes the experiment at the requested scale on `workers`
	// workers (0 = GOMAXPROCS, 1 = serial). Results are bit-identical for
	// every worker count.
	Run func(scale Scale, workers int) (Renderable, error)
	// Bench is set on a measured experiment: one whose result is gated and
	// recorded by `fedml-bench -bench`.
	Bench *Bench
}

// Bench declares how a measured experiment's result is gated and recorded
// in the keyed measurement file, BENCH_experiments.json.
type Bench struct {
	// Key names the experiment's entry in the measurement file.
	Key string
	// Record applies the experiment's gate to a result of its Run and
	// returns the entry to store under Key.
	Record func(res Renderable) (any, error)
	// Decode parses a stored entry into the type Record returns.
	Decode func(entry []byte) (any, error)
}

// measured builds the Bench of an experiment whose Run returns an R: gate is
// the result's acceptance check and entry builds what is recorded.
func measured[R Renderable, E any](key string, gate func(R) error, entry func(R) E) *Bench {
	return &Bench{
		Key: key,
		Record: func(res Renderable) (any, error) {
			r := res.(R) // the registry pairs each Run with its own result type
			if err := gate(r); err != nil {
				return nil, fmt.Errorf("%s gate: %w", key, err)
			}
			return entry(r), nil
		},
		Decode: func(blob []byte) (any, error) {
			var e E
			err := json.Unmarshal(blob, &e)
			return e, err
		},
	}
}

// configured adapts a DefaultXConfig/RunX pair to Experiment.Run; workers
// points at the config's worker-count field.
func configured[C any, R Renderable](def func(Scale) C, workers func(*C) *int, run func(C) (R, error)) func(Scale, int) (Renderable, error) {
	return func(s Scale, w int) (Renderable, error) {
		cfg := def(s)
		*workers(&cfg) = w
		return run(cfg)
	}
}

// on binds the dataset or workload argument of a DefaultXConfig.
func on[C any](name string, def func(string, Scale) C) func(Scale) C {
	return func(s Scale) C { return def(name, s) }
}

// asIs records a result whose JSON shape is its entry.
func asIs[R any](r R) R { return r }

// All returns the experiment registry, sorted by ID.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:          "table1",
			Description: "Dataset statistics (nodes, samples per node)",
			Run: func(s Scale, workers int) (Renderable, error) {
				return RunTable1(Table1Config{Scale: s, Seed: 1, Workers: workers})
			},
		},
		{
			ID:          "fig2a",
			Description: "Impact of node similarity on FedML convergence (T0=10)",
			Run:         configured(DefaultFig2aConfig, func(c *Fig2aConfig) *int { return &c.Workers }, RunFig2a),
		},
		{
			ID:          "par",
			Description: "Fig. 2(a) wall time at workers=1 vs a doubling worker sweep; outputs must be byte-identical",
			Run: func(s Scale, workers int) (Renderable, error) {
				return RunParSweep(s, workers)
			},
			Bench: measured("par_bench", (*ParSweepResult).Gate, asIs[*ParSweepResult]),
		},
		{
			ID:          "fig2b",
			Description: "Impact of local update count T0 on convergence (fixed T)",
			Run:         configured(DefaultFig2bConfig, func(c *Fig2bConfig) *int { return &c.Workers }, RunFig2b),
		},
		{
			ID:          "fig3a",
			Description: "FedML convergence on non-convex Sent140",
			Run:         configured(DefaultFig3aConfig, func(c *Fig3aConfig) *int { return &c.Workers }, RunFig3a),
		},
		{
			ID:          "fig3b",
			Description: "Impact of target-source similarity on adaptation accuracy",
			Run:         configured(DefaultFig3bConfig, func(c *Fig3bConfig) *int { return &c.Workers }, RunFig3b),
		},
		{
			ID:          "fig3c",
			Description: "FedML vs FedAvg fast adaptation on Synthetic(0.5,0.5)",
			Run:         configured(on("synthetic", DefaultAdaptCompareConfig), func(c *AdaptCompareConfig) *int { return &c.Workers }, RunAdaptCompare),
		},
		{
			ID:          "fig3d",
			Description: "FedML vs FedAvg fast adaptation on MNIST",
			Run:         configured(on("mnist", DefaultAdaptCompareConfig), func(c *AdaptCompareConfig) *int { return &c.Workers }, RunAdaptCompare),
		},
		{
			ID:          "fig3e",
			Description: "FedML vs FedAvg fast adaptation on Sent140",
			Run:         configured(on("sent140", DefaultAdaptCompareConfig), func(c *AdaptCompareConfig) *int { return &c.Workers }, RunAdaptCompare),
		},
		{
			ID:          "fig4",
			Description: "Robust FedML vs FedML on clean and FGSM data (λ sweep)",
			Run:         configured(DefaultFig4Config, func(c *Fig4Config) *int { return &c.Workers }, RunFig4),
		},
		{
			ID:          "fig4e",
			Description: "Robust-FedML improvement vs FGSM budget ξ",
			Run:         configured(DefaultFig4eConfig, func(c *Fig4eConfig) *int { return &c.Workers }, RunFig4e),
		},
		{
			ID:          "thm3",
			Description: "Extension: target adaptation gap vs surrogate distance (Theorem 3)",
			Run:         configured(DefaultThm3Config, func(c *Thm3Config) *int { return &c.Workers }, RunThm3),
		},
		{
			ID:          "ext-time",
			Description: "Extension: modelled time-to-target-G by T0 and network profile",
			Run:         configured(DefaultExtTimeConfig, func(c *ExtTimeConfig) *int { return &c.Workers }, RunExtTime),
		},
		{
			ID:          "ext-baselines",
			Description: "Extension: FedML vs FedML-FO vs FedAvg vs FedProx vs Reptile",
			Run:         configured(DefaultExtBaselinesConfig, func(c *ExtBaselinesConfig) *int { return &c.Workers }, RunExtBaselines),
		},
		{
			ID:          "ext-codec",
			Description: "Extension: accuracy vs wire bytes by update codec (raw/f16/q8/topk)",
			Run:         configured(DefaultExtCodecConfig, func(c *ExtCodecConfig) *int { return &c.Workers }, RunExtCodec),
		},
		{
			ID:          "ext-energy",
			Description: "Extension: accuracy vs modeled joules under partial sync and energy budgets",
			Run:         configured(DefaultExtEnergyConfig, func(c *ExtEnergyConfig) *int { return &c.Workers }, RunExtEnergy),
			Bench:       measured("ext_energy", (*ExtEnergyResult).Gate, asIs[*ExtEnergyResult]),
		},
		{
			ID:          "ext-async",
			Description: "Extension: buffered-async vs sync round throughput under latency skew",
			Run: func(s Scale, workers int) (Renderable, error) {
				return RunExtAsync(DefaultExtAsyncConfig(s))
			},
			Bench: measured("async_skew", (*ExtAsyncResult).Gate, asIs[*ExtAsyncResult]),
		},
		{
			ID:          "ext-scale",
			Description: "Extension: fleet-scale two-tier aggregation (10⁵–10⁶ simulated nodes/round)",
			Run: func(s Scale, workers int) (Renderable, error) {
				return RunExtScale(DefaultExtScaleConfig(s))
			},
			Bench: measured("ext_scale", (*ExtScaleResult).Gate, asIs[*ExtScaleResult]),
		},
		{
			ID:          "ext-rec",
			Description: "Extension: federated recommendation — personalized vs global baselines (FedML/FedAvg/FedProx/RepShare)",
			Run:         configured(on("rec", DefaultExtWorkloadConfig), func(c *ExtWorkloadConfig) *int { return &c.Workers }, RunExtWorkload),
			Bench:       measured("ext_rec", (*ExtWorkloadResult).Gate, (*ExtWorkloadResult).entry),
		},
		{
			ID:          "ext-fault",
			Description: "Extension: TinyML fault classification — personalized vs global baselines under class skew",
			Run:         configured(on("fault", DefaultExtWorkloadConfig), func(c *ExtWorkloadConfig) *int { return &c.Workers }, RunExtWorkload),
			Bench:       measured("ext_fault", (*ExtWorkloadResult).Gate, (*ExtWorkloadResult).entry),
		},
		{
			ID:          "ext-meta-opt",
			Description: "Extension: outer-optimizer ablation (SGD vs momentum vs Adam)",
			Run:         configured(DefaultExtMetaOptConfig, func(c *ExtMetaOptConfig) *int { return &c.Workers }, RunExtMetaOpt),
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the registered experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Run executes the experiment with the given ID at the given scale on
// `workers` workers (0 = GOMAXPROCS) and returns its rendered output.
func Run(id string, scale Scale, workers int) (string, error) {
	e, err := Find(id)
	if err != nil {
		return "", err
	}
	res, err := e.Run(scale, workers)
	if err != nil {
		return "", fmt.Errorf("experiment %s: %w", id, err)
	}
	return res.Render(), nil
}
