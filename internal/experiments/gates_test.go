package experiments

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/eval"
)

// The gates fedml-bench -bench enforces reject each failing measurement,
// NaN included: a NaN compares false against every bound, so a gate written
// as `x > bound` waves it through.
func TestGatesRejectFailingResults(t *testing.T) {
	scale := func(edit func(*ExtScaleResult)) *ExtScaleResult {
		r := &ExtScaleResult{StatsParity: true, MaxClosedFormErr: 3.7e-17}
		edit(r)
		return r
	}
	async := func(edit func(*ExtAsyncResult)) *ExtAsyncResult {
		r := &ExtAsyncResult{Speedup: 3.74, RelGap: 0.039}
		edit(r)
		return r
	}
	energy := func(edit func(*ExtEnergyResult)) *ExtEnergyResult {
		r := &ExtEnergyResult{Arms: []EnergyArm{{FinalAcc: 1, TotalJoules: 3696}, {FinalAcc: 1, TotalJoules: 1079}}}
		edit(r)
		return r
	}
	workload := func(fedml eval.Personalization) *ExtWorkloadResult {
		return &ExtWorkloadResult{
			Workload: "rec",
			Arms:     []string{"fedml", "fedavg", "fedprox"},
			Pers:     []eval.Personalization{fedml, {Global: 0.48, Adapted: 0.54}, {Global: 0.48, Adapted: 0.54}},
		}
	}
	cases := []struct {
		name string
		gate func() error
		pass bool
	}{
		{"scale ok", scale(func(*ExtScaleResult) {}).Gate, true},
		{"scale parity broken", scale(func(r *ExtScaleResult) { r.StatsParity = false }).Gate, false},
		{"scale closed-form error 1e-6", scale(func(r *ExtScaleResult) { r.MaxClosedFormErr = 1e-6 }).Gate, false},
		{"scale closed-form error NaN", scale(func(r *ExtScaleResult) { r.MaxClosedFormErr = math.NaN() }).Gate, false},
		{"async ok", async(func(*ExtAsyncResult) {}).Gate, true},
		{"async slow", async(func(r *ExtAsyncResult) { r.Speedup = 1.9 }).Gate, false},
		{"async speedup NaN", async(func(r *ExtAsyncResult) { r.Speedup = math.NaN() }).Gate, false},
		{"async gap 6%", async(func(r *ExtAsyncResult) { r.RelGap = 0.06 }).Gate, false},
		{"async gap NaN", async(func(r *ExtAsyncResult) { r.RelGap = math.NaN() }).Gate, false},
		{"energy ok", energy(func(*ExtEnergyResult) {}).Gate, true},
		{"energy accuracy lost", energy(func(r *ExtEnergyResult) { r.Arms[1].FinalAcc = 0.97 }).Gate, false},
		{"energy joules saved < 3x", energy(func(r *ExtEnergyResult) { r.Arms[1].TotalJoules = 1500 }).Gate, false},
		{"energy accuracy NaN", energy(func(r *ExtEnergyResult) { r.Arms[1].FinalAcc = math.NaN() }).Gate, false},
		{"workload ok", workload(eval.Personalization{Global: 0.49, Adapted: 0.55}).Gate, true},
		{"workload below global baseline", workload(eval.Personalization{Global: 0.40, Adapted: 0.47}).Gate, false},
		{"workload gap not positive", workload(eval.Personalization{Global: 0.55, Adapted: 0.55}).Gate, false},
		{"par identical", (&ParSweepResult{OutputIdentical: true}).Gate, true},
		{"par outputs differ", (&ParSweepResult{}).Gate, false},
	}
	for _, c := range cases {
		if err := c.gate(); (err == nil) != c.pass {
			t.Errorf("%s: gate error %v, want pass=%v", c.name, err, c.pass)
		}
	}
}
