package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that every output check passes and that every metric
// BENCHMARK.json names is emitted, finite, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := run(w, 7, 200*time.Millisecond, traced, true, spans)
			if err != nil || res == nil || !res.Correct {
				t.Fatalf("%s traced=%v: result %+v, error %v", w.name, traced, res, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if traced {
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written (%v)", w.name, err)
				}
			}
		}
	}
}

// TestSameSeedSameTheta builds every workload twice from one seed, as two
// separate runs would, and checks that training yields the same θ_T bit
// for bit.
func TestSameSeedSameTheta(t *testing.T) {
	for _, w := range workloads {
		var thetas [2][]float64
		for i := range thetas {
			fx, err := w.build(11, true)
			if err != nil {
				t.Fatal(err)
			}
			r, err := fx.train(0, nil)
			fx.close()
			if err != nil {
				t.Fatal(err)
			}
			thetas[i] = r.theta
		}
		if !bitsEqual(thetas[0], thetas[1]) {
			t.Errorf("%s: θ_T differs between two builds from the same seed", w.name)
		}
	}
}

// failingCheck is a fixture whose output check always fails.
type failingCheck struct{ fixture }

func (failingCheck) check(int, *trainRun) error { return errors.New("injected check failure") }

// TestFailedCheckFailsRun checks that a failed output check is counted as a
// failed operation and makes the run incorrect, which makes the command
// exit non-zero.
func TestFailedCheckFailsRun(t *testing.T) {
	w := workload{name: "fleet-sharded", build: func(seed uint64, tiny bool) (fixture, error) {
		fx, err := buildFleet(seed, tiny)
		return failingCheck{fx}, err
	}}
	res, err := run(w, 3, 100*time.Millisecond, false, true, "")
	if err == nil || res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("result %+v, error %v; want an incorrect result with failures", res, err)
	}
	if ok := res.Metrics["ok_op_frac"].Value; !(ok < 1) {
		t.Errorf("ok_op_frac = %v, want below 1", ok)
	}
}
