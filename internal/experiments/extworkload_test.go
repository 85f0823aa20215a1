package experiments

import (
	"strings"
	"testing"
)

// TestExtWorkloadAcceptance pins the new-workloads headline claim on both
// scenarios (the Fed-Meta-Align comparison): FedML's adapted accuracy beats
// the global (un-adapted) accuracy of both FedAvg and FedProx — the per-node
// structure (user taste, device calibration) is invisible to any single
// global model and recovered by K-shot adaptation.
func TestExtWorkloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("eight training runs are slow")
	}
	for _, workload := range []string{"rec", "fault"} {
		res, err := RunExtWorkload(DefaultExtWorkloadConfig(workload, ScaleCI))
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if len(res.Arms) != 4 || res.Arms[0] != "fedml" || res.Arms[1] != "fedavg" ||
			res.Arms[2] != "fedprox" || res.Arms[3] != "repshare" {
			t.Fatalf("%s arms = %v", workload, res.Arms)
		}
		pers := map[string]float64{}
		for i, name := range res.Arms {
			pers[name+"/global"] = res.Pers[i].Global
			pers[name+"/adapted"] = res.Pers[i].Adapted
		}
		if pers["fedml/adapted"] < pers["fedavg/global"] {
			t.Errorf("%s: FedML adapted %.4f below FedAvg global %.4f",
				workload, pers["fedml/adapted"], pers["fedavg/global"])
		}
		if pers["fedml/adapted"] < pers["fedprox/global"] {
			t.Errorf("%s: FedML adapted %.4f below FedProx global %.4f",
				workload, pers["fedml/adapted"], pers["fedprox/global"])
		}
		// The meta-learned initialization must actually benefit from
		// adaptation: a positive personalization gap.
		if res.Pers[0].Gap() <= 0 {
			t.Errorf("%s: FedML personalization gap %.4f not positive", workload, res.Pers[0].Gap())
		}
		if res.AccVsKiB == nil || len(res.AccVsKiB.Points) == 0 {
			t.Fatalf("%s: missing fedml accuracy/traffic trajectory", workload)
		}
		if res.TotalKiB <= 0 {
			t.Errorf("%s: non-positive traffic total %.1f KiB", workload, res.TotalKiB)
		}
		out := res.Render()
		for _, want := range []string{workload, "global acc", "adapted acc", "fedprox", "repshare", "KiB"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s render missing %q:\n%s", workload, want, out)
			}
		}
	}
}

// TestExtWorkloadPlatformKnobs verifies the fedml arm composes with the
// platform stack: a q8 codec plus a head-only sync mask must still train,
// still produce the matrix, and move fewer wire bytes than the raw run.
func TestExtWorkloadPlatformKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs are slow")
	}
	base := DefaultExtWorkloadConfig("fault", ScaleCI)
	base.T = 60
	raw, err := RunExtWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	knobbed := base
	knobbed.Codec = "q8"
	knobbed.SyncMask = "head:2"
	res, err := RunExtWorkload(knobbed)
	if err != nil {
		t.Fatal(err)
	}
	if res.AccVsKiB == nil || !strings.Contains(res.AccVsKiB.Name, "q8") {
		t.Errorf("trajectory not labeled with the codec: %+v", res.AccVsKiB)
	}
	if res.TotalKiB >= raw.TotalKiB {
		t.Errorf("q8+mask moved %.1f KiB, raw %.1f KiB — knobs not applied", res.TotalKiB, raw.TotalKiB)
	}
	out := res.Render()
	if !strings.Contains(out, "codec=q8") || !strings.Contains(out, "mask=head:2") {
		t.Errorf("render missing knob labels:\n%s", out)
	}
}

func TestExtWorkloadRejectsUnknownWorkload(t *testing.T) {
	cfg := DefaultExtWorkloadConfig("images", ScaleCI)
	if _, err := RunExtWorkload(cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}

// A zero or negative μ would silently turn the fedprox arm into FedAvg.
func TestExtWorkloadRejectsNonPositiveMu(t *testing.T) {
	for _, mu := range []float64{0, -0.1} {
		cfg := DefaultExtWorkloadConfig("rec", ScaleCI)
		cfg.Mu = mu
		if _, err := RunExtWorkload(cfg); err == nil || !strings.Contains(err.Error(), "proximal coefficient") {
			t.Errorf("μ=%v: err = %v, want a proximal coefficient error", mu, err)
		}
	}
}
