package repshare

import (
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
)

func tinyFederation(t *testing.T) *data.Federation {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 10
	cfg.Dim = 10
	cfg.Classes = 4
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func tinyMLP(t *testing.T, fed *data.Federation) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, fed.NumClasses}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSharedSegments(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	shared, err := SharedSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shared {
		if len(s.Name) >= 5 && s.Name[:5] == "head." {
			t.Errorf("head segment %q reported as shared", s.Name)
		}
	}
	// Softmax regression is all head: nothing to share.
	if _, err := SharedSegments(&nn.SoftmaxRegression{In: 4, Classes: 2}); err == nil {
		t.Error("all-head model accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	okCfg := Config{Eta: 0.05, T: 10, T0: 5}
	if _, err := Train(nil, fed, nil, okCfg); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Train(m, nil, nil, okCfg); err == nil {
		t.Error("nil federation accepted")
	}
	if _, err := Train(m, &data.Federation{}, nil, okCfg); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := Train(m, fed, tensor.NewVec(1), okCfg); err == nil {
		t.Error("bad theta0 accepted")
	}
	if _, err := Train(m, fed, nil, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Train(m, fed, nil, Config{Eta: 0.05, T: 10, T0: 4}); err == nil {
		t.Error("T not multiple of T0 accepted")
	}
}

// The structural contract: after training, every node shares bit-identical
// representation segments while heads have diverged.
func TestTrainSharesRepresentationKeepsHeadsLocal(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	res, err := Train(m, fed, nil, Config{Eta: 0.05, T: 40, T0: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locals) != len(fed.Sources) {
		t.Fatalf("locals = %d, want %d", len(res.Locals), len(fed.Sources))
	}
	shared, err := SharedSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	head, err := nn.HeadSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Locals[0]
	headsDiverged := false
	for i, l := range res.Locals[1:] {
		for _, s := range shared {
			for j := s.Lo; j < s.Hi; j++ {
				if l[j] != ref[j] {
					t.Fatalf("node %d segment %s[%d] differs from node 0 after sync", i+1, s.Name, j-s.Lo)
				}
			}
		}
		for _, s := range head {
			for j := s.Lo; j < s.Hi; j++ {
				if l[j] != ref[j] {
					headsDiverged = true
				}
			}
		}
	}
	if !headsDiverged {
		t.Error("all local heads identical — heads are being synced")
	}
	// Theta's shared block must equal the nodes' shared block.
	for _, s := range shared {
		for j := s.Lo; j < s.Hi; j++ {
			if res.Theta[j] != ref[j] {
				t.Fatalf("Theta segment %s differs from the synced representation", s.Name)
			}
		}
	}
}

// Per-node personalized models must fit their own node better than the
// weighted-mean-head aggregate does: the private head carries node structure.
func TestTrainLocalHeadsPersonalize(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	res, err := Train(m, fed, nil, Config{Eta: 0.05, T: 200, T0: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	for i, nd := range fed.Sources {
		all := nd.All()
		if m.LossWith(nil, res.Locals[i], all) < m.LossWith(nil, res.Theta, all) {
			better++
		}
	}
	if better <= len(fed.Sources)/2 {
		t.Errorf("only %d/%d nodes fit better with their private head", better, len(fed.Sources))
	}
}

func TestTrainDeterministicAndWorkerInvariant(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	cfg := Config{Eta: 0.05, T: 20, T0: 5, Seed: 3, Workers: 1}
	ref, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		res, err := Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Theta.Dist(ref.Theta) != 0 {
			t.Fatalf("workers=%d theta differs", workers)
		}
		for i := range res.Locals {
			if res.Locals[i].Dist(ref.Locals[i]) != 0 {
				t.Fatalf("workers=%d local %d differs", workers, i)
			}
		}
	}
}

func TestTrainObserverAndOnRound(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	rec := obs.NewRecorder()
	var iters []int
	cfg := Config{Eta: 0.05, T: 20, T0: 5, Observer: rec,
		OnRound: func(round, iter int, _ tensor.Vec) { iters = append(iters, iter) }}
	if _, err := Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds()) != 4 {
		t.Errorf("round records = %d, want 4", len(rec.Rounds()))
	}
	if len(iters) != 4 || iters[0] != 5 || iters[3] != 20 {
		t.Errorf("OnRound iters = %v", iters)
	}
}
