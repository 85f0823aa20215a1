// Quickstart: train a model initialization across a federation of edge
// nodes with FedML (Algorithm 1 of the paper), ship it to a held-out target
// node, and adapt it there with ONE gradient step on K=5 local samples —
// the paper's "real-time edge intelligence" loop, end to end.
package main

import (
	"fmt"
	"os"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A federation of 20 edge nodes with related-but-distinct tasks
	//    (the paper's Synthetic(0.5, 0.5) generator). 16 nodes are
	//    meta-training sources; 4 are held out as adaptation targets.
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 20
	cfg.Seed = 7
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("federation %s: %d sources, %d targets, %d features, %d classes\n",
		fed.Name, len(fed.Sources), len(fed.Targets), fed.Dim, fed.NumClasses)

	// 2. A shared model family: multinomial logistic regression with a
	//    small ridge term (the paper's convex setting).
	model := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}

	// 3. Federated meta-training: every node runs T0 = 5 local meta-updates
	//    (inner step on its K training samples, outer step on its test
	//    split) between global aggregations at the platform.
	trainCfg := core.Config{
		Alpha: 0.05, // inner / adaptation learning rate α
		Beta:  0.01, // meta learning rate β
		T:     200,  // total local iterations
		T0:    5,    // local iterations per communication round
		Seed:  7,
		OnRound: func(round, iter int, theta tensor.Vec) {
			if round%10 == 0 {
				fmt.Printf("  round %3d: G(θ) = %.4f\n",
					round, eval.GlobalMetaObjective(model, fed, 0.05, theta))
			}
		},
	}
	res, err := core.Train(model, fed, nil, trainCfg)
	if err != nil {
		return err
	}
	fmt.Printf("meta-training done (%d rounds, %.0f KiB exchanged)\n",
		res.Comm.Rounds, float64(res.Comm.Bytes)/1024)

	// 4. Real-time edge intelligence at a target node: one gradient step on
	//    its K = 5 local samples (Eq. 6 of the paper).
	target := fed.Targets[0]
	before := nn.Accuracy(model, res.Theta, target.Test)
	phi := tensor.NewVec(model.NumParams())
	meta.NewWorkspace(model).AdaptInto(res.Theta, target.Train, trainCfg.Alpha, 1, phi)
	after := nn.Accuracy(model, phi, target.Test)
	fmt.Printf("target node: accuracy %.3f before adaptation, %.3f after ONE gradient step on %d samples\n",
		before, after, len(target.Train))
	return nil
}
