package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

const adaptSteps = 5 // gradient steps of one fast adaptation at a target

// modelFixture trains real softmax-regression federations: in memory via
// core.Train (paper-synthetic), or over loopback TCP via core.RunPlatform
// and core.RunNode (the edge-tcp workloads). A run cycles over several
// federations generated from the seed, so quality metrics average over
// more than one draw of the data.
type modelFixture struct {
	cfg    core.Config // T, OnRound and Observer are set per call
	rounds int         // aggregation rounds per training call
	model  *nn.SoftmaxRegression
	feds   []*data.Federation
	seeds  []uint64 // per federation: its generator's seed, reused as Config.Seed
	theta0 [][]float64
	gen    []float64

	// Loopback TCP, nil for the in-memory workload: platform- and
	// node-side endpoints, and the bytes both sides wrote to the sockets.
	ln      net.Listener
	plinks  []transport.Link
	nlinks  []transport.Link
	written *atomic.Int64

	ws  *meta.Workspace
	phi tensor.Vec
}

// buildPaperSynthetic is the paper's Synthetic(0.5,0.5) setting: 50 nodes
// (40 sources, 10 targets), 60-d inputs, 10 classes, K=5, α=0.05,
// β=0.01, T0=5, second-order meta-gradients, full batch, strict sync.
func buildPaperSynthetic(seed uint64, tiny bool) (fixture, error) {
	sets, rounds, nodes := 24, 100, 50
	if tiny {
		sets, rounds, nodes = 2, 4, 10
	}
	gen := func(s uint64) (*data.Federation, error) {
		c := data.DefaultSyntheticConfig(0.5, 0.5)
		c.Nodes, c.Seed = nodes, s
		return data.GenerateSynthetic(c)
	}
	cfg := core.Config{Alpha: 0.05, Beta: 0.01, T0: 5, GradMode: meta.SecondOrder}
	return newModelFixture(seed, sets, rounds, cfg, gen, false)
}

// buildEdgeTCP is the MNIST-like edge federation: 2 sources, one per
// loopback TCP connection, and 8 held-out targets, 784-d inputs, T0=1,
// strict sync, with the named codec ("" = raw float parameters).
func buildEdgeTCP(seed uint64, tiny bool, codecSpec string) (fixture, error) {
	sets, rounds := 16, 100
	if tiny {
		sets, rounds = 2, 4
	}
	gen := func(s uint64) (*data.Federation, error) {
		c := data.DefaultMNISTConfig()
		// Two sources train; eight held-out targets, which never join
		// training, average adapted_acc over more than one draw per set.
		c.Nodes, c.SourceFraction, c.Seed = 10, 0.2, s
		return data.GenerateMNIST(c)
	}
	cfg := core.Config{Alpha: 0.05, Beta: 0.01, T0: 1, GradMode: meta.SecondOrder, Codec: codecSpec}
	return newModelFixture(seed, sets, rounds, cfg, gen, true)
}

func newModelFixture(seed uint64, sets, rounds int, cfg core.Config, gen func(uint64) (*data.Federation, error), tcp bool) (*modelFixture, error) {
	f := &modelFixture{cfg: cfg, rounds: rounds}
	root := rng.New(seed)
	for k := 0; k < sets; k++ {
		s := root.Split(uint64(k)).Uint64()
		start := time.Now()
		fed, err := gen(s)
		if err != nil {
			return nil, err
		}
		f.gen = append(f.gen, float64(time.Since(start).Nanoseconds())/1e6)
		if f.model == nil {
			f.model = &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
		}
		f.feds = append(f.feds, fed)
		f.seeds = append(f.seeds, s)
		f.theta0 = append(f.theta0, f.model.InitParams(rng.New(s)))
	}
	f.ws = meta.NewWorkspace(f.model)
	f.phi = tensor.NewVec(f.model.NumParams())
	if tcp {
		if err := f.connect(len(f.feds[0].Sources)); err != nil {
			f.close()
			return nil, err
		}
	}
	// Warm-up: one short training call and a few adaptations, so the
	// measured window starts with caches filled and lazy set-up done.
	warm := *f
	warm.rounds = 2
	if _, err := warm.train(0, nil); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for t := 0; t < 20; t++ {
		f.adapt(0, t%f.targets(0), f.theta0[0])
	}
	return f, nil
}

// connect opens one loopback TCP connection per source node, dialed in
// order so that platform link i reaches source i.
func (f *modelFixture) connect(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.ln = ln
	f.written = new(atomic.Int64)
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		pc, err := ln.Accept()
		if err != nil {
			nc.Close()
			return err
		}
		f.plinks = append(f.plinks, transport.NewConnLink(countConn{pc, f.written}))
		f.nlinks = append(f.nlinks, transport.NewConnLink(countConn{nc, f.written}))
	}
	return nil
}

func (f *modelFixture) close() {
	for _, l := range f.plinks {
		l.Close()
	}
	for _, l := range f.nlinks {
		l.Close()
	}
	if f.ln != nil {
		f.ln.Close()
	}
}

func (f *modelFixture) inputs() int      { return len(f.feds) }
func (f *modelFixture) genMs() []float64 { return f.gen }

// config is the training configuration of one call on federation k.
func (f *modelFixture) config(k int) core.Config {
	c := f.cfg
	c.T = f.rounds * c.T0
	c.Seed = f.seeds[k]
	return c
}

func (f *modelFixture) train(k int, tr *tracer) (*trainRun, error) {
	fed := f.feds[k]
	cfg := f.config(k)
	r := &trainRun{rounds: f.rounds, nodes: len(fed.Sources), nodeIters: len(fed.Sources) * cfg.T}
	r.roundEnds = make([]time.Time, 0, f.rounds)
	cfg.OnRound = func(int, int, tensor.Vec) { r.roundEnds = append(r.roundEnds, time.Now()) }
	if tr != nil {
		cfg.Observer = tr
		tr.beginEpisode()
	}
	var err error
	r.start = time.Now()
	if f.ln == nil {
		if tr != nil {
			cfg.WrapLink = func(i int, l transport.Link) transport.Link {
				return &timedLink{Link: l, tr: tr, send: "link.send", recv: "link.recv", node: i}
			}
		}
		var res *core.Result
		if res, err = core.Train(f.model, fed, f.theta0[k], cfg); err == nil {
			r.theta, r.stats = res.Theta, res.Comm
			r.wireBytes = res.Comm.Bytes // in-memory links carry exactly what is billed
		}
	} else {
		before := f.written.Load()
		r.theta, r.stats, err = f.trainTCP(fed, f.theta0[k], cfg, tr)
		r.wireBytes = f.written.Load() - before
	}
	end := time.Now()
	r.wall = end.Sub(r.start)
	if tr != nil {
		r.spans = tr.endEpisode(r.start, end, r.roundEnds)
	}
	if err != nil {
		return nil, err
	}
	if len(r.roundEnds) != f.rounds || r.stats.Rounds != f.rounds {
		return nil, fmt.Errorf("ran %d rounds (%d callbacks), want %d", r.stats.Rounds, len(r.roundEnds), f.rounds)
	}
	return r, nil
}

// trainTCP runs the platform and one node goroutine per source over the
// open TCP connections. The connections outlive the call: the platform's
// Done message ends the nodes, and the next call starts new ones.
func (f *modelFixture) trainTCP(fed *data.Federation, theta0 []float64, cfg core.Config, tr *tracer) ([]float64, core.CommStats, error) {
	plinks, nlinks := f.plinks, f.nlinks
	if tr != nil {
		plinks = make([]transport.Link, len(f.plinks))
		nlinks = make([]transport.Link, len(f.nlinks))
		for i := range plinks {
			plinks[i] = &timedLink{Link: f.plinks[i], tr: tr, send: "link.send", recv: "link.recv", node: i}
			nlinks[i] = &timedLink{Link: f.nlinks[i], tr: tr, send: "node.send", recv: "node.recv", node: i}
		}
	}
	nodeCfg := cfg
	nodeCfg.OnRound = nil
	errs := make([]error, len(fed.Sources))
	var wg sync.WaitGroup
	for i, nd := range fed.Sources {
		wg.Add(1)
		go func(i int, nd *data.NodeDataset) {
			defer wg.Done()
			errs[i] = core.RunNode(nlinks[i], core.NodeConfig{ID: i, Model: f.model, Data: nd, Shared: nodeCfg})
		}(i, nd)
	}
	theta, stats, err := core.RunPlatform(plinks, fed.Weights(), theta0, cfg)
	if err != nil {
		// Unblock nodes waiting on a broadcast that will never come; the
		// fixture cannot be trained again.
		f.close()
	}
	wg.Wait()
	return theta, stats, errors.Join(append([]error{err}, errs...)...)
}

// check verifies a training call: θ_T is finite and improves on θ_0, and
// over TCP it is bit-identical to core.Train over in-memory links with the
// same federation, configuration and codec.
func (f *modelFixture) check(k int, r *trainRun) error {
	for _, x := range r.theta {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return errors.New("θ_T is not finite")
		}
	}
	if g, g0 := f.loss(k, r.theta), f.loss(k, f.theta0[k]); !(g < g0) {
		return fmt.Errorf("G(θ_T) = %v is not below G(θ_0) = %v", g, g0)
	}
	if f.ln == nil {
		return nil
	}
	ref, err := core.Train(f.model, f.feds[k], f.theta0[k], f.config(k))
	if err != nil {
		return fmt.Errorf("in-memory reference: %w", err)
	}
	if !bitsEqual(ref.Theta, r.theta) {
		return errors.New("θ_T over TCP differs from core.Train over in-memory links")
	}
	if ref.Comm != r.stats {
		return fmt.Errorf("CommStats over TCP %+v differ from in-memory %+v", r.stats, ref.Comm)
	}
	return nil
}

func (f *modelFixture) loss(k int, theta []float64) float64 {
	return eval.GlobalMetaObjective(f.model, f.feds[k], f.cfg.Alpha, theta)
}

func (f *modelFixture) targets(k int) int { return len(f.feds[k].Targets) }

func (f *modelFixture) adapt(k, t int, theta []float64) {
	f.ws.AdaptInto(theta, f.feds[k].Targets[t].Train, f.cfg.Alpha, adaptSteps, f.phi)
}

func (f *modelFixture) adaptedAcc(k, t int) float64 {
	return nn.Accuracy(f.model, f.phi, f.feds[k].Targets[t].Test)
}

// layers times the nn, meta and codec side calls on source 0 of federation
// k at θ.
func (f *modelFixture) layers(k int, theta []float64) map[string]float64 {
	const calls = 2000
	src := f.feds[k].Sources[0]
	m := f.model
	nws := nn.NewWorkspace(m)
	g := tensor.NewVec(m.NumParams())
	hv := tensor.NewVec(m.NumParams())
	th := tensor.Vec(theta)
	out := map[string]float64{
		"nn.grad_us": timeCalls(calls, func() { nn.GradInto(m, nws, th, src.Train, g) }),
		"nn.hvp_us":  timeCalls(calls, func() { nn.HVPInto(m, nws, th, src.Train, g, hv) }),
		"meta.step_us": timeCalls(calls, func() {
			f.ws.GradInto(th, src.Train, src.Test, f.cfg.Alpha, f.cfg.GradMode, g)
		}),
	}
	for name, v := range codecLayer(f.cfg.Codec, theta) {
		out[name] = v
	}
	return out
}

// codecLayer times one encode and one decode of θ with the named codec
// ("" = raw) and reports its wire bytes per parameter.
func codecLayer(spec string, theta []float64) map[string]float64 {
	const calls = 2000
	if spec == "" {
		spec = codec.Raw
	}
	c, err := codec.New(spec)
	if err != nil {
		panic(err) // the workload table names only valid codecs
	}
	payload, err := c.Encode(theta)
	if err != nil {
		panic(err)
	}
	return map[string]float64{
		"codec.encode_us":       timeCalls(calls, func() { _, _ = c.Encode(theta) }),
		"codec.decode_us":       timeCalls(calls, func() { _, _ = c.Decode(payload) }),
		"codec.bytes_per_param": float64(len(payload)) / float64(len(theta)),
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
