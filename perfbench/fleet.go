package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// fleetFixture is a fleet of simulated nodes (core.SimNodeLink) under shard
// aggregators and one director. Node i's update is u = θ + η(c_i − θ), one
// gradient step on ½‖θ − c_i‖², with the centers c_i precomputed, so the
// simulated node costs almost nothing and the aggregation tier is the whole
// cost. The trained θ has a closed form, θ_R = c̄ + (1−η)^R (θ_0 − c̄) with
// c̄ the weighted mean center, which the check compares against.
type fleetFixture struct {
	n, dim, rounds int
	eta            float64
	seed           uint64
	centers        []float64 // n×dim, row i is c_i
	weights        []float64
	cbar           []float64
	ranges         []core.ShardRange
	sims           []core.SimNodeLink
	probes         []*shardProbe // per shard; nil entries when untraced
	tgts           []float64     // held-out target centers, one per row
	phi            []float64
	gen            float64
}

// buildFleet is 16,384 simulated nodes of dimension 64, T0=1, raw strict
// sync, under 4 shard aggregators and 1 director over in-memory links.
func buildFleet(seed uint64, tiny bool) (fixture, error) {
	n, shards, rounds, targets := 16384, 4, 100, 64
	if tiny {
		n, rounds, targets = 256, 4, 4
	}
	const dim = 64
	f := &fleetFixture{n: n, dim: dim, rounds: rounds, eta: 0.05, seed: seed}
	start := time.Now()
	r := rng.New(seed)
	f.centers = make([]float64, n*dim)
	f.weights = make([]float64, n)
	cr, wr := r.Split(1), r.Split(2)
	for i := range f.centers {
		f.centers[i] = cr.Norm()
	}
	for i := range f.weights {
		f.weights[i] = 0.5 + wr.Float64()
	}
	tr := r.Split(3)
	f.tgts = make([]float64, targets*dim)
	for i := range f.tgts {
		f.tgts[i] = tr.Norm()
	}
	f.gen = float64(time.Since(start).Nanoseconds()) / 1e6

	f.cbar = make([]float64, dim)
	var wsum float64
	for i, w := range f.weights {
		wsum += w
		for d, c := range f.center(i) {
			f.cbar[d] += w * c
		}
	}
	for d := range f.cbar {
		f.cbar[d] /= wsum
	}
	f.phi = make([]float64, dim)
	f.ranges = core.ShardRanges(n, shards)
	f.probes = make([]*shardProbe, len(f.ranges))
	f.sims = make([]core.SimNodeLink, n)
	for s, rg := range f.ranges {
		for i := rg.Lo; i < rg.Hi; i++ {
			f.sims[i] = core.SimNodeLink{ID: i, Update: f.updater(s)}
		}
	}
	warm := *f
	warm.rounds = 2
	if _, err := warm.train(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *fleetFixture) center(i int) []float64 { return f.centers[i*f.dim : (i+1)*f.dim] }

// updater is the simulated update of the nodes of shard s, timed into the
// shard's probe when the call is traced.
func (f *fleetFixture) updater(s int) func(id, round, t0 int, theta []float64) []float64 {
	return func(id, _, _ int, theta []float64) []float64 {
		p := f.probes[s]
		var start time.Time
		if p != nil {
			start = time.Now()
		}
		c := f.center(id)
		for d := range theta {
			theta[d] += f.eta * (c[d] - theta[d])
		}
		if p != nil {
			p.addUpdate(time.Since(start).Nanoseconds())
		}
		return theta
	}
}

func (f *fleetFixture) inputs() int      { return 1 }
func (f *fleetFixture) genMs() []float64 { return []float64{f.gen} }
func (f *fleetFixture) close()           {}

func (f *fleetFixture) train(_ int, tr *tracer) (*trainRun, error) {
	cfg := core.Config{
		Alpha: 0.01, Beta: 0.01, // required by validation; unused by simulated nodes
		T: f.rounds, T0: 1, Seed: f.seed,
	}
	r := &trainRun{rounds: f.rounds, nodes: f.n, nodeIters: f.n * f.rounds}
	r.roundEnds = make([]time.Time, 0, f.rounds)
	cfg.OnRound = func(int, int, tensor.Vec) { r.roundEnds = append(r.roundEnds, time.Now()) }
	if tr != nil {
		tr.beginEpisode()
	}
	dirLinks := make([]transport.Link, len(f.ranges))
	errs := make([]error, len(f.ranges))
	var wg sync.WaitGroup
	r.start = time.Now()
	for s, rg := range f.ranges {
		var up transport.Link
		dirLinks[s], up = transport.Pair()
		links := make([]transport.Link, rg.Hi-rg.Lo)
		for i := range links {
			links[i] = &f.sims[rg.Lo+i]
		}
		f.probes[s] = nil
		if tr != nil {
			p := &shardProbe{tr: tr, shard: s, nodes: len(links)}
			f.probes[s] = p
			up = &shardUp{Link: up, p: p}
			for i := range links {
				links[i] = &probedLink{Link: links[i], p: p}
			}
			dirLinks[s] = &timedLink{Link: dirLinks[s], tr: tr, send: "root.send", recv: "root.recv", node: s}
		}
		wg.Add(1)
		go func(s int, rg core.ShardRange, up transport.Link, links []transport.Link) {
			defer wg.Done()
			errs[s] = core.RunShardAggregator(up, links, f.weights[rg.Lo:rg.Hi], rg, cfg)
		}(s, rg, up, links)
	}
	theta, root, shards, err := core.RunDirector(dirLinks, f.ranges, make([]float64, f.dim), cfg)
	for _, l := range dirLinks {
		l.Close()
	}
	wg.Wait()
	end := time.Now()
	r.wall = end.Sub(r.start)
	if tr != nil {
		r.spans = tr.endEpisode(r.start, end, r.roundEnds)
	}
	if err = errors.Join(append([]error{err}, errs...)...); err != nil {
		return nil, err
	}
	r.theta, r.stats, r.shards = theta, root, shards
	r.wireBytes = root.Bytes // in-memory links carry exactly what is billed
	if len(r.roundEnds) != f.rounds || root.Rounds != f.rounds {
		return nil, fmt.Errorf("ran %d rounds (%d callbacks), want %d", root.Rounds, len(r.roundEnds), f.rounds)
	}
	return r, nil
}

// check compares θ_T with the closed form, the root traffic counters with
// the sum of the shard counters, and the message count with 2·n·rounds.
func (f *fleetFixture) check(_ int, r *trainRun) error {
	decay := math.Pow(1-f.eta, float64(f.rounds))
	for d, x := range r.theta {
		want := f.cbar[d] * (1 - decay) // θ_0 = 0
		if math.Abs(x-want) > 1e-9*(1+math.Abs(want)) {
			return fmt.Errorf("θ_T[%d] = %v, closed form %v", d, x, want)
		}
	}
	var sum core.CommStats
	for _, s := range r.shards {
		sum.Messages += s.Messages
		sum.Bytes += s.Bytes
		sum.Dropped += s.Dropped
		sum.Rejoined += s.Rejoined
		sum.Rejected += s.Rejected
	}
	root := r.stats
	if sum.Messages != root.Messages || sum.Bytes != root.Bytes || sum.Dropped != root.Dropped ||
		sum.Rejoined != root.Rejoined || sum.Rejected != root.Rejected {
		return fmt.Errorf("root stats %+v differ from the shard sum %+v", root, sum)
	}
	if want := 2 * f.n * f.rounds; root.Messages != want {
		return fmt.Errorf("%d messages, want 2·n·rounds = %d", root.Messages, want)
	}
	return nil
}

// loss is the fleet's global objective Σ ω_i ½‖θ − c_i‖² / Σ ω_i.
func (f *fleetFixture) loss(_ int, theta []float64) float64 {
	var total, wsum float64
	for i, w := range f.weights {
		var sq float64
		for d, c := range f.center(i) {
			sq += (theta[d] - c) * (theta[d] - c)
		}
		total += w * sq / 2
		wsum += w
	}
	return total / wsum
}

func (f *fleetFixture) targets(int) int { return len(f.tgts) / f.dim }

func (f *fleetFixture) target(t int) []float64 { return f.tgts[t*f.dim : (t+1)*f.dim] }

// adapt is a target node's fast adaptation: adaptSteps applications of the
// node update rule toward its own center.
func (f *fleetFixture) adapt(_, t int, theta []float64) {
	c := f.target(t)
	copy(f.phi, theta)
	for s := 0; s < adaptSteps; s++ {
		for d := range f.phi {
			f.phi[d] += f.eta * (c[d] - f.phi[d])
		}
	}
}

// adaptedAcc is the coefficient of determination of the target's center
// by the adapted model, against predicting the fleet's mean center: the
// regression counterpart of classification accuracy.
func (f *fleetFixture) adaptedAcc(_, t int) float64 {
	c := f.target(t)
	var res, tot float64
	for d := range c {
		res += (f.phi[d] - c[d]) * (f.phi[d] - c[d])
		tot += (c[d] - f.cbar[d]) * (c[d] - f.cbar[d])
	}
	return 1 - res/tot
}

// layers reports the codec side calls; the fleet has no model, so the nn
// and meta layers are absent and read zero.
func (f *fleetFixture) layers(_ int, theta []float64) map[string]float64 {
	return codecLayer("", theta)
}

// shardProbe accumulates one shard's traced round: time in the simulated
// node links and in the update callback, reported as one shard.round span.
type shardProbe struct {
	tr         *tracer
	shard      int
	nodes      int
	round      int
	start      time.Time
	update     int64
	updateMax  int64
	send, recv int64
}

func (p *shardProbe) addUpdate(ns int64) {
	p.update += ns
	p.updateMax = max(p.updateMax, ns)
}

// shardUp wraps a shard's link to the director: a dispatch opens the
// shard's round and the partial sent back closes it.
type shardUp struct {
	transport.Link
	p *shardProbe
}

func (l *shardUp) Recv() (transport.Msg, error) {
	m, err := l.Link.Recv()
	if err == nil && m.Kind == transport.KindParams {
		*l.p = shardProbe{tr: l.p.tr, shard: l.p.shard, nodes: l.p.nodes, round: m.Round, start: time.Now()}
	}
	return m, err
}

func (l *shardUp) Send(m transport.Msg) error {
	if m.Kind == transport.KindPartial {
		p := l.p
		p.tr.record("shard.round", p.round, p.shard, p.start, time.Now(), map[string]int64{
			"update_ns": p.update, "update_max_ns": p.updateMax,
			"send_ns": p.send, "recv_ns": p.recv, "nodes": int64(p.nodes),
		})
	}
	return l.Link.Send(m)
}

// probedLink times a simulated node link's Send (less the update callback
// it runs) and Recv into the shard's probe.
type probedLink struct {
	transport.Link
	p *shardProbe
}

func (l *probedLink) Send(m transport.Msg) error {
	upd := l.p.update
	start := time.Now()
	err := l.Link.Send(m)
	l.p.send += time.Since(start).Nanoseconds() - (l.p.update - upd)
	return err
}

func (l *probedLink) Recv() (transport.Msg, error) {
	start := time.Now()
	m, err := l.Link.Recv()
	l.p.recv += time.Since(start).Nanoseconds()
	return m, err
}
