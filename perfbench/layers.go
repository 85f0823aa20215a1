package main

import (
	"math"
	"slices"
	"time"
)

// roundLayers is one traced round split by layer, in nanoseconds.
type roundLayers struct {
	dur       int64 // round wall time (OnRound interval)
	send      int64 // node-facing link Send time, summed over aggregators
	recv      int64 // node-facing link Recv time, summed over aggregators
	rootLink  int64 // director↔shard link time on the director (fleet)
	shardSelf int64 // Σ shard self time (fleet)
	sharded   bool
	compute   []int64 // per-node compute (flat workloads)
	updSum    int64   // Σ simulated-node update time (fleet)
	updMax    int64
	updNodes  int64
}

// layerMetrics derives the per-layer metrics of a traced run from its spans
// and from the side calls into each layer.
func (m *measurement) layerMetrics() map[string]metric {
	var (
		broadcast, gather, platSelf, dirSelf []float64
		shardPerNode, computeMs, straggler   []float64
		sendUs, recvUs                       []float64
		nodeBusy, nodeWall                   float64
	)
	for _, r := range m.traced {
		rounds := map[int]*roundLayers{}
		get := func(round int) *roundLayers {
			if rl, ok := rounds[round]; ok {
				return rl
			}
			rl := &roundLayers{}
			rounds[round] = rl
			return rl
		}
		for i := range r.spans {
			s := &r.spans[i]
			d := s.End - s.Start
			switch s.Name {
			case "round":
				get(s.Round).dur = d
			case "link.send", "node.send", "root.send":
				sendUs = append(sendUs, float64(d)/1e3)
				if s.Name == "link.send" {
					get(s.Round).send += d
				} else if s.Name == "root.send" {
					get(s.Round).rootLink += d
				}
			case "link.recv", "node.recv", "root.recv":
				recvUs = append(recvUs, float64(d)/1e3)
				if s.Name == "link.recv" {
					get(s.Round).recv += d
				} else if s.Name == "root.recv" {
					get(s.Round).rootLink += d
				}
			case "node.compute":
				rl := get(s.Round)
				rl.compute = append(rl.compute, d)
				nodeBusy += float64(d)
			case "shard.round":
				rl := get(s.Round)
				rl.sharded = true
				c := s.Counts
				self := d - c["update_ns"] - c["send_ns"] - c["recv_ns"]
				rl.shardSelf += self
				rl.send += c["send_ns"]
				rl.recv += c["recv_ns"]
				rl.updSum += c["update_ns"]
				rl.updMax = max(rl.updMax, c["update_max_ns"])
				rl.updNodes += c["nodes"]
				shardPerNode = append(shardPerNode, float64(self)/float64(c["nodes"]))
				nodeBusy += float64(c["update_ns"])
			}
		}
		nodeWall += float64(r.nodes) * float64(r.wall.Nanoseconds())
		for round, rl := range rounds {
			if round < 1 || round > r.rounds {
				continue
			}
			broadcast = append(broadcast, float64(rl.send)/1e6)
			gather = append(gather, float64(rl.recv)/1e6)
			if rl.sharded {
				root := rl.dur - rl.rootLink
				dirSelf = append(dirSelf, float64(root)/1e6)
				platSelf = append(platSelf, float64(root+rl.shardSelf)/1e6)
				if rl.updNodes > 0 {
					meanUpd := float64(rl.updSum) / float64(rl.updNodes)
					computeMs = append(computeMs, meanUpd/1e6)
					straggler = append(straggler, float64(rl.updMax)/meanUpd)
				}
				continue
			}
			// The flat platform is the one-shard degenerate case of the
			// two-tier topology: it is both root and only shard.
			self := rl.dur - rl.send - rl.recv
			platSelf = append(platSelf, float64(self)/1e6)
			dirSelf = append(dirSelf, float64(self)/1e6)
			shardPerNode = append(shardPerNode, float64(self)/float64(r.nodes))
			if len(rl.compute) > 0 {
				var sum, top int64
				for _, c := range rl.compute {
					sum += c
					top = max(top, c)
					computeMs = append(computeMs, float64(c)/1e6)
				}
				straggler = append(straggler, float64(top)*float64(len(rl.compute))/float64(sum))
			}
		}
	}

	var rounds, tracedRounds, msgs int
	var billed, wire int64
	var plainWall, tracedWall time.Duration
	for _, r := range m.plain {
		rounds += r.rounds
		msgs += r.stats.Messages
		billed += r.stats.Bytes
		wire += r.wireBytes
		plainWall += r.wall
	}
	for _, r := range m.traced {
		tracedWall += r.wall
		tracedRounds += r.rounds
	}
	side := m.fx.layers(0, m.firsts[0].theta)
	perRound := func(x float64) float64 { return x / float64(rounds) }
	out := map[string]metric{
		"data.generate_ms":                 {median(m.fx.genMs()), "ms"},
		"nn.grad_us":                       {side["nn.grad_us"], "us"},
		"nn.hvp_us":                        {side["nn.hvp_us"], "us"},
		"meta.step_us":                     {side["meta.step_us"], "us"},
		"core.node_compute_ms":             {median(computeMs), "ms"},
		"core.straggler_ratio":             {median(straggler), "ratio"},
		"core.round_ms_p95":                {roundBlocks(m.plain, m.periodShares()).p95, "ms"},
		"core.broadcast_ms":                {median(broadcast), "ms"},
		"core.gather_wait_ms":              {median(gather), "ms"},
		"core.platform_self_ms":            {median(platSelf), "ms"},
		"core.shard_self_ns_per_node":      {median(shardPerNode), "ns"},
		"core.director_self_ms":            {median(dirSelf), "ms"},
		"core.billed_bytes_per_round":      {perRound(float64(billed)), "B"},
		"core.msgs_per_round":              {perRound(float64(msgs)), "count"},
		"transport.send_us":                {median(sendUs), "us"},
		"transport.recv_us":                {median(recvUs), "us"},
		"transport.frame_overhead_frac":    {float64(wire)/float64(billed) - 1, "ratio"},
		"transport.node_idle_frac":         {1 - nodeBusy/nodeWall, "ratio"},
		"codec.encode_us":                  {side["codec.encode_us"], "us"},
		"codec.decode_us":                  {side["codec.decode_us"], "us"},
		"codec.bytes_per_param":            {side["codec.bytes_per_param"], "B"},
		"runtime.alloc_bytes_per_round":    {float64(m.allocBytes) / float64(rounds), "B"},
		"runtime.gc_cycles_per_100_rounds": {100 * float64(m.gcCycles) / float64(rounds), "count"},
		"obs.overhead_frac":                {perRoundWall(tracedWall, tracedRounds)/perRoundWall(plainWall, rounds) - 1, "ratio"},
	}
	return out
}

func perRoundWall(wall time.Duration, rounds int) float64 {
	return float64(wall.Nanoseconds()) / float64(rounds)
}

// timeCalls returns the median duration of one call to f in µs over n
// calls, after n/10 untimed warm-up calls.
func timeCalls(n int, f func()) float64 {
	for i := 0; i < n/10; i++ {
		f()
	}
	ns := make([]float64, n)
	for i := range ns {
		start := time.Now()
		f()
		ns[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ns) / 1e3
}

// percentile is the nearest-rank q-quantile of xs (NaN when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
