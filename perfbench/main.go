// Command perfbench is the fedml repository benchmark. It builds one of four
// federated meta-learning workloads from a seed, trains it through the
// public entry points of internal/core for a fixed wall-clock window, checks
// the outputs, and prints one JSON line of metrics.
//
//	perfbench --workload paper-synthetic --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans recorded around every call into a layer and
// reports the per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/edgeai/fedml/internal/core"
)

// fixture is one workload's inputs, built from the seed and ready to train.
type fixture interface {
	// inputs is the number of independent input sets built from the seed;
	// training call k uses input set k mod inputs().
	inputs() int
	// train runs one training call on input set k, traced when tr is set.
	train(k int, tr *tracer) (*trainRun, error)
	// check verifies the outputs of one training call on input set k.
	check(k int, r *trainRun) error
	// loss is the workload's global objective at theta on input set k.
	loss(k int, theta []float64) float64
	// targets is the number of held-out adaptation targets of input set k.
	targets(k int) int
	// adapt runs one fast adaptation of target t of input set k from theta.
	adapt(k, t int, theta []float64)
	// adaptedAcc scores the model produced by the last adapt call.
	adaptedAcc(k, t int) float64
	// layers times the per-layer side calls on theta (traced run only).
	layers(k int, theta []float64) map[string]float64
	// genMs is the input-generation time of each input set, in ms.
	genMs() []float64
	close()
}

// trainRun is what one training call reports.
type trainRun struct {
	theta     []float64
	stats     core.CommStats
	shards    []core.CommStats // per-shard accounting (fleet only)
	rounds    int
	nodes     int
	nodeIters int
	start     time.Time
	wall      time.Duration
	roundEnds []time.Time
	wireBytes int64
	spans     []span
	period    int // index into measurement.host of the call's start
}

type workload struct {
	name  string
	build func(seed uint64, tiny bool) (fixture, error)
}

var workloads = []workload{
	{"paper-synthetic", buildPaperSynthetic},
	{"edge-tcp-raw", func(seed uint64, tiny bool) (fixture, error) { return buildEdgeTCP(seed, tiny, "") }},
	{"edge-tcp-q8", func(seed uint64, tiny bool) (fixture, error) { return buildEdgeTCP(seed, tiny, "q8") }},
	{"fleet-sharded", buildFleet},
}

const (
	// setups is how many times an untraced run builds its fixture; setup_s
	// is the median. The first build is the one measured; the others are
	// spread over the window and closed at once, so one burst of load from
	// elsewhere on the host does not move every sample.
	setups = 5
	// adaptBlock is the number of consecutive adaptations each latency
	// percentile is taken over (p95 then has ten beyond it); the run times
	// at least adaptBlocks blocks and reports the median over blocks.
	adaptBlock  = 200
	adaptBlocks = 10
	// adaptBatchMax bounds the adaptations timed between two training
	// calls, so that sub-microsecond adaptations stay spread over the window.
	adaptBatchMax = 10000
	// minBlockRounds is the least number of rounds the round-time
	// statistics are taken over at a time.
	minBlockRounds = 200
	// adaptShare is the share of the window spent adapting. Adaptations run
	// in batches between training calls, so their samples span the window.
	adaptShare = 0.15
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spansDir = flag.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	spans := ""
	if *trace == 1 && *spansDir != "" {
		spans = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, spans)
	if res == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run builds the workload, measures it for the window and checks it. A nil
// result means the run could not be measured at all; a result with Correct
// false comes with the error that made an output check fail.
func run(w workload, seed uint64, window time.Duration, traced, tiny bool, spansPath string) (*result, error) {
	build := func() (fixture, float64, error) {
		start := time.Now()
		fx, err := w.build(seed, tiny)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		return fx, time.Since(start).Seconds(), nil
	}
	fx, setupS, err := build()
	if err != nil {
		return nil, err
	}
	defer fx.close()

	m := &measurement{fx: fx, setupS: []float64{setupS}}
	if !traced {
		m.rebuild = func() error {
			extra, s, err := build()
			if err != nil {
				return err
			}
			extra.close()
			// Collect the extra fixture now, so its garbage does not inflate
			// the peak RSS of the run by a GC-timing-dependent amount.
			runtime.GC()
			m.setupS = append(m.setupS, s)
			return nil
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := m.loop(time.Now(), window, tr); err != nil {
		return m.result(false, nil), err
	}
	var checkErr error
	for k, r := range m.firsts {
		if err := fx.check(k, r); err != nil {
			m.failed++
			checkErr = errors.Join(checkErr, fmt.Errorf("input set %d: %w", k, err))
		}
		m.attempted++
	}

	var metrics map[string]metric
	if traced {
		metrics = m.layerMetrics()
		if tr.dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: trace full, %d spans not kept; per-layer metrics cover the kept ones\n", tr.dropped)
		}
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				return nil, err
			}
		}
	} else {
		metrics = m.endToEnd()
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%v)", w.name, name, v.Value)
		}
	}
	return m.result(checkErr == nil, metrics), checkErr
}

// measurement accumulates one run's training calls.
type measurement struct {
	fx fixture
	// firsts holds the first training call of each input set: its θ_T is
	// the reference later calls on the same inputs must reproduce.
	firsts []*trainRun
	// untraced and traced training calls
	plain, traced []*trainRun
	// allocation and GC deltas over the untraced calls of a traced run
	allocBytes uint64
	gcCycles   uint32

	setupS  []float64
	rebuild func() error // one more timed set-up; nil in a traced run

	adaptNs     []float64
	adaptPeriod []int // per adaptation, the period of the call it followed
	adaptTime   time.Duration
	adaptNext   int

	// host holds a host CPU reading at the start of each untraced training
	// call and one at the end of the loop: period i runs from reading i to
	// reading i+1 and covers call i and the adaptations after it.
	host []hostCPU

	attempted int
	failed    int
}

// loop runs training calls until the window ends. An untraced run trains
// every input set at least once, since the quality metrics average over
// them, and interleaves the timed adaptations and the extra set-ups with
// the training calls. A traced run trains each input set twice in a row,
// untraced then traced, so the tracing overhead compares like with like.
func (m *measurement) loop(start time.Time, window time.Duration, tr *tracer) error {
	n := m.fx.inputs()
	need := n
	if tr != nil {
		need = 1
	}
	var ms0, ms1 runtime.MemStats
	var trainTime time.Duration
	for k := 0; k < need || time.Since(start) < window; k++ {
		in := k % n
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		r, err := m.step(in, nil)
		if err != nil {
			return err
		}
		m.plain = append(m.plain, r)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			m.gcCycles += ms1.NumGC - ms0.NumGC
			rt, err := m.step(in, tr)
			if err != nil {
				return err
			}
			m.traced = append(m.traced, rt)
			continue
		}
		trainTime += r.wall
		if m.adaptTime < time.Duration(adaptShare*float64(trainTime)) {
			m.adaptWarm()
			for i := 0; i < adaptBatchMax && m.adaptTime < time.Duration(adaptShare*float64(trainTime)); i++ {
				m.adaptOnce()
			}
		}
		if len(m.setupS) < setups && time.Since(start) >= time.Duration(len(m.setupS))*window/setups {
			if err := m.rebuild(); err != nil {
				return err
			}
		}
	}
	if tr == nil {
		m.adaptWarm()
		for len(m.adaptNs) < adaptBlocks*adaptBlock {
			m.adaptOnce()
		}
	}
	m.host = append(m.host, readHostCPU())
	if tr == nil {
		for len(m.setupS) < setups {
			if err := m.rebuild(); err != nil {
				return err
			}
		}
	}
	return nil
}

// step runs one training call and checks it reproduces the first call on
// the same input set bit for bit.
func (m *measurement) step(k int, tr *tracer) (*trainRun, error) {
	if tr == nil {
		m.host = append(m.host, readHostCPU())
	}
	r, err := m.fx.train(k, tr)
	if err != nil {
		m.attempted++
		m.failed++
		return nil, fmt.Errorf("training call on input set %d: %w", k, err)
	}
	r.period = len(m.host) - 1
	m.attempted += r.nodes * r.rounds
	s := r.stats
	m.failed += s.Dropped + s.Rejected + s.SkippedRounds
	if k == len(m.firsts) {
		m.firsts = append(m.firsts, r)
		return r, nil
	}
	if !bitsEqual(r.theta, m.firsts[k].theta) {
		m.failed++
		return nil, fmt.Errorf("input set %d: θ_T differs between training calls on the same inputs", k)
	}
	return r, nil
}

func (m *measurement) targetCount() int {
	total := 0
	for k := range m.firsts {
		total += m.fx.targets(k)
	}
	return total
}

// adaptWarm prepares a batch of timed adaptations. A target adapts on its
// own device, not in the platform's process: the collector is settled
// first, and one untimed adaptation brings the model's buffers back into
// cache after the training call that ran before.
func (m *measurement) adaptWarm() {
	runtime.GC()
	m.fx.adapt(0, 0, m.firsts[0].theta)
}

// adaptOnce times one fast adaptation from the θ_T of an input set already
// trained, cycling over every target of every such set.
func (m *measurement) adaptOnce() {
	i := m.adaptNext % m.targetCount()
	m.adaptNext++
	k := 0
	for i >= m.fx.targets(k) {
		i -= m.fx.targets(k)
		k++
	}
	start := time.Now()
	m.fx.adapt(k, i, m.firsts[k].theta)
	d := time.Since(start)
	m.adaptTime += d
	m.adaptNs = append(m.adaptNs, float64(d.Nanoseconds()))
	m.adaptPeriod = append(m.adaptPeriod, len(m.host)-1)
	m.attempted++
}

func (m *measurement) result(correct bool, metrics map[string]metric) *result {
	return &result{Correct: correct && m.failed == 0, Attempted: max(1, m.attempted), Failed: m.failed, Metrics: metrics}
}

// endToEnd derives the end-to-end metrics of an untraced run.
func (m *measurement) endToEnd() map[string]metric {
	var rounds int
	var wire int64
	for _, r := range m.plain {
		rounds += r.rounds
		wire += r.wireBytes
	}
	shares := m.periodShares()
	blocks := roundBlocks(m.plain, shares)
	adaptP50, adaptP95 := m.adaptBlocks(shares)
	// Quality is scored once per input set and target, in order. The
	// adaptation is deterministic, so it matches every timed one.
	var loss, acc float64
	targets := 0
	for k, r := range m.firsts {
		loss += m.fx.loss(k, r.theta)
		for t := 0; t < m.fx.targets(k); t++ {
			m.fx.adapt(k, t, r.theta)
			acc += m.fx.adaptedAcc(k, t)
			targets++
		}
	}
	loss /= float64(len(m.firsts))
	acc /= float64(targets)
	return map[string]metric{
		"setup_s":              {median(m.setupS), "s"},
		"node_iters_per_s":     {blocks.itersPerS, "1/s"},
		"round_ms_p50":         {blocks.p50, "ms"},
		"adapt_us_p50":         {adaptP50 / 1e3, "us"},
		"adapt_us_p95":         {adaptP95 / 1e3, "us"},
		"final_meta_loss":      {loss, "loss"},
		"adapted_acc":          {acc, "fraction"},
		"wire_bytes_per_round": {float64(wire) / float64(rounds), "B"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
		"ok_op_frac":           {1 - float64(m.failed)/float64(max(1, m.attempted)), "fraction"},
	}
}

// periodShares is the host steal share of each period of the run.
func (m *measurement) periodShares() []float64 {
	out := make([]float64, max(0, len(m.host)-1))
	for i := range out {
		out[i] = stealShare(m.host[i], m.host[i+1])
	}
	return out
}

// blockStats summarizes the round times of a run's training calls.
type blockStats struct{ itersPerS, p50, p95 float64 }

// roundBlocks splits consecutive training calls into blocks of at least
// minBlockRounds rounds, so that each block's p95 has ten rounds beyond it,
// and takes node throughput and round-time percentiles per block. Each is
// reported as the median over the calmer half of the blocks (calmMedian,
// by the mean steal share of the blocks' periods), so a burst of load from
// elsewhere on the host moves a few blocks, not the result. A run shorter
// than one block is one block.
func roundBlocks(runs []*trainRun, shares []float64) blockStats {
	var (
		rates, p50s, p95s, steal []float64
		block                    []float64
		iters, calls             int
		wall                     time.Duration
		share                    float64
	)
	flush := func() {
		rates = append(rates, float64(iters)/wall.Seconds())
		p50s = append(p50s, percentile(block, 0.50))
		p95s = append(p95s, percentile(block, 0.95))
		steal = append(steal, share/float64(calls))
		block, iters, calls, wall, share = block[:0], 0, 0, 0, 0
	}
	for i, r := range runs {
		block = append(block, roundDurations(r)...)
		iters += r.nodeIters
		wall += r.wall
		calls++
		share += shares[r.period]
		if len(block) >= minBlockRounds || (len(rates) == 0 && i == len(runs)-1) {
			flush()
		}
	}
	return blockStats{calmMedian(rates, steal), calmMedian(p50s, steal), calmMedian(p95s, steal)}
}

// adaptBlocks takes the p50 and p95 of adaptation time per block of
// adaptBlock consecutive adaptations and reports each as the median over
// the calmer half of the blocks, as roundBlocks does. A tail shorter than a
// block is dropped.
func (m *measurement) adaptBlocks(shares []float64) (p50, p95 float64) {
	var p50s, p95s, steal []float64
	for lo := 0; lo+adaptBlock <= len(m.adaptNs); lo += adaptBlock {
		ns := m.adaptNs[lo : lo+adaptBlock]
		var share float64
		for _, p := range m.adaptPeriod[lo : lo+adaptBlock] {
			share += shares[p]
		}
		p50s = append(p50s, percentile(ns, 0.50))
		p95s = append(p95s, percentile(ns, 0.95))
		steal = append(steal, share/adaptBlock)
	}
	return calmMedian(p50s, steal), calmMedian(p95s, steal)
}

// roundDurations returns the wall time of each round of a training call in
// ms: the interval between consecutive OnRound callbacks, the first round
// timed from the start of the call.
func roundDurations(r *trainRun) []float64 {
	out := make([]float64, len(r.roundEnds))
	prev := r.start
	for i, at := range r.roundEnds {
		out[i] = float64(at.Sub(prev).Nanoseconds()) / 1e6
		prev = at
	}
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
