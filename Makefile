# Development entry points. Everything is stdlib-only Go; no external
# dependencies are ever downloaded.

GO ?= go

.PHONY: all build vet test test-race test-short check chaos-smoke obs-smoke codec-smoke shard-smoke async-smoke energy-smoke workloads-smoke examples-smoke profile bench bench-json bench-check bench-paper bench-experiments fuzz fuzz-smoke examples clean

# Scratch directory for generated artifacts (metrics sinks, bench output,
# profiles); removed by `make clean`, never committed.
BUILD_DIR := build

all: build vet test

# Pre-commit gate: formatting, static analysis, and the race-enabled short
# test suite (includes the zero-allocation regression tests).
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# End-to-end fault-tolerance smoke: a federation survives a scripted node
# crash + rejoin and a corrupted update (rejected by the sanitation guard).
chaos-smoke:
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -round-timeout 500ms -guard 25 \
		-chaos "1:kill@2,1:revive@4,2:corrupt@3" -chaos-seed 11

# Observability smoke: a chaos run writes per-round metrics JSONL, then
# cmd/obscheck verifies the schema, monotonicity, and that the per-round
# traffic deltas reconstruct the final totals exactly. Artifacts land in
# $(BUILD_DIR), never the repo root.
obs-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -round-timeout 500ms -guard 25 \
		-chaos "1:kill@2,1:revive@4,2:corrupt@3" -chaos-seed 11 \
		-metrics-out $(BUILD_DIR)/obs_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/obs_smoke.jsonl

# Compressed-transport smoke: the same chaos scenario with topk+delta update
# compression. obscheck proves the metrics stream still folds to the final
# totals exactly when the billed bytes are the compressed ones and the delta
# chain is broken and resynced mid-run.
codec-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -codec topk -round-timeout 500ms -guard 25 \
		-chaos "1:kill@2,1:revive@4,2:corrupt@3" -chaos-seed 11 \
		-metrics-out $(BUILD_DIR)/codec_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/codec_smoke.jsonl

# Two-tier topology smoke: the same chaos scenario through two leaf shard
# aggregators and a director, with q8 update compression. The director and
# each shard write their own metrics stream, and obscheck validates all three
# independently — per-shard traffic accounting must reconstruct exactly even
# when the faults land inside the shards.
shard-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -shards 2 -codec q8 -round-timeout 500ms -guard 25 \
		-chaos "1:kill@2,1:revive@4,4:corrupt@3" -chaos-seed 11 \
		-metrics-out $(BUILD_DIR)/shard_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/shard_smoke.jsonl \
		$(BUILD_DIR)/shard_smoke.shard0.jsonl $(BUILD_DIR)/shard_smoke.shard1.jsonl

# Buffered-async smoke: async aggregation with one scripted straggler (slow
# link from round 2, healed at round 8) plus a kill/revive window. The
# staleness machinery — decayed applies, drop bound, suspect/rejoin as the
# common path — must keep the metrics stream consistent: obscheck validates
# schema, monotonicity, and exact reconstruction including the stale
# counters.
async-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -async -staleness-decay 0.6 -max-staleness 1 -async-quorum 0.8 \
		-round-timeout 500ms -guard 25 \
		-chaos "1:slow=40ms@2,1:slow=0s@8,2:kill@3,2:revive@5" -chaos-seed 11 \
		-metrics-out $(BUILD_DIR)/async_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/async_smoke.jsonl

# Partial-sync + budget smoke, in two legs. Leg 1: head-only sync after two
# warmup rounds through the usual kill/revive + corrupt chaos — the masked
# resync of a rejoining node and the corrupted-payload handling run under the
# mask. Leg 2: a 1 J lora-like budget no node can afford — every round falls
# back to the best-progress-per-joule backfill and the new budget_filtered
# counter fills. obscheck proves both metrics streams (schema 3) reconstruct
# the final totals exactly.
energy-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -sync-mask head:2 -round-timeout 500ms -guard 25 \
		-chaos "1:kill@2,1:revive@4,2:corrupt@3" -chaos-seed 11 \
		-metrics-out $(BUILD_DIR)/mask_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/mask_smoke.jsonl
	$(GO) run ./cmd/fedml train -dataset synthetic -nodes 6 -k 3 -t 30 -t0 5 \
		-seed 7 -sync-mask head:2 -energy-profile lora-like -energy-budget 1 \
		-metrics-out $(BUILD_DIR)/energy_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/energy_smoke.jsonl

# New-workloads smoke, in two legs. Leg 1: the federated recommendation
# scenario (per-user rating tasks) trained through q8 update compression.
# Leg 2: the TinyML fault-classification scenario (per-device class skew)
# under a head-only sync mask. Both write per-round metrics JSONL and
# obscheck proves the streams reconstruct the final totals exactly — the
# new generators compose with the platform knobs like any other workload.
workloads-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/fedml train -dataset rec -nodes 8 -k 3 -t 20 -t0 5 \
		-seed 7 -codec q8 \
		-metrics-out $(BUILD_DIR)/workloads_rec_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/workloads_rec_smoke.jsonl
	$(GO) run ./cmd/fedml train -dataset fault -nodes 8 -k 3 -t 20 -t0 5 \
		-seed 7 -sync-mask head:2 \
		-metrics-out $(BUILD_DIR)/workloads_fault_smoke.jsonl
	$(GO) run ./cmd/obscheck $(BUILD_DIR)/workloads_fault_smoke.jsonl

# CPU + heap profiles of the hot end-to-end benchmark (fig2a). Inspect with
# `go tool pprof cpu.pprof`; live runs expose the same data via -pprof.
profile:
	$(GO) test -run '^$$' -bench 'Fig2aNodeSimilarity' -benchmem \
		-cpuprofile cpu.pprof -memprofile mem.pprof .

# One testing.B per paper table/figure plus ablations (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# The key end-to-end and kernel benchmarks, as one `go test -bench` run; its
# transcript is kept in $(BUILD_DIR)/bench_output.txt and piped on.
BENCH_SUITE = $(GO) test -run '^$$' \
	-bench 'Fig2aNodeSimilarity|MetaStep|FastAdaptation|GradInto|GradStepInto' \
	-benchmem . | tee $(BUILD_DIR)/bench_output.txt

# Machine-readable performance snapshot: BENCH_SUITE rendered to
# BENCH_fedml.json (name -> ns/op, B/op, allocs/op) by cmd/benchjson, so
# performance regressions show up as diffs.
bench-json:
	@mkdir -p $(BUILD_DIR)
	$(BENCH_SUITE) | $(GO) run ./cmd/benchjson -out BENCH_fedml.json

# CI regression gate: re-measure BENCH_SUITE into $(BUILD_DIR) and fail when
# allocs/op or B/op grew more than 10% over the committed BENCH_fedml.json
# (ns/op is reported, not gated — CI wall time is noise). The schema of the
# committed BENCH_experiments.json is checked by the tier-1 tests of
# cmd/fedml-bench.
bench-check:
	@mkdir -p $(BUILD_DIR)
	$(BENCH_SUITE) | $(GO) run ./cmd/benchjson -out $(BUILD_DIR)/bench_current.json
	$(GO) run ./cmd/benchjson compare BENCH_fedml.json $(BUILD_DIR)/bench_current.json

# Regenerate every table and figure at the paper's scale.
bench-paper:
	$(GO) run ./cmd/fedml-bench -exp all -paper

# Experiment snapshot: run every measured experiment (`fedml-bench -list`
# marks them), enforce its gate, and merge its entry into
# BENCH_experiments.json. ext-scale is recorded at paper scale (2.6×10⁵
# simulated nodes), the others at CI scale. Fails when a gate fails: the
# fig2a worker sweep's outputs differ, async is under 2× sync or its
# objective gap over 5%, head-only sync loses more than 2 accuracy points or
# saves under 3× the joules, or FedML's adapted accuracy is below the
# FedAvg/FedProx global baselines on rec or fault.
bench-experiments:
	$(GO) run ./cmd/fedml-bench -bench par,ext-async,ext-energy,ext-rec,ext-fault -out BENCH_experiments.json
	$(GO) run ./cmd/fedml-bench -bench ext-scale -paper -out BENCH_experiments.json

# Short fuzzing pass over the parsers and the update codecs.
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/checkpoint
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/codec

# Seconds-long fuzz smoke for CI: enough to replay the corpus and catch
# shallow regressions without holding up the pipeline.
fuzz-smoke:
	$(GO) test -fuzz FuzzRead -fuzztime 5s ./internal/checkpoint
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 5s ./internal/codec

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edgeiot
	$(GO) run ./examples/sentiment
	$(GO) run ./examples/robustness
	$(GO) run ./examples/operations

# Examples smoke: the five library examples end to end. quickstart and
# robustness run the fast-adaptation and DRO paths at runtime, which
# `go build ./...` only compiles.
examples-smoke: examples

clean:
	$(GO) clean ./...
	rm -f fedml fedml-bench test_output.txt bench_output.txt obs_smoke.jsonl *.pprof
	rm -rf $(BUILD_DIR)
