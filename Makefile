GO ?= go

.PHONY: tier1 build test vet lint lint-json race examples bench bench-campaign bench-bitset bench-fuzz bench-fuzz-ipc perfbench chaos ipc-chaos fuzz fuzz-ipc

# tier1 is the merge gate: everything must build, vet and deltalint clean,
# and pass the test suite under the race detector.
tier1: vet lint build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's own static-analysis passes (lockorder, lockpair,
# claims, ceiling, memlife, determinism, tracekind, ipc, blocking, races —
# see DESIGN.md §8–§9, §12–§14, and `go run ./cmd/deltalint -list`), then
# enforces the wall-clock budget on a full-module lint of all ten passes
# (default 3400 ms; override with DELTALINT_BUDGET_MS on slower machines).
lint:
	$(GO) run ./cmd/deltalint ./...
	$(GO) test -run '^TestDeltalintTimeBudget$$' .

# lint-json is the CI artifact flavor: machine-readable findings plus the
# inferred resource-claims manifest, the static worst-case blocking
# bounds and the shared-location guard manifest.
lint-json:
	$(GO) run ./cmd/deltalint -json -claims claims-manifest.json -blocking deltalint-blocking.json -races deltalint-races.json ./... > deltalint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs every program under examples/ and fails on the first one
# that exits nonzero, so an API change that breaks an example (each one
# log.Fatals on an unexpected result) cannot pass on a clean build alone.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem

# bench-campaign measures the campaign engine — event-dispatch allocs/op and
# the sequential-vs-parallel wall-clock ratio for a 32-seed chaos sweep —
# and writes BENCH_campaign.json (uploaded as a CI artifact).
bench-campaign:
	$(GO) run ./cmd/deltasim -bench-campaign BENCH_campaign.json

# bench-bitset measures the word-parallel detection engine against the
# per-cell reference engine at 64x64, 1kx1k and 16kx16k — Reduce ns/op per
# engine, speedup, detect-path allocs/op (must be 0), and a verdict
# cross-check — and writes BENCH_bitset.json (uploaded as a CI artifact).
bench-bitset:
	$(GO) run ./cmd/deltasim -bench-bitset BENCH_bitset.json

# bench-fuzz runs the full-size generative sweep — 8 contention points x
# 125000 seeds = 1e6 scenarios, every one checked against the standing
# invariants including the engine differentials (bitset vs per-cell PDDA
# verdicts, cycle witnesses, Banker grant/refuse decisions) — and writes the
# deadlock-probability-vs-contention curve to BENCH_fuzz.json (uploaded as a
# CI artifact next to BENCH_campaign.json).
bench-fuzz:
	$(GO) run ./cmd/deltasim -fuzz -fuzz-seeds 125000 -fuzz-report BENCH_fuzz.json

# bench-fuzz-ipc writes the wedge-probability-vs-message-loss curve — 5 drop
# points x 12500 random message topologies, each seed re-checked for static
# flags ⊇ runtime quiescence core — to BENCH_ipc_fuzz.json (CI artifact).
bench-fuzz-ipc:
	$(GO) run ./cmd/deltasim -fuzz-ipc -fuzz-seeds 12500 -fuzz-report BENCH_ipc_fuzz.json

# perfbench runs one workload of the repository benchmark (BENCHMARK.json)
# for 20 s and prints its JSON result line: W names the workload
# (fuzz-sweep, lint-module, chaos-soc, detect-stream), SEED its seed, and
# TRACE=1 selects the traced run with the per-layer split.  Run it on two
# commits for a before/after, e.g. `make perfbench W=fuzz-sweep SEED=1`.
W ?= fuzz-sweep
SEED ?= 1
TRACE ?= 0
perfbench:
	python3 _perfbench/run.py --workload $(W) --seed $(SEED) --seconds 20 --trace $(TRACE)

# fuzz is the generative-scenario smoke: a small seed budget under the race
# detector with a parallel pool, so the chunked streaming aggregation is
# exercised concurrently.  The binary exits nonzero if any sampled seed
# breaks an invariant (PDDA vs oracle, static ⊇ runtime, lint round-trip).
fuzz:
	$(GO) run -race ./cmd/deltasim -fuzz -fuzz-seeds 250 -parallel 4

# fuzz-ipc is the IPC-topology smoke: random lossy message topologies under
# the race detector, every seed re-checking that the statically flagged task
# set contains the runtime quiescence core (nonzero exit on any violation).
fuzz-ipc:
	$(GO) run -race ./cmd/deltasim -fuzz-ipc -fuzz-seeds 400 -parallel 4

# chaos is the fault-injection smoke: a short seeded campaign on each lock
# system, under the race detector with a parallel worker pool so the sharded
# campaign engine is exercised, not just the sequential path.  Every seed
# must reach a classified terminal state (the binary exits nonzero on a
# panic, a data race, or an unexplained leak).
chaos:
	$(GO) run -race ./cmd/deltasim -chaos -chaos-seeds 3 -parallel 4 -chaos-system rtos5
	$(GO) run -race ./cmd/deltasim -chaos -chaos-seeds 3 -parallel 4 -chaos-system rtos6

# ipc-chaos is the message-fault smoke: seeded drop/delay/duplicate/jam
# campaigns on the producer/consumer ring, under the race detector with a
# parallel pool.  The timeout-hardened ring must never wedge — the binary
# exits nonzero if the retry/backoff machinery fails its liveness
# obligation — while the blocking variant is allowed to wedge (that contrast
# is the point; see DESIGN.md §12).
ipc-chaos:
	$(GO) run -race ./cmd/deltasim -ipc-chaos -ipc-chaos-seeds 6 -parallel 4 -ipc-chaos-variant timeout
	$(GO) run -race ./cmd/deltasim -ipc-chaos -ipc-chaos-seeds 6 -parallel 4 -ipc-chaos-variant blocking
