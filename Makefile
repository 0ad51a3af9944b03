GO ?= go

# The perf artifacts the regression gate watches, and where their
# committed (HEAD) versions are staged for comparison.
BENCH_FILES ?= BENCH_serve.json BENCH_ensemble.json BENCH_shard.json
BENCH_BASELINE_DIR ?= .bench-baseline

.PHONY: ci docs-gate vet build test bench-test bench-trace race race-kernels chaos fuzz-faults fuzz-neighbor fuzz-sqrt serial serve-smoke shard-smoke bench experiments bench-serve bench-ensemble bench-shard bench-diff

# ci is the gate: vet, build everything, the benchmark module's own
# vet and tests (bench-test), one traced run of each SD workload
# (bench-trace), the full test suite under
# the race detector (the obs hot paths are lock-free and the worker
# pool is the most concurrent code in the tree; -race is what
# validates them), the seeded fault-injection suite, the serving
# suite (batched-vs-unbatched bitwise equivalence, shedding,
# cancellation, drain), one serial pass with GOMAXPROCS=1 to prove
# nothing depends on real parallelism, ten seconds of fuzzing the
# fault-spec parser (its input is a command-line flag), ten of the
# periodic wrap (its input is every coordinate a step produces) and ten
# of the preconditioned Brownian square root (its input is every matrix
# a step assembles, through a factor up to a window old), and the
# advisory perf-regression gate over the BENCH_*.json artifacts (fails
# only on >2x regressions; warns otherwise; skips files with no
# baseline).
ci: vet build bench-test bench-trace docs-gate race-kernels race chaos fuzz-faults fuzz-neighbor fuzz-sqrt serve-smoke shard-smoke serial bench-diff

# docs-gate fails when an internal/ package lacks a package comment,
# a tracked markdown file has a broken relative link, README.md /
# ARCHITECTURE.md name an internal/ or cmd/ path that is not in the
# tree, a fenced command in the docs names a make target, a cmd/ flag
# or an experiment id that no longer exists, or experiments_output.txt
# lacks (or repeats) a registered experiment — documentation drift is
# a build failure, not a review nit.
docs-gate:
	$(GO) run ./cmd/docs-gate

# The second line cross-vets the packages with assembly for an
# architecture that has none, so their _noasm/_other files cannot rot;
# the third fails when any file is not gofmt-clean.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpufeat/ ./internal/bcrs/ ./internal/multivec/ ./internal/solver/
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is its own module, so `./...` above never reaches it: without
# this an API rename under internal/ breaks the canonical benchmark
# (BENCHMARK.json) and nothing notices until it is run.
bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# bench-trace runs both SD workloads traced for two seconds. A traced
# run steps through the hooks of core.Config (FirstSolve, Distribute,
# BlockPrecond) and fails when its set-up digest differs from the
# untraced one, so a stepper change that reaches only one of the two
# paths — a preconditioner the hooked first solve is not handed, a hook
# result read differently — stops here; bench-test's smoke run is
# untraced and `go test ./...` does not see bench/. It is also the only
# place where the hooked stepper hands matrices back (Recycle) through
# bench/'s own Configuration wrapper.
bench-trace:
	bash bench/run.sh --workload sd_mrhs --seed 1 --seconds 2 --trace 1 > /dev/null
	bash bench/run.sh --workload sd_orig --seed 1 --seconds 2 --trace 1 > /dev/null

race:
	$(GO) test -race ./...

# race-kernels is the fast fail-first race gate over the packages the
# parallel symmetric GSPMV touches — the two-phase scatter/reduce
# schedule in bcrs, the worker pool it runs on, and the serving
# dispatcher that reuses solver scratch across batches — plus the obs
# layer, whose spans and traces cross the submitter/dispatcher
# goroutine boundary and whose scrape endpoints are hammered
# concurrently with solving, and the solver layer, whose concurrent
# solves share workspace pools, and the assembly chain (hydro,
# neighbor, sd), whose assembler and Verlet list are mutable state
# carried along a trajectory: two chains in one process — a verifier
# beside a runner, two runners — must share none of it; and
# multivec, whose pooled reductions block CG runs every iteration and
# whose solves draw their workspace from a shared pool; and core, whose
# stepper decides when a matrix goes back to the assembler that will
# write over it; and chebyshev, whose evaluations — a verifier's beside
# a runner's — draw the recurrence's blocks from one pool. Short mode
# keeps it seconds-cheap so the full -race suite only runs once this
# passes.
race-kernels:
	$(GO) test -race -short ./internal/bcrs/ ./internal/multivec/ ./internal/parallel/ ./internal/serve/ ./internal/shard/ ./internal/obs/ ./internal/solver/ ./internal/hydro/ ./internal/neighbor/ ./internal/sd/ ./internal/core/ ./internal/chebyshev/

# chaos runs the fault-injection and recovery tests — seeded chaos
# runs must reproduce clean-run trajectories bitwise — under -race,
# since the faulty transport is the most concurrent code in the tree.
chaos:
	$(GO) test -race -run 'Chaos|Recovery|Fault|Fallback|Backoff|Crash|Degrad' ./internal/cluster/... ./internal/core/ ./internal/sd/ ./internal/solver/ ./internal/shard/

# fuzz-faults fuzzes faults.Parse — the value of -faults and
# -shard-faults — for ten seconds: no panic, an accepted plan prints to
# a spec that parses back to itself, and its injector answers.
fuzz-faults:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/cluster/faults/

# fuzz-neighbor fuzzes the assembly chain's geometry, ten seconds per
# target: neighbor.Wrap and MinImage return for any float64 coordinate
# and box (they used to loop once per box length, forever on an
# infinity) and keep the bits of the bare add/subtract loops within two
# boxes; neighbor.Image is MinImage of the difference of two wrapped
# coordinates, bit for bit; and hydro's assembler is the Builder oracle,
# bit for bit, on small hostile systems stepped along a walk.
fuzz-neighbor:
	$(GO) test -run '^$$' -fuzz '^FuzzWrapTerminates$$' -fuzztime 10s ./internal/neighbor/
	$(GO) test -run '^$$' -fuzz '^FuzzImageMatchesMinImage$$' -fuzztime 10s ./internal/neighbor/
	$(GO) test -run '^$$' -fuzz '^FuzzAssemblerMatchesOracle$$' -fuzztime 10s ./internal/hydro/

# fuzz-sqrt fuzzes chebyshev.PrecondSqrt for ten seconds over small
# SPD block matrices seen through the IC(0) factor of a drifted copy, at
# one to five columns, with a NaN, an infinity or a negative diagonal
# entry planted on request: it returns, every column meets the tolerance
# against the dense oracle and equals the column run alone, or it fails
# with ErrNotSPD — which a planted fault must produce.
fuzz-sqrt:
	$(GO) test -run '^$$' -fuzz '^FuzzPrecondSqrt$$' -fuzztime 10s ./internal/chebyshev/

# serial runs the full suite pinned to one OS thread: the worker pool
# must produce identical results (and never deadlock) when the runtime
# has no parallelism to give it.
serial:
	GOMAXPROCS=1 $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# experiments regenerates experiments_output.txt, the only committed
# paper-table artifact: every table and figure of the evaluation plus
# the ext-* extensions at default sizes (about three minutes on two
# cores). EXPERIMENTS.md records the host and commit it was produced at.
experiments:
	$(GO) run ./cmd/experiments -run all > experiments_output.txt

# serve-smoke runs the batching-server suite (engine + HTTP) under
# -race: the dispatcher/submitter handoff and the drain path are the
# concurrency-heavy parts, and the bitwise batched-vs-unbatched
# equivalence test is the serving layer's core guarantee.
serve-smoke:
	$(GO) test -race -run 'TestServe' ./internal/serve/

# shard-smoke runs the sharded-serve suite under -race: the fleet's
# split/halo/gather determinism (1-shard bitwise identity with the
# plain engine, multi-shard bits pinned to the pre-refactor fleet and
# equal to a bare cluster.Cluster), crash-shrink recovery, no goroutine
# left behind, and the HTTP surface over a sharded engine (topology in
# /v1/info, degraded /healthz, per-shard trace spans, ID echo on
# rejections).
shard-smoke:
	$(GO) test -race -run 'TestFleet|TestShard|TestServeShard' ./internal/shard/ ./internal/serve/

# bench-diff is the advisory perf-regression gate: stage the
# committed (HEAD) BENCH_*.json artifacts as baselines, then grade
# the working-tree artifacts against them with direction-aware
# per-metric tolerances. Only >2x regressions fail; smaller moves
# warn; artifacts without a committed baseline (fresh benchmarks,
# no git) skip cleanly.
bench-diff:
	@mkdir -p $(BENCH_BASELINE_DIR)
	@for f in $(BENCH_FILES); do \
		git show HEAD:$$f > $(BENCH_BASELINE_DIR)/$$f 2>/dev/null || rm -f $(BENCH_BASELINE_DIR)/$$f; \
	done
	$(GO) run ./cmd/bench-diff -baseline-dir $(BENCH_BASELINE_DIR) $(BENCH_FILES)

# bench-serve measures the batching server's operating curve — open-
# loop Poisson load sweep against a sequential m=1 CG baseline — and
# writes the BENCH_serve.json artifact (throughput, p50/p95/p99,
# mean batch size, shed rate per load factor; "best" holds the
# saturating-load acceptance numbers), then prints the regression
# diff against the committed baseline (advisory: the fresh run is
# the artifact, the diff is the reviewer's context).
bench-serve:
	$(GO) run ./cmd/serve-bench -json $(CURDIR)/BENCH_serve.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_serve.json

# bench-ensemble sweeps fused K-wide ensemble requests (K member
# right-hand sides per atomic submission) against the same sequential
# m=1 baseline, at ensemble-request rates below saturation, and writes
# BENCH_ensemble.json. "best_low_load" holds the acceptance number:
# member-solve speedup >= 1 at load_factor < 2, the regime where
# single-RHS traffic batching regresses below 1x.
bench-ensemble:
	$(GO) run ./cmd/serve-bench -ensemble 1,4,8,16 -load 0.5,1,1.5 -json $(CURDIR)/BENCH_ensemble.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_ensemble.json

# bench-shard sweeps the serve-tier shard counts over the rate sweep
# and writes BENCH_shard.json: per-shard-count throughput and latency
# against the same m=1 baseline, the strip layout (owned/halo rows),
# "shard_speedup" (largest count over 1
# shard; reads against "cores" — a single-core host measures routing
# overhead, not scaling), and the shard-kill chaos pass, which must
# complete every solve on the shrunk fleet ("completed_degraded").
bench-shard:
	$(GO) run ./cmd/serve-bench -nb 3000 -load 0.5,2,8 -shards 1,2,4 -json $(CURDIR)/BENCH_shard.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_shard.json
