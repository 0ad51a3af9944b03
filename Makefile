GO ?= go

.PHONY: ci docs-gate reach vet build test bench-test bench-trace race race-kernels chaos fuzz-faults fuzz-neighbor fuzz-sqrt fuzz-blockcg fuzz-serve fuzz-checkpoint serial wide noavx512 fma serve-smoke bench experiments trajectory

# ci is the gate: vet, build everything, the benchmark module's own
# vet and tests (bench-test), one traced run of each SD workload
# (bench-trace), the reachability census (reach: every function under
# internal/ is reached by a documented run or carries one checked
# reason), the full test suite under
# the race detector (the obs hot paths are lock-free and the worker
# pool is the most concurrent code in the tree; -race is what
# validates them), the seeded fault-injection suite (the distributed
# multiply's transport and the SD step's recovery), the serving suite
# (batched-vs-unbatched bitwise equivalence, shedding, cancellation,
# drain, operator-failure containment), one serial pass with GOMAXPROCS=1 to prove
# nothing depends on real parallelism (the process pool defaults to
# GOMAXPROCS, so this is also the one-thread default), one wide pass
# of the multiply's packages with GOMAXPROCS=4 (an oversubscribed
# pool on any host, whose split tests must see their pooled runs
# dispatch), one short pass
# of the kernel packages with AVX-512 compiled out (noavx512), one of
# the reduction packages built for x86-64-v3 (fma), ten seconds of
# fuzzing the
# fault-spec parser (its input is a command-line flag), ten of the
# periodic wrap (its input is every coordinate a step produces), ten
# of the preconditioned Brownian root, the inverse square root whose
# force every default step draws (its input is every matrix a step
# assembles, through a factor up to a window old) and ten of the
# block solve on dependent right-hand sides, ten of the HTTP solve
# endpoints on arbitrary bodies, ten of checkpoint restore on arbitrary
# bytes. Performance is not gated here: bench/run.sh's paired parent
# and change runs under BENCHMARK.json's bounds are the one regression
# instrument.
ci: vet build bench-test bench-trace docs-gate reach race-kernels race chaos fuzz-faults fuzz-neighbor fuzz-sqrt fuzz-blockcg fuzz-serve fuzz-checkpoint serve-smoke serial wide noavx512 fma

# docs-gate fails when an internal/ package lacks a package comment,
# a tracked markdown file has a broken relative link, README.md /
# ARCHITECTURE.md name an internal/ or cmd/ path that is not in the
# tree, a fenced command in the docs names a make target, a cmd/ flag
# or an experiment id that no longer exists, or experiments_output.txt
# lacks (or repeats) a registered experiment — documentation drift is
# a build failure, not a review nit.
docs-gate:
	$(GO) run ./cmd/docs-gate

# reach is the reachability census (scripts/reach.sh). It builds every
# cmd/ binary and bench/ with coverage counters, runs the invocations
# README and EXPERIMENTS document (the six bench/ workloads untraced and
# traced, every experiment id at small sizes, the mrhs-sim runbook,
# every mrhs-server endpoint with a mixed-tolerance burst), merges the
# profiles and fails on a package under internal/ that no binary links
# (it would be missing from the profile, not reported), and on a
# function under internal/ that none of them entered unless
# scripts/reach.allow gives it one reason from a closed set (oracle,
# noavx2, failure, fault, fixture), and on a stale allowlist entry.
# Binaries, profiles and outputs go to .reach/; nothing is timed.
reach:
	GO=$(GO) bash scripts/reach.sh

# The second line cross-vets the packages with assembly for an
# architecture that has none, so their _noasm/_other files cannot rot;
# the third fails when any file is not gofmt-clean.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpufeat/ ./internal/bcrs/ ./internal/multivec/ ./internal/solver/ ./internal/hydro/ ./internal/chebyshev/
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
	$(GO) test -race -short ./internal/bcrs/ ./internal/multivec/ ./internal/parallel/ ./internal/serve/ ./internal/obs/ ./internal/solver/ ./internal/hydro/ ./internal/neighbor/ ./internal/sd/ ./internal/core/ ./internal/chebyshev/

# chaos runs the fault-injection and recovery tests — seeded chaos
# runs must reproduce clean-run trajectories bitwise — under -race,
# since the faulty transport is the most concurrent code in the tree.
chaos:
	$(GO) test -race -run 'Chaos|Recovery|Fault|Backoff|Crash' ./internal/cluster/... ./internal/core/ ./internal/sd/ ./internal/solver/

# fuzz-faults fuzzes faults.Parse — the value of mrhs-sim -faults —
# for ten seconds: no panic, an accepted plan prints to a spec that
# parses back to itself, and its injector answers.
fuzz-faults:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/cluster/faults/

# fuzz-neighbor fuzzes the assembly chain's geometry, ten seconds per
# target: neighbor.Wrap and MinImage return for any float64 coordinate
# and box (they used to loop once per box length, forever on an
# infinity) and keep the bits of the bare add/subtract loops within two
# boxes; neighbor.Image is MinImage of the difference of two wrapped
# coordinates, bit for bit; hydro's assembler is the Builder oracle and
# its own Go candidate pass, bit for bit, on small hostile systems and
# options stepped along a walk; and the AVX2 candidate pass's logarithm
# is math.Log, bit for bit, wherever its domain guard lets a lane
# through, which is exactly at the positive normal numbers.
fuzz-neighbor:
	$(GO) test -run '^$$' -fuzz '^FuzzWrapTerminates$$' -fuzztime 10s ./internal/neighbor/
	$(GO) test -run '^$$' -fuzz '^FuzzImageMatchesMinImage$$' -fuzztime 10s ./internal/neighbor/
	$(GO) test -run '^$$' -fuzz '^FuzzAssemblerMatchesOracle$$' -fuzztime 10s ./internal/hydro/
	$(GO) test -run '^$$' -fuzz '^FuzzLogLanesMatchArchLog$$' -fuzztime 10s ./internal/hydro/

# fuzz-sqrt fuzzes chebyshev.PrecondInvSqrt's force (A*M^{-1} times the
# root, what every default step draws) for ten seconds over small SPD
# block matrices seen through the IC(0) factor of a drifted copy, at one
# to five columns, with a NaN, an infinity or a negative diagonal entry
# planted in the operator or a NaN in the noise on request: it returns,
# stays within its cap, and every column's force meets the tolerance
# against the dense oracle and equals the column run alone, or it fails
# with ErrNotSPD — which a planted fault must produce. The target keeps
# the name FuzzPrecondSqrt, and its committed corpus under
# internal/chebyshev/testdata replays with every go test.
fuzz-sqrt:
	$(GO) test -run '^$$' -fuzz '^FuzzPrecondSqrt$$' -fuzztime 10s ./internal/chebyshev/

# fuzz-blockcg fuzzes solver.BlockCG for ten seconds on blocks built
# from a recipe of fresh, copied, 10^k-scaled, zero and summed columns:
# every column meets the tolerance by its true residual, with Err ==
# nil and no more iterations than the block of its independent columns
# takes, plain or through IC(0); a NaN or an infinity planted in
# B must end it with ErrBreakdown.
fuzz-blockcg:
	$(GO) test -run '^$$' -fuzz '^FuzzBlockCGDependentColumns$$' -fuzztime 10s ./internal/solver/

# fuzz-serve fuzzes the HTTP API for ten seconds: an arbitrary body
# POSTed to /v1/solve and /v1/ensemble of a small engine must answer
# 200, 400, 413, 422, 429 or 504 with a JSON body, within a fixed
# deadline, a 200's vectors must have length N, and no 200 may answer a
# body with a field the endpoint does not have.
fuzz-serve:
	$(GO) test -run '^$$' -fuzz '^FuzzHandler$$' -fuzztime 10s ./internal/serve/

# fuzz-checkpoint fuzzes checkpoint.Load for ten seconds on arbitrary
# bytes: it returns, and a state it accepts with at most 64 particles
# builds a simulation that takes one step without a panic — a hostile
# snapshot is ErrCorrupt at Load, not a panic in the stepper.
fuzz-checkpoint:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/checkpoint/

# serial runs the full suite pinned to one OS thread: the worker pool,
# which defaults to GOMAXPROCS threads, starts serial, and must produce
# identical results (and never deadlock) when the runtime has no
# parallelism to give it. -count=1 because the test cache does not key
# on GOMAXPROCS (the runtime reads it, not the tests), so a cached pass
# from the default pool would stand in for this one.
serial:
	GOMAXPROCS=1 $(GO) test -count=1 ./...

# wide runs the packages a multiply reaches with a four-thread default
# pool, more threads than a two-core host has cores. How many parts an
# op splits into is the pool's split rule (internal/parallel): the
# split tests (TestThreadedMatchesSerial, TestMultiCGBitwiseAcrossThreads,
# TestColumnSweepsIgnoreThreadCount and the like) use inputs that
# stream enough to split and fail when a pooled run dispatched nothing,
# so here they run on up to sixteen parts. Served, distributed and
# batched solves must keep their pinned bits and their allocation
# contracts there too. -count=1 as in serial.
wide:
	GOMAXPROCS=4 $(GO) test -count=1 ./internal/bcrs/ ./internal/solver/ ./internal/serve/ ./internal/cluster/... ./internal/multivec/

# noavx512 runs the kernel packages' tests with AVX-512 compiled out
# (cpufeat/noavx512.go): on a host that has it, the m = 8k multiplies
# and everything built on them otherwise never reach the AVX2 row
# kernel, and the half storage's AVX2 row kernel runs only the last
# m % 8 columns, so the oracles and the whole-solve pins would cover
# one of the two; the same holds for the IC(0) block sweeps, whose
# AVX-512 kernels take every width, so the served suite runs here too.
# There is no flag or environment variable for this; the build tag is
# the switch. -count=1 as in serial.
noavx512:
	$(GO) test -tags noavx512 -short -count=1 ./internal/cpufeat/ ./internal/bcrs/ ./internal/multivec/ ./internal/solver/ ./internal/serve/

# fma runs the packages whose Go loops are the reduction kernels'
# oracles built for x86-64-v3, where the compiler fuses a multiply and
# an add unless the product is spelled float64(x*y): a loop that fuses
# rounds once where the assembly rounds twice, and its bitwise test
# against the kernel fails. -count=1 as in serial.
fma:
	GOAMD64=v3 $(GO) test -count=1 ./internal/multivec/ ./internal/solver/ ./internal/chebyshev/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# experiments regenerates experiments_output.txt, the only committed
# paper-table artifact: every table and figure of the evaluation plus
# the ext-* extensions at default sizes (about two and a half minutes on two
# cores). EXPERIMENTS.md records the host and commit it was produced at.
experiments:
	$(GO) run ./cmd/experiments -run all > experiments_output.txt

# trajectory runs every benchmark workload once at seed 1 and writes
# BENCH_trajectory.json (scripts/trajectory.sh): the commit, a dirty
# flag, the Go version, a host fingerprint, and per workload the
# report line and the digests. About three minutes on two cores; the
# file is committed as the perf record of the tree it ran on.
trajectory:
	bash scripts/trajectory.sh

# serve-smoke runs the batching-server suite (engine + HTTP) under
# -race: the dispatcher/submitter handoff and the drain path are the
# concurrency-heavy parts, and the bitwise batched-vs-unbatched
# equivalence test is the serving layer's core guarantee.
serve-smoke:
	$(GO) test -race -run 'TestServe' ./internal/serve/
