// Command mrhs-server runs the MRHS batching solve server: an HTTP
// API that coalesces concurrent solve requests into multi-right-hand-
// side batches sized to the specialized GSPMV kernels.
//
// The operator is either a synthetic SPD block matrix (-matrix random)
// or an assembled Stokesian-dynamics resistance matrix (-matrix sd).
//
// Examples:
//
//	mrhs-server -addr :8707 -matrix random -nb 2000 -bpr 6
//	mrhs-server -matrix sd -n 500 -phi 0.30
//	mrhs-server -shards 4 -threads 4           # RCB shard engines, threads split across shards
//	mrhs-server -shards 4 -shard-faults chaos  # chaos-inject the halo transport
//	curl -s localhost:8707/v1/solve -d '{"seed":1,"omit_x":true}'
//	curl -s localhost:8707/v1/ensemble -d '{"members":8,"seed":1,"omit_x":true}'
//
// SIGINT/SIGTERM triggers a graceful drain: new requests get 503,
// queued batches are flushed and answered, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cluster/faults"
	"repro/internal/hydro"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/sd"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/solver"
)

func main() {
	var (
		addr = flag.String("addr", ":8707", "listen address for the solve API")

		matrix = flag.String("matrix", "random", "operator source: random (synthetic SPD) or sd (resistance matrix)")
		nb     = flag.Int("nb", 2000, "random: block rows")
		bpr    = flag.Float64("bpr", 6, "random: target blocks per row")
		mseed  = flag.Uint64("mseed", 1, "random: generator seed")
		np     = flag.Int("n", 500, "sd: particle count")
		phi    = flag.Float64("phi", 0.30, "sd: volume occupancy")

		threads    = flag.Int("threads", 1, "host kernel-thread budget (split evenly across shards when -shards > 0)")
		shards     = flag.Int("shards", 0, "partition the operator into this many RCB shard engines (0: unsharded; incompatible with -symmetric)")
		shardFault = flag.String("shard-faults", "", "fault spec armed on the shard halo transport (e.g. \"chaos\" or \"drop:rate=0.05\")")
		shardSeed  = flag.Uint64("shard-fault-seed", 1, "seed for the shard fault injector")
		shardPol   = flag.String("shard-policy", "shrink", "shard crash policy: shrink (re-partition over survivors) or restart (rebuild the same partition)")
		symmetric  = flag.Bool("symmetric", false, "serve through half-storage symmetric GSPMV (halves matrix traffic)")
		tol        = flag.Float64("tol", 1e-6, "default relative-residual tolerance")
		maxIter    = flag.Int("max-iter", 1000, "default iteration cap")
		maxBatch   = flag.Int("max-batch", 32, "max right-hand sides per dispatch")
		queueCap   = flag.Int("queue-cap", 0, "admission queue bound (0: 4*max-batch)")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "hard cap on the batching window")
		waitFactor = flag.Float64("wait-factor", 1.5, "latency stretch allowed to reach the next kernel size")
		ensemble   = flag.Int("ensemble", 4, "default member count for /v1/ensemble requests that give only a seed")
		useModel   = flag.Bool("model", true, "calibrate this host and drive the batching window with the r(m) cost model")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof separately on this address")
		traceJSONL  = flag.String("trace-jsonl", "", "append every finished request trace as one JSON line to this file")
		traceSample = flag.Int("trace-sample", 1, "trace every Nth engine-level request (HTTP requests are always traced; <0 disables engine-started traces)")
	)
	flag.Parse()

	parallel.SetThreads(*threads)

	var a *bcrs.Matrix
	var pos []blas.Vec3 // spatial embedding for RCB sharding, when one exists
	switch *matrix {
	case "random":
		a = bcrs.Random(bcrs.RandomOptions{NB: *nb, BlocksPerRow: *bpr, Seed: *mseed})
	case "sd":
		sys, err := particles.New(particles.Options{N: *np, Phi: *phi, Seed: *mseed})
		if err != nil {
			fail(err)
		}
		a = sd.NewConf(sys, hydro.Options{}, *threads).Build()
		pos = sys.Pos
	default:
		fail(fmt.Errorf("unknown -matrix %q (want random or sd)", *matrix))
	}
	a.SetThreads(*threads)

	// The engine only needs the multiply surface, so the half-storage
	// extraction swaps in transparently; /v1/info reports it.
	var op solver.BlockOperator = a
	if *symmetric {
		sm, err := bcrs.NewSym(a)
		if err != nil {
			fail(err)
		}
		op = sm
	}

	cfg := serve.Config{
		Tol:             *tol,
		MaxIter:         *maxIter,
		MaxBatch:        *maxBatch,
		QueueCap:        *queueCap,
		MaxWait:         *maxWait,
		WaitFactor:      *waitFactor,
		TraceSample:     *traceSample,
		DefaultEnsemble: *ensemble,
	}
	if *shards > 0 {
		if *symmetric {
			fail(fmt.Errorf("-shards is incompatible with -symmetric (shard strips re-slice plain block storage)"))
		}
		if *shards > a.NB() {
			fail(fmt.Errorf("-shards %d exceeds the %d block rows", *shards, a.NB()))
		}
		cfg.Shards = *shards
		cfg.ShardOpts = shard.Options{
			Pos:     pos, // nil for random matrices: RCB falls back to nnz-balanced strips
			Threads: *threads,
			Policy:  shard.Policy(*shardPol),
		}
		if cfg.ShardOpts.Policy != shard.PolicyShrink && cfg.ShardOpts.Policy != shard.PolicyRestart {
			fail(fmt.Errorf("unknown -shard-policy %q (want shrink or restart)", *shardPol))
		}
		if *shardFault != "" {
			spec := *shardFault
			if spec == "chaos" {
				spec = faults.ChaosSpec
			}
			plan, err := faults.Parse(spec)
			if err != nil {
				fail(err)
			}
			cfg.ShardOpts.Faults = plan.NewInjector(*shardSeed)
			fmt.Printf("shard faults: %s (seed %d)\n", plan, *shardSeed)
		}
		fmt.Printf("shards: %d engines, policy %s, threads %d split across shards\n",
			*shards, cfg.ShardOpts.Policy, *threads)
	} else if *shardFault != "" || *shardPol != "shrink" {
		fail(fmt.Errorf("-shard-faults/-shard-policy require -shards > 0"))
	}
	if *useModel {
		mc := perf.CalibratedMachine()
		cfg.Model = &model.GSPMV{
			Machine: mc,
			Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
			K:       model.DefaultK,
		}
		fmt.Printf("model: B=%.2f GB/s F=%.2f Gflop/s\n", mc.B/1e9, mc.F/1e9)
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving on http://%s/metrics\n", srv.Addr())
	}

	if *traceJSONL != "" {
		f, err := os.OpenFile(*traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		log := obs.NewEventLog(f) // mutexed + buffered JSONL writer
		defer log.Close()
		obs.DefaultTracer.SetSink(func(td obs.TraceData) {
			log.Emit("trace", map[string]any{"trace": td})
			log.Flush() // request-scale cadence: keep the file tailable
		})
		defer obs.DefaultTracer.SetSink(nil)
		fmt.Printf("traces: appending JSONL to %s\n", *traceJSONL)
	}

	s, err := serve.Start(*addr, serve.NewEngine(op, cfg))
	if err != nil {
		fail(err)
	}
	fmt.Printf("mrhs-server: n=%d nnzb=%d max-batch=%d threads=%d symmetric=%v on http://%s\n",
		a.N(), a.NNZB(), cfg.MaxBatch, *threads, *symmetric, s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mrhs-server: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fail(err)
	}
	fmt.Println("mrhs-server: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mrhs-server:", err)
	os.Exit(1)
}
