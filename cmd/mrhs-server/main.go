// Command mrhs-server runs the MRHS batching solve server: an HTTP
// API that coalesces concurrent solve requests into multi-right-hand-
// side batches, each solved by one fused solve exactly as wide as it.
//
// The operator is either a synthetic SPD block matrix (-matrix random)
// or an assembled Stokesian-dynamics resistance matrix (-matrix sd).
//
// Examples:
//
//	mrhs-server -addr :8707 -matrix random -nb 2000 -bpr 6
//	mrhs-server -matrix sd -n 500 -phi 0.30
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
	"repro/internal/hydro"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/sd"
	"repro/internal/serve"
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

		threads  = flag.Int("threads", 0, "worker-pool threads the multiplies split over (0: the pool's default, GOMAXPROCS)")
		tol      = flag.Float64("tol", 1e-6, "default relative-residual tolerance")
		maxIter  = flag.Int("max-iter", 1000, "default iteration cap")
		maxBatch = flag.Int("max-batch", 32, "max right-hand sides per dispatch")
		queueCap = flag.Int("queue-cap", 0, "admission queue bound (0: 4*max-batch)")
		maxWait  = flag.Duration("max-wait", 2*time.Millisecond, "hard cap on the batching window")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof separately on this address")
		traceJSONL  = flag.String("trace-jsonl", "", "append every finished request trace as one JSON line to this file")
		traceSample = flag.Int("trace-sample", 1, "trace every Nth engine-level request (HTTP requests are always traced; <0 disables engine-started traces)")
	)
	flag.Parse()

	if *threads > 0 {
		parallel.SetThreads(*threads)
	}

	var a *bcrs.Matrix
	switch *matrix {
	case "random":
		a = bcrs.Random(bcrs.RandomOptions{NB: *nb, BlocksPerRow: *bpr, Seed: *mseed})
	case "sd":
		sys, err := particles.New(particles.Options{N: *np, Phi: *phi, Seed: *mseed})
		if err != nil {
			fail(err)
		}
		a = sd.NewConf(sys, hydro.Options{}, parallel.Threads()).Build()
	default:
		fail(fmt.Errorf("unknown -matrix %q (want random or sd)", *matrix))
	}

	mc := perf.CalibratedMachine()
	fmt.Printf("model: B=%.2f GB/s F=%.2f Gflop/s\n", mc.B/1e9, mc.F/1e9)
	cfg := serve.Config{
		Tol:      *tol,
		MaxIter:  *maxIter,
		MaxBatch: *maxBatch,
		QueueCap: *queueCap,
		MaxWait:  *maxWait,
		Model: &model.GSPMV{
			Machine: mc,
			Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
			K:       model.DefaultK,
		},
		TraceSample: *traceSample,
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

	s, err := serve.Start(*addr, serve.NewEngine(a, cfg))
	if err != nil {
		fail(err)
	}
	fmt.Printf("mrhs-server: n=%d nnzb=%d max-batch=%d threads=%d on http://%s\n",
		a.N(), a.NNZB(), cfg.MaxBatch, parallel.Threads(), s.Addr())

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
