// Command serve-bench is an open-loop load generator for the MRHS
// batching solve server. It drives an in-process serve.Engine with
// Poisson arrivals (deterministic exponential gaps) at a sweep of
// request rates, and reports throughput, exact latency percentiles
// (p50/p95/p99), mean coalesced batch size m̄, and shed rate per
// rate, against a sequential single-RHS CG baseline on the same
// matrix and thread count.
//
// Rates are expressed as load factors relative to the measured
// baseline service rate, so the sweep saturates on any host: a factor
// of 8 offers eight solves per baseline solve time.
//
// Each rate point is tagged with its operating regime so speedup
// numbers are attributable: "underload" means the offered rate was
// below the baseline service rate, where an open-loop generator's
// throughput is bounded by arrivals and speedup < 1 is structural,
// not a server regression.
//
// With -ensemble K1,K2,... the generator switches to ensemble
// traffic: every request carries K right-hand sides submitted
// atomically (the /v1/ensemble path), so the kernel width is >= K by
// construction even when requests never overlap. The load factor
// stays defined against the baseline single-solve rate — an ensemble
// sweep at load 0.5 and K=4 offers the server 2x the baseline member
// rate — which is exactly the low-load regime where plain traffic
// batching regresses and fused ensembles do not.
//
// Examples:
//
//	serve-bench -nb 2000 -load 0.5,2,8,32 -duration 2s -json BENCH_serve.json
//	serve-bench -ensemble 1,4,8,16 -load 0.5,1,1.5 -json BENCH_ensemble.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/solver"
)

type baseline struct {
	Solves        int     `json:"solves"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanIters     float64 `json:"mean_iters"`
}

type ratePoint struct {
	LoadFactor    float64 `json:"load_factor"`
	OfferedRPS    float64 `json:"offered_rps"`
	Offered       int     `json:"offered"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	ShedRate      float64 `json:"shed_rate"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Speedup       float64 `json:"speedup"`
	MeanBatch     float64 `json:"mean_batch"`
	MeanKernelM   float64 `json:"mean_kernel_m"`
	P50ms         float64 `json:"p50_ms"`
	P95ms         float64 `json:"p95_ms"`
	P99ms         float64 `json:"p99_ms"`

	// Regime attributes the speedup number. "underload": offered rate
	// below the baseline service rate, so open-loop throughput is
	// bounded by arrivals and speedup < 1 is structural (batches never
	// fill; see mean_kernel_m). "coalescing": offered at or above the
	// baseline rate with negligible shedding. "saturated": the queue
	// sheds, throughput is the server's capacity.
	Regime string `json:"regime"`
}

// regimeOf classifies a swept rate point for attribution.
func regimeOf(lf, shedRate float64) string {
	switch {
	case shedRate > 0.01:
		return "saturated"
	case lf < 1:
		return "underload"
	default:
		return "coalescing"
	}
}

type report struct {
	N         int     `json:"n"`
	NNZB      int     `json:"nnzb"`
	Threads   int     `json:"threads"`
	MaxBatch  int     `json:"max_batch"`
	MaxWaitMS float64 `json:"max_wait_ms"`
	Tol       float64 `json:"tol"`

	Baseline baseline    `json:"baseline"`
	Rates    []ratePoint `json:"rates"`

	// Best summarizes the highest-throughput rate point: the
	// saturating-load acceptance numbers (speedup >= 2, mean batch
	// >= 4) are read from here.
	Best ratePoint `json:"best"`
}

func main() {
	var (
		nb      = flag.Int("nb", 6000, "block rows of the synthetic SPD matrix")
		bpr     = flag.Float64("bpr", 24, "target blocks per row (24 matches SD resistance matrices)")
		mseed   = flag.Uint64("mseed", 1, "matrix seed")
		threads = flag.Int("threads", 1, "worker-pool threads every multiply splits over (baseline and server alike)")

		tol        = flag.Float64("tol", 1e-6, "relative-residual tolerance")
		maxIter    = flag.Int("max-iter", 2000, "iteration cap")
		maxBatch   = flag.Int("max-batch", 32, "max right-hand sides per dispatch")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "hard cap on the batching window")
		waitFactor = flag.Float64("wait-factor", 1.5, "latency stretch allowed to reach the next kernel size")
		useModel   = flag.Bool("model", true, "drive the batching window with the calibrated r(m) cost model")

		loadsF    = flag.String("load", "0.5,2,8,32", "load factors relative to the baseline service rate")
		ensembleF = flag.String("ensemble", "", "comma-separated member counts K: sweep fused K-wide ensemble requests instead of single-RHS traffic")
		duration  = flag.Duration("duration", 2*time.Second, "offered-arrival window per rate point")
		baseN     = flag.Int("baseline-solves", 12, "sequential solves timed for the baseline")
		rhsPool   = flag.Int("rhs-pool", 64, "distinct right-hand sides cycled through")
		arrivSeed = flag.Uint64("seed", 7, "arrival-process seed")
		jsonPath  = flag.String("json", "BENCH_serve.json", "write the report here")
	)
	flag.Parse()

	parallel.SetThreads(*threads)
	a := bcrs.Random(bcrs.RandomOptions{NB: *nb, BlocksPerRow: *bpr, Seed: *mseed})
	n := a.N()

	pool := make([][]float64, *rhsPool)
	for i := range pool {
		s := rng.New(uint64(1000 + i))
		pool[i] = make([]float64, n)
		for j := range pool[i] {
			pool[i][j] = s.Normal()
		}
	}

	// Baseline: strictly sequential single-RHS CG, the m=1 service
	// the batching server is measured against.
	opt := solver.Options{Tol: *tol, MaxIter: *maxIter}
	x := make([]float64, n)
	var baseIters int
	t0 := time.Now()
	for i := 0; i < *baseN; i++ {
		for j := range x {
			x[j] = 0
		}
		st := solver.CG(a, x, pool[i%len(pool)], opt)
		if !st.Converged {
			fail(fmt.Errorf("baseline solve %d did not converge (residual %g)", i, st.Residual))
		}
		baseIters += st.Iterations
	}
	baseElapsed := time.Since(t0)
	base := baseline{
		Solves:        *baseN,
		ElapsedSec:    baseElapsed.Seconds(),
		ThroughputRPS: float64(*baseN) / baseElapsed.Seconds(),
		MeanIters:     float64(baseIters) / float64(*baseN),
	}
	fmt.Printf("baseline: %d sequential m=1 solves in %.2fs -> %.1f solves/s (%.0f iters/solve)\n",
		base.Solves, base.ElapsedSec, base.ThroughputRPS, base.MeanIters)

	cfg := serve.Config{
		Tol:        *tol,
		MaxIter:    *maxIter,
		MaxBatch:   *maxBatch,
		MaxWait:    *maxWait,
		WaitFactor: *waitFactor,
	}
	if *useModel {
		cfg.Model = &model.GSPMV{
			Machine: perf.CalibratedMachine(),
			Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
			K:       model.DefaultK,
		}
	}

	if *ensembleF != "" {
		rep := ensembleReport{
			N: n, NNZB: a.NNZB(), Threads: *threads,
			MaxBatch: *maxBatch, MaxWaitMS: float64(*maxWait) / float64(time.Millisecond),
			Tol: *tol, Baseline: base,
		}
		fmt.Printf("%4s %8s %12s %12s %9s %8s %8s %8s %7s\n",
			"K", "load", "ens req/s", "members/s", "speedup", "m̄", "p50ms", "p99ms", "shed%")
		for _, k := range mustInts(*ensembleF) {
			if k > *maxBatch {
				fail(fmt.Errorf("-ensemble %d exceeds -max-batch %d", k, *maxBatch))
			}
			for _, lf := range mustFloats(*loadsF) {
				pt := runEnsembleRate(a, cfg, pool, k, lf, lf*base.ThroughputRPS, *duration, *arrivSeed)
				pt.Speedup = pt.MemberRPS / base.ThroughputRPS
				rep.Points = append(rep.Points, pt)
				if pt.LoadFactor < 2 && pt.Speedup > rep.BestLowLoad.Speedup {
					rep.BestLowLoad = pt
				}
				fmt.Printf("%4d %8.1f %12.1f %12.1f %8.2fx %8.2f %8.2f %8.2f %6.1f%%\n",
					k, lf, pt.OfferedRPS, pt.MemberRPS, pt.Speedup, pt.MeanKernelM,
					pt.P50ms, pt.P99ms, 100*pt.ShedRate)
			}
		}
		fmt.Printf("\nbest at load < 2: K=%d load %.1f -> %.2fx over sequential m=1 (kernel m̄ %.2f)\n",
			rep.BestLowLoad.Members, rep.BestLowLoad.LoadFactor,
			rep.BestLowLoad.Speedup, rep.BestLowLoad.MeanKernelM)
		writeJSON(*jsonPath, rep)
		return
	}

	rep := report{
		N: n, NNZB: a.NNZB(), Threads: *threads,
		MaxBatch: *maxBatch, MaxWaitMS: float64(*maxWait) / float64(time.Millisecond),
		Tol: *tol, Baseline: base,
	}

	fmt.Printf("%8s %12s %12s %9s %8s %8s %8s %8s %7s\n",
		"load", "offered/s", "done/s", "speedup", "m̄", "p50ms", "p95ms", "p99ms", "shed%")
	for _, lf := range mustFloats(*loadsF) {
		pt := runRate(a, cfg, pool, lf, lf*base.ThroughputRPS, *duration, *arrivSeed)
		pt.Speedup = pt.ThroughputRPS / base.ThroughputRPS
		rep.Rates = append(rep.Rates, pt)
		if pt.ThroughputRPS > rep.Best.ThroughputRPS {
			rep.Best = pt
		}
		fmt.Printf("%8.1f %12.1f %12.1f %8.2fx %8.2f %8.2f %8.2f %8.2f %6.1f%%\n",
			lf, pt.OfferedRPS, pt.ThroughputRPS, pt.Speedup, pt.MeanBatch,
			pt.P50ms, pt.P95ms, pt.P99ms, 100*pt.ShedRate)
	}

	fmt.Printf("\nbest: %.1f solves/s at load %.1f -> %.2fx over sequential m=1, mean batch %.2f\n",
		rep.Best.ThroughputRPS, rep.Best.LoadFactor, rep.Best.Speedup, rep.Best.MeanBatch)

	writeJSON(*jsonPath, rep)
}

func writeJSON(path string, rep any) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("report: %s\n", path)
}

// ensemblePoint is one (K, load) cell of the ensemble sweep. The load
// factor is the *ensemble-request* rate relative to the baseline
// single-solve rate, so a point at load 0.5 describes a server idler
// than the single-RHS sweep's load 0.5 in request terms — yet it
// carries K times the member work, all fused. Speedup is completed
// member solves per second over the sequential m=1 baseline.
type ensemblePoint struct {
	Members     int     `json:"members"`
	LoadFactor  float64 `json:"load_factor"`
	OfferedRPS  float64 `json:"offered_rps"` // ensemble requests per second
	Offered     int     `json:"offered"`
	Completed   int     `json:"completed"` // ensembles answered whole
	Shed        int     `json:"shed"`      // ensembles shed whole (atomic admission)
	ShedRate    float64 `json:"shed_rate"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	MemberRPS   float64 `json:"member_rps"` // completed member solves per second
	Speedup     float64 `json:"speedup"`    // member_rps / baseline throughput
	MeanKernelM float64 `json:"mean_kernel_m"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	P99ms       float64 `json:"p99_ms"`
	Regime      string  `json:"regime"`
}

type ensembleReport struct {
	N         int     `json:"n"`
	NNZB      int     `json:"nnzb"`
	Threads   int     `json:"threads"`
	MaxBatch  int     `json:"max_batch"`
	MaxWaitMS float64 `json:"max_wait_ms"`
	Tol       float64 `json:"tol"`

	Baseline baseline        `json:"baseline"`
	Points   []ensemblePoint `json:"points"`

	// BestLowLoad is the acceptance point: the highest member-solve
	// speedup among points with load_factor < 2 — the regime where
	// single-RHS traffic batching drops below 1x and structural
	// ensemble fusion must not.
	BestLowLoad ensemblePoint `json:"best_low_load"`
}

// runEnsembleRate offers Poisson ensemble arrivals — each one K
// right-hand sides submitted atomically — at rps requests per second.
func runEnsembleRate(a *bcrs.Matrix, cfg serve.Config, pool [][]float64, k int, lf, rps float64, window time.Duration, seed uint64) ensemblePoint {
	e := serve.NewEngine(a, cfg)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		kernelSum int
		members   int
		shed      int
		completed int
	)
	arrivals := rng.New(seed)
	var schedule []time.Duration
	for t := time.Duration(0); t < window; {
		gap := -math.Log(1-arrivals.Float64()) / rps
		t += time.Duration(gap * float64(time.Second))
		schedule = append(schedule, t)
	}

	var wg sync.WaitGroup
	submit := func(first int) {
		defer wg.Done()
		reqs := make([]serve.Req, k)
		for i := range reqs {
			reqs[i] = serve.Req{B: pool[(first+i)%len(pool)]}
		}
		sub := time.Now()
		rs, err := e.SubmitEnsemble(context.Background(), reqs)
		lat := time.Since(sub)
		mu.Lock()
		defer mu.Unlock()
		switch err {
		case nil:
			completed++
			members += len(rs)
			latencies = append(latencies, lat)
			kernelSum += rs[0].KernelM // one fused dispatch serves all members
		case serve.ErrOverloaded:
			shed++
		}
	}
	offered := 0
	start := time.Now()
	for offered < len(schedule) {
		elapsed := time.Since(start)
		for offered < len(schedule) && schedule[offered] <= elapsed {
			wg.Add(1)
			go submit(offered * k)
			offered++
		}
		if offered < len(schedule) {
			time.Sleep(schedule[offered] - time.Since(start))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	e.Close(context.Background())

	pt := ensemblePoint{
		Members:    k,
		LoadFactor: lf,
		OfferedRPS: float64(offered) / window.Seconds(),
		Offered:    offered,
		Completed:  completed,
		Shed:       shed,
		ElapsedSec: elapsed.Seconds(),
	}
	if offered > 0 {
		pt.ShedRate = float64(shed) / float64(offered)
	}
	pt.Regime = regimeOf(lf, pt.ShedRate)
	if completed > 0 {
		pt.MemberRPS = float64(members) / elapsed.Seconds()
		pt.MeanKernelM = float64(kernelSum) / float64(completed)
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(latencies)-1))
			return float64(latencies[i]) / float64(time.Millisecond)
		}
		pt.P50ms, pt.P95ms, pt.P99ms = q(0.50), q(0.95), q(0.99)
	}
	return pt
}

// runRate offers Poisson arrivals at rps for the window and gathers
// per-request outcomes from a fresh engine.
func runRate(a *bcrs.Matrix, cfg serve.Config, pool [][]float64, lf, rps float64, window time.Duration, seed uint64) ratePoint {
	e := serve.NewEngine(a, cfg)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		batchSum  int
		kernelSum int
		shed      int
		completed int
	)
	// The arrival schedule is laid out up front as absolute offsets
	// (deterministic exponential gaps), and the sender fires every
	// arrival whose time has come before sleeping again — open-loop
	// behavior survives rates far above the sleep granularity.
	arrivals := rng.New(seed)
	var schedule []time.Duration
	for t := time.Duration(0); t < window; {
		gap := -math.Log(1-arrivals.Float64()) / rps
		t += time.Duration(gap * float64(time.Second))
		schedule = append(schedule, t)
	}

	var wg sync.WaitGroup
	submit := func(b []float64) {
		defer wg.Done()
		sub := time.Now()
		res, err := e.Submit(context.Background(), serve.Req{B: b})
		lat := time.Since(sub)
		mu.Lock()
		defer mu.Unlock()
		switch err {
		case nil:
			completed++
			latencies = append(latencies, lat)
			batchSum += res.BatchSize
			kernelSum += res.KernelM
		case serve.ErrOverloaded:
			shed++
		}
	}
	offered := 0
	start := time.Now()
	for offered < len(schedule) {
		elapsed := time.Since(start)
		for offered < len(schedule) && schedule[offered] <= elapsed {
			wg.Add(1)
			go submit(pool[offered%len(pool)])
			offered++
		}
		if offered < len(schedule) {
			time.Sleep(schedule[offered] - time.Since(start))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	e.Close(context.Background())

	pt := ratePoint{
		LoadFactor: lf,
		OfferedRPS: float64(offered) / window.Seconds(),
		Offered:    offered,
		Completed:  completed,
		Shed:       shed,
		ElapsedSec: elapsed.Seconds(),
	}
	if offered > 0 {
		pt.ShedRate = float64(shed) / float64(offered)
	}
	pt.Regime = regimeOf(lf, pt.ShedRate)
	if completed > 0 {
		pt.ThroughputRPS = float64(completed) / elapsed.Seconds()
		pt.MeanBatch = float64(batchSum) / float64(completed)
		pt.MeanKernelM = float64(kernelSum) / float64(completed)
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(latencies)-1))
			return float64(latencies[i]) / float64(time.Millisecond)
		}
		pt.P50ms, pt.P95ms, pt.P99ms = q(0.50), q(0.95), q(0.99)
	}
	return pt
}

func mustInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fail(fmt.Errorf("bad member count %q", f))
		}
		out = append(out, v)
	}
	return out
}

func mustFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fail(fmt.Errorf("bad load factor %q", f))
		}
		out = append(out, v)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "serve-bench:", err)
	os.Exit(1)
}
