package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bcrs"
	"repro/internal/cluster/faults"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
)

// shardPoint is the load sweep for one shard count: the same rate
// points as the plain report plus the strip layout the fleet settled
// on.
type shardPoint struct {
	Shards    int         `json:"shards"`
	BlockRows []int       `json:"block_rows"`
	HaloRows  []int       `json:"halo_rows"`
	Rates     []ratePoint `json:"rates"`
	Best      ratePoint   `json:"best"`
}

// chaosResult is the shard-kill run: a crash rule tombstones one
// shard mid-traffic under the shrink policy, and every request must
// still be answered by the degraded fleet.
type chaosResult struct {
	Shards            int    `json:"shards"`
	FaultSpec         string `json:"fault_spec"`
	Solves            int    `json:"solves"`
	Completed         int    `json:"completed"`
	ShardsLive        int    `json:"shards_live"`
	Tombstoned        int    `json:"tombstoned"`
	Degraded          bool   `json:"degraded"`
	CompletedDegraded bool   `json:"completed_degraded"`
}

type shardReport struct {
	N         int     `json:"n"`
	NNZB      int     `json:"nnzb"`
	Threads   int     `json:"threads"`
	Cores     int     `json:"cores"`
	MaxBatch  int     `json:"max_batch"`
	MaxWaitMS float64 `json:"max_wait_ms"`
	Tol       float64 `json:"tol"`

	Baseline baseline     `json:"baseline"`
	Shards   []shardPoint `json:"shards_sweep"`

	// ShardSpeedup is best throughput at the largest swept shard count
	// over best throughput at 1 shard. Shard engines multiply their
	// strips on concurrent goroutines, so the ratio tracks available
	// cores: on a single-core host it cannot exceed ~1 (the sweep then
	// measures routing overhead, not scaling) — read it against Cores.
	ShardSpeedup float64 `json:"shard_speedup"`

	Chaos chaosResult `json:"chaos"`
}

// runShardSweep drives the rate sweep once per shard count on the
// same matrix and baseline, then runs the shard-kill chaos pass at
// the largest count.
func runShardSweep(a *bcrs.Matrix, cfg serve.Config, base baseline, pool [][]float64,
	counts []int, loads []float64, window time.Duration, seed uint64, threads int, jsonPath string) {
	rep := shardReport{
		N: a.N(), NNZB: a.NNZB(), Threads: threads, Cores: runtime.NumCPU(),
		MaxBatch: cfg.MaxBatch, MaxWaitMS: float64(cfg.MaxWait) / float64(time.Millisecond),
		Tol: cfg.Tol, Baseline: base,
	}

	fmt.Printf("%7s %8s %12s %12s %9s %8s %8s %8s %7s\n",
		"shards", "load", "offered/s", "done/s", "speedup", "m̄", "p50ms", "p99ms", "shed%")
	for _, s := range counts {
		scfg := cfg
		scfg.Shards = s
		scfg.ShardOpts = shard.Options{Threads: threads}
		sp := shardPoint{Shards: s}
		// One throwaway fleet to record the strip layout the sweep runs on.
		f, err := shard.New(a, s, scfg.ShardOpts)
		if err != nil {
			fail(err)
		}
		top := f.Topology()
		sp.BlockRows, sp.HaloRows = top.BlockRows, top.HaloRows

		for _, lf := range loads {
			pt := runRate(a, scfg, pool, lf, lf*base.ThroughputRPS, window, seed)
			pt.Speedup = pt.ThroughputRPS / base.ThroughputRPS
			sp.Rates = append(sp.Rates, pt)
			if pt.ThroughputRPS > sp.Best.ThroughputRPS {
				sp.Best = pt
			}
			fmt.Printf("%7d %8.1f %12.1f %12.1f %8.2fx %8.2f %8.2f %8.2f %6.1f%%\n",
				s, lf, pt.OfferedRPS, pt.ThroughputRPS, pt.Speedup, pt.MeanBatch,
				pt.P50ms, pt.P99ms, 100*pt.ShedRate)
		}
		rep.Shards = append(rep.Shards, sp)
	}

	if first, last := rep.Shards[0], rep.Shards[len(rep.Shards)-1]; first.Best.ThroughputRPS > 0 {
		rep.ShardSpeedup = last.Best.ThroughputRPS / first.Best.ThroughputRPS
		fmt.Printf("\nshard speedup: %d shards %.1f solves/s vs %d shard %.1f solves/s -> %.2fx (on %d cores)\n",
			last.Shards, last.Best.ThroughputRPS, first.Shards, first.Best.ThroughputRPS,
			rep.ShardSpeedup, rep.Cores)
	}

	rep.Chaos = runShardChaos(a, cfg, pool, counts[len(counts)-1], threads)
	fmt.Printf("chaos: %d/%d solves completed with %d/%d shards live (tombstoned %d, degraded %v)\n",
		rep.Chaos.Completed, rep.Chaos.Solves, rep.Chaos.ShardsLive, rep.Chaos.Shards,
		rep.Chaos.Tombstoned, rep.Chaos.Degraded)

	writeJSON(jsonPath, rep)
}

// runShardChaos kills one shard mid-traffic (deterministic crash rule
// on the shard transport) and checks the shrunk fleet answers every
// remaining request.
func runShardChaos(a *bcrs.Matrix, cfg serve.Config, pool [][]float64, shards, threads int) chaosResult {
	const spec = "crash:node=1,at=3"
	plan, err := faults.Parse(spec)
	if err != nil {
		fail(err)
	}
	ccfg := cfg
	ccfg.Shards = shards
	ccfg.ShardOpts = shard.Options{
		Threads: threads,
		Faults:  plan.NewInjector(2),
		Policy:  shard.PolicyShrink,
	}
	e := serve.NewEngine(a, ccfg)

	res := chaosResult{Shards: shards, FaultSpec: spec, Solves: 24}
	r := rng.New(99)
	for i := 0; i < res.Solves; i++ {
		b := pool[r.Intn(len(pool))]
		out, err := e.Submit(context.Background(), serve.Req{B: b})
		if err == nil && out.Stats.Converged {
			res.Completed++
		}
	}
	if top, ok := e.ShardTopology(); ok {
		res.ShardsLive, res.Tombstoned = top.Shards, top.Tombstoned
	}
	res.Degraded = e.ShardDegraded()
	res.CompletedDegraded = res.Degraded && res.Completed == res.Solves
	e.Close(context.Background())
	return res
}
