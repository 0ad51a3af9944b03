package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
)

// similarRHS builds right-hand sides sharing a dominant component — a
// fixed base plus a small per-request perturbation — the cross-batch
// regime recycling is built for.
func similarRHS(n int, i int) []float64 {
	b := testRHS(n, 4242)
	p := testRHS(n, uint64(7000+i))
	for j := range b {
		b[j] += 0.05 * p[j]
	}
	return b
}

// relResidual returns ||A x - b|| / ||b||, the ground-truth check that
// a recycled solve really hit its tolerance.
func relResidual(a *bcrs.Matrix, x, b []float64) float64 {
	y := make([]float64, len(x))
	a.MulVec(y, x)
	var num, den float64
	for j := range y {
		d := y[j] - b[j]
		num += d * d
		den += b[j] * b[j]
	}
	return math.Sqrt(num / den)
}

// TestServeRecycleCrossBatchWarmStart: sequential similar requests
// must get cheaper as the basis fills — later corrected solves take
// strictly fewer iterations than the cold first one — while every
// answer still meets its tolerance against the actual matrix.
func TestServeRecycleCrossBatchWarmStart(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const tol = 1e-8
	e := NewEngine(a, Config{Tol: tol, MaxIter: 500, RecycleK: 8, TraceSample: -1})
	defer e.Close(context.Background())

	const nreq = 10
	iters := make([]int, nreq)
	for i := 0; i < nreq; i++ {
		b := similarRHS(n, i)
		r, err := e.Submit(context.Background(), Req{B: b})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stats.Converged {
			t.Fatalf("request %d did not converge", i)
		}
		if res := relResidual(a, r.X, b); res > 10*tol {
			t.Fatalf("request %d true residual %g, want <= %g", i, res, 10*tol)
		}
		iters[i] = r.Stats.Iterations
	}
	if iters[nreq-1] >= iters[0] {
		t.Fatalf("recycling saved nothing: cold %d iterations, warm %d (all: %v)",
			iters[0], iters[nreq-1], iters)
	}
	st := e.RecycleStats()
	if st.K != 8 || st.BasisSize == 0 || st.Builds == 0 || st.Corrections == 0 {
		t.Fatalf("recycler never engaged: %+v", st)
	}
	if st.HitRate <= 0 || st.HitRate > 1 {
		t.Fatalf("hit rate %g out of (0, 1]", st.HitRate)
	}
}

// TestServeRecycleRepackRetirementSafety: a corrected fused batch with
// wildly mixed tolerances retires columns at different iterations and
// repacks the survivors mid-solve; every answer must still meet its own
// tolerance. Two waves make the second one run fully corrected.
func TestServeRecycleRepackRetirementSafety(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, RecycleK: 6,
		MaxWait: 50 * time.Millisecond, TraceSample: -1})
	defer e.Close(context.Background())

	tols := []float64{1e-3, 1e-5, 1e-7, 1e-9, 1e-4, 1e-6, 1e-8, 1e-10}
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		results := make([]Result, len(tols))
		errs := make([]error, len(tols))
		bsav := make([][]float64, len(tols))
		for i := range tols {
			bsav[i] = similarRHS(n, 100*wave+i)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = e.Submit(context.Background(),
					Req{B: bsav[i], Tol: tols[i]})
			}(i)
		}
		wg.Wait()
		for i := range tols {
			if errs[i] != nil {
				t.Fatalf("wave %d request %d: %v", wave, i, errs[i])
			}
			if !results[i].Stats.Converged {
				t.Fatalf("wave %d request %d did not converge", wave, i)
			}
			if res := relResidual(a, results[i].X, bsav[i]); res > 10*tols[i] {
				t.Fatalf("wave %d request %d true residual %g, want <= %g (batch %d)",
					wave, i, res, 10*tols[i], results[i].BatchSize)
			}
		}
	}
	if st := e.RecycleStats(); st.Corrections == 0 {
		t.Fatalf("second wave was never corrected: %+v", st)
	}
}

// TestServeRecycleShardInvalidation: a shard crash re-partitions the
// fleet mid-run; the next dispatch must drop the basis built against
// the old layout (generation check) and keep answering correctly.
func TestServeRecycleShardInvalidation(t *testing.T) {
	cfg := Config{Tol: 1e-8, MaxIter: 800, Shards: 2, RecycleK: 4, TraceSample: -1}
	cfg.ShardOpts.Faults = mustPlan(t, "crash:node=1,at=40").NewInjector(3)
	cfg.ShardOpts.Retry = fastRetry(1)
	a := testMatrix()
	e := NewEngine(a, cfg)
	defer e.Close(context.Background())
	n := e.N()

	for i := 0; i < 8; i++ {
		b := similarRHS(n, 500+i)
		r, err := e.Submit(context.Background(), Req{B: b})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !r.Stats.Converged {
			t.Fatalf("request %d did not converge", i)
		}
		if res := relResidual(a, r.X, b); res > 1e-7 {
			t.Fatalf("request %d true residual %g", i, res)
		}
	}
	if !e.ShardDegraded() {
		t.Fatal("crash rule never fired; test exercises nothing")
	}
	st := e.RecycleStats()
	if st.Invalidations < 1 {
		t.Fatalf("re-partition did not invalidate the basis: %+v", st)
	}
	if st.Corrections == 0 {
		t.Fatalf("recycling never re-engaged after invalidation: %+v", st)
	}
}

// TestServeRecycleInfo: /v1/info carries the recycle block with the
// configured budget and live hit rate once requests have flowed.
func TestServeRecycleInfo(t *testing.T) {
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, RecycleK: 5, TraceSample: -1})
	base := "http://" + s.Addr()
	n := s.Engine.N()

	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, base+"/v1/solve", SolveRequest{B: similarRHS(n, 800+i), OmitX: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	var info Info
	if resp, data := getBody(t, base+"/v1/info"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/info status %d", resp.StatusCode)
	} else if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Recycle == nil {
		t.Fatal("/v1/info lacks the recycle block with RecycleK set")
	}
	if info.Recycle.K != 5 || info.Recycle.Corrections == 0 || info.Recycle.HitRate <= 0 {
		t.Fatalf("recycle block = %+v", info.Recycle)
	}

	// A recycling-off server must omit the block entirely.
	s2 := startTestServer(t, Config{Tol: 1e-8, TraceSample: -1})
	var info2 Info
	if _, data := getBody(t, "http://"+s2.Addr()+"/v1/info"); json.Unmarshal(data, &info2) != nil {
		t.Fatal("bad /v1/info JSON")
	} else if info2.Recycle != nil {
		t.Fatalf("recycling-off /v1/info still has recycle block: %+v", info2.Recycle)
	}
}
