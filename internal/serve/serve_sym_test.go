package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
)

// TestServeAnyBlockOperator runs the engine over an operator that is
// not a *bcrs.Matrix — the half-storage symmetric one: solves must
// converge against the full matrix's residual (the storage is the
// operator's business, not the engine's) and repeated identical
// requests must be bitwise-reproducible.
func TestServeAnyBlockOperator(t *testing.T) {
	a := testMatrix()
	sm, err := bcrs.NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	const tol = 1e-9

	e := NewEngine(sm, Config{Tol: tol, MaxIter: 500, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())

	const nreq = 6
	results := make([]Result, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			results[i], err = e.Submit(context.Background(), Req{B: testRHS(n, uint64(500+i))})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Verify each solution against the full general matrix.
	y := make([]float64, n)
	for i, res := range results {
		if !res.Stats.Converged {
			t.Fatalf("request %d did not converge: %+v", i, res.Stats)
		}
		b := testRHS(n, uint64(500+i))
		a.MulVec(y, res.X)
		blas.Sub(y, y, b)
		if r := blas.Nrm2(y) / blas.Nrm2(b); r > 10*tol {
			t.Fatalf("request %d: residual %v against the full matrix", i, r)
		}
	}

	// Bitwise reproducibility: the same request solved again (alone,
	// so the batch composition cannot differ) must match exactly —
	// MultiCG columns are independent, so batch-mates don't perturb it.
	b := testRHS(n, 777)
	r1, err := e.Submit(context.Background(), Req{B: b})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(context.Background(), Req{B: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Float64bits(r1.X[i]) != math.Float64bits(r2.X[i]) {
			t.Fatalf("serve over SymMatrix not reproducible at %d: %v vs %v", i, r1.X[i], r2.X[i])
		}
	}
}
