package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
)

// TestServeSymmetricOperator runs the engine over the half-storage
// symmetric operator: solves must converge against the FULL matrix's
// residual (the half storage is an implementation detail, not a
// different linear system), repeated identical requests must be
// bitwise-reproducible, and the engine must report its symmetry.
func TestServeSymmetricOperator(t *testing.T) {
	a := testMatrix()
	sm, err := bcrs.NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	const tol = 1e-9

	e := NewEngine(sm, Config{Tol: tol, MaxIter: 500, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())
	if !e.Symmetric() {
		t.Fatal("engine over SymMatrix does not report Symmetric")
	}

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
			t.Fatalf("symmetric serve not reproducible at %d: %v vs %v", i, r1.X[i], r2.X[i])
		}
	}
}

// TestServeInfoSymmetric checks that /v1/info advertises half-storage
// operators so clients (and the runbook's curl checks) can tell which
// kernel family is serving them.
func TestServeInfoSymmetric(t *testing.T) {
	a := testMatrix()
	sm, err := bcrs.NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *Engine
		want bool
	}{
		{"general", NewEngine(a, Config{}), false},
		{"symmetric", NewEngine(sm, Config{}), true},
	} {
		srv := httptest.NewServer(Handler(tc.eng))
		resp, err := http.Get(srv.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		var info Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		tc.eng.Close(context.Background())
		if info.Symmetric != tc.want {
			t.Fatalf("%s: /v1/info symmetric = %v, want %v", tc.name, info.Symmetric, tc.want)
		}
	}
}
