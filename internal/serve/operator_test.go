package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/solver"
)

// failingOp multiplies with the matrix, except that its failAt-th
// multiply (counted from 1 over the operator's life) panics: the
// operator failure the engine must contain to the batch in flight.
type failingOp struct {
	inner  *bcrs.Matrix
	failAt int64
	muls   atomic.Int64
}

func (f *failingOp) N() int { return f.inner.N() }

func (f *failingOp) Mul(y, x *multivec.MultiVec) {
	if f.muls.Add(1) == f.failAt {
		panic("injected operator failure")
	}
	f.inner.Mul(y, x)
}

// recordPost runs one POST /v1/solve through the handler with the
// given request ID and returns the recorded response.
func recordPost(h http.Handler, body, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	req.Header.Set(RequestIDHeader, id)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestServeOperatorPanic: a Mul that panics answers the batch in flight
// 500 with a JSON error body and the request's ID, and the engine goes
// on serving: the next request is a 200 whose solution is its lone PCG
// solve bit for bit, so the failed solve left nothing behind in the
// dispatcher's reused workspace.
func TestServeOperatorPanic(t *testing.T) {
	a := testMatrix()
	e := NewEngine(&failingOp{inner: a, failAt: 1}, Config{Tol: 1e-8, MaxIter: 500})
	defer e.Close(context.Background())
	h := Handler(e)
	n := e.N()
	failures := operatorFailed.Value()

	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 41), OmitX: true})
	w := recordPost(h, string(body), "op-fail-500")
	if w.Code != http.StatusInternalServerError || w.Header().Get(RequestIDHeader) != "op-fail-500" {
		t.Fatalf("failed solve: code=%d id=%q body %s", w.Code, w.Header().Get(RequestIDHeader), w.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "operator failed") {
		t.Errorf("failed solve: body %s is not an operator-failure error (%v)", w.Body, err)
	}
	if got := operatorFailed.Value() - failures; got != 1 {
		t.Errorf("serve_operator_failures_total moved by %d, want 1", got)
	}

	b := testRHS(n, 42)
	body, _ = json.Marshal(SolveRequest{B: b})
	w = recordPost(h, string(body), "op-fail-next")
	if w.Code != http.StatusOK || w.Header().Get(RequestIDHeader) != "op-fail-next" {
		t.Fatalf("next solve: code=%d id=%q body %s", w.Code, w.Header().Get(RequestIDHeader), w.Body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || !sr.Converged {
		t.Fatalf("next solve did not converge: %s", w.Body)
	}
	x := make([]float64, n)
	solver.CG(a, x, b, solver.Options{Tol: 1e-8, MaxIter: 500, Precond: loneIC0(t, a)})
	for i := range x {
		if sr.X[i] != x[i] {
			t.Fatalf("next solve: x[%d] = %v, lone PCG %v", i, sr.X[i], x[i])
		}
	}
}

// TestServeOperatorErrorsEchoID: over an operator slow enough to hold
// the dispatcher, a deadline that expires mid-solve (504), a flood
// that overflows the admission queue (429) and a solve after Close
// (503) each echo the client's X-Request-ID.
func TestServeOperatorErrorsEchoID(t *testing.T) {
	// Every multiply sleeps 3 ms, and one request fills the queue.
	op := &sleepyOp{inner: testMatrix(), d: 3 * time.Millisecond}
	e := NewEngine(op, Config{Tol: 1e-10, MaxIter: 2000, MaxBatch: 1, QueueCap: 1, TraceSample: -1})
	h := Handler(e)
	n := e.N()

	// 504: the request's 1 ms deadline expires inside its first multiply.
	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 31), TimeoutMS: 1, OmitX: true})
	if w := recordPost(h, string(body), "op-err-504"); w.Code != http.StatusGatewayTimeout ||
		w.Header().Get(RequestIDHeader) != "op-err-504" {
		t.Errorf("504: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}

	// 429: more concurrent solves than the dispatcher and the queue
	// hold; each one shed echoes its own ID.
	const flood = 8
	var wg sync.WaitGroup
	codes := make([]int, flood)
	ids := make([]string, flood)
	for g := 0; g < flood; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{B: testRHS(n, uint64(700+g)), OmitX: true})
			w := recordPost(h, string(body), fmt.Sprintf("op-err-flood-%d", g))
			codes[g] = w.Code
			ids[g] = w.Header().Get(RequestIDHeader)
		}(g)
	}
	wg.Wait()
	sheds := 0
	for g := 0; g < flood; g++ {
		if ids[g] != fmt.Sprintf("op-err-flood-%d", g) {
			t.Errorf("flood %d: echoed id %q", g, ids[g])
		}
		switch codes[g] {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			sheds++
		default:
			t.Errorf("flood %d: unexpected status %d", g, codes[g])
		}
	}
	if sheds == 0 {
		t.Error("flood produced no 429s; queue never overflowed")
	}

	// 503: a drained engine rejects with the ID intact.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(SolveRequest{B: testRHS(n, 32), OmitX: true})
	if w := recordPost(h, string(body), "op-err-503"); w.Code != http.StatusServiceUnavailable ||
		w.Header().Get(RequestIDHeader) != "op-err-503" {
		t.Errorf("503: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}
}

// TestServeOperatorGoroutines: after solves and Close — a healthy
// operator, and one whose multiply panicked mid-solve — the process is
// back to the goroutine count it started with.
func TestServeOperatorGoroutines(t *testing.T) {
	a := testMatrix()
	n := a.N()
	// Start the process pool's workers before counting.
	solver.CG(a, make([]float64, n), testRHS(n, 39), solver.Options{Tol: 1e-8, MaxIter: 500})
	for _, tc := range []struct {
		name   string
		op     solver.BlockOperator
		failed int // solves answered ErrOperatorFailure
	}{
		{"healthy", a, 0},
		{"panicking", &failingOp{inner: a, failAt: 2}, 1},
	} {
		before := runtime.NumGoroutine()
		e := NewEngine(tc.op, Config{Tol: 1e-8, MaxIter: 800, TraceSample: -1})
		failed := 0
		for i := 0; i < 3; i++ {
			r, err := e.Submit(context.Background(), Req{B: testRHS(n, uint64(40+i))})
			switch {
			case errors.Is(err, ErrOperatorFailure):
				failed++
			case err != nil || !r.Stats.Converged:
				t.Fatalf("%s: solve %d: err=%v converged=%v", tc.name, i, err, r.Stats.Converged)
			}
		}
		if failed != tc.failed {
			t.Errorf("%s: %d solves failed, want %d", tc.name, failed, tc.failed)
		}
		if err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before, %d after Close", tc.name, before, after)
		}
	}
}
