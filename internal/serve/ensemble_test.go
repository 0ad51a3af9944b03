package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/solver"
)

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
}

func ptrU64(v uint64) *uint64 { return &v }

// TestServeEnsembleBitwiseEquivalence: a K-member SubmitEnsemble must
// answer each member bitwise-identically to solving it alone with
// plain CG — the fused dispatch is invisible to results, and its
// kernel width is at least K even with no other traffic.
func TestServeEnsembleBitwiseEquivalence(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const k = 5
	const tol = 1e-8

	e := NewEngine(a, Config{Tol: tol, MaxIter: 500})
	defer e.Close(context.Background())

	reqs := make([]Req, k)
	for i := range reqs {
		reqs[i] = Req{B: testRHS(n, uint64(300+i))}
	}
	rs, err := e.SubmitEnsemble(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != k {
		t.Fatalf("%d results, want %d", len(rs), k)
	}
	for i, r := range rs {
		ref := make([]float64, n)
		st := solver.CG(a, ref, testRHS(n, uint64(300+i)), solver.Options{Tol: tol, MaxIter: 500})
		if !r.Stats.Converged || !st.Converged {
			t.Fatalf("member %d converged=%v ref=%v", i, r.Stats.Converged, st.Converged)
		}
		if r.Stats.Iterations != st.Iterations {
			t.Errorf("member %d iterations %d vs %d", i, r.Stats.Iterations, st.Iterations)
		}
		for j := range ref {
			if r.X[j] != ref[j] {
				t.Fatalf("member %d x[%d] = %v vs %v: not bitwise", i, j, r.X[j], ref[j])
			}
		}
		// The fused dispatch must report the structural width: all K
		// members in one batch, kernel rounded up from >= K.
		if r.BatchSize < k || r.KernelM < solver.KernelCeil(k) {
			t.Errorf("member %d batch=%d kernel=%d, want >= %d / %d",
				i, r.BatchSize, r.KernelM, k, solver.KernelCeil(k))
		}
	}
}

// TestServeEnsembleTooWide: more members than MaxBatch can never fuse
// into one dispatch and must be rejected outright.
func TestServeEnsembleTooWide(t *testing.T) {
	a := testMatrix()
	e := NewEngine(a, Config{MaxBatch: 4})
	defer e.Close(context.Background())
	reqs := make([]Req, 5)
	for i := range reqs {
		reqs[i] = Req{B: testRHS(a.N(), uint64(i))}
	}
	if _, err := e.SubmitEnsemble(context.Background(), reqs); !errors.Is(err, ErrTooWide) {
		t.Fatalf("got %v, want ErrTooWide", err)
	}
	if _, err := e.SubmitEnsemble(context.Background(), nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty ensemble got %v, want ErrBadRequest", err)
	}
}

// TestServeEnsembleAtomicAdmission: an ensemble occupies one queue
// slot and is shed as a unit — under pressure a member subset is
// never solved.
func TestServeEnsembleAtomicAdmission(t *testing.T) {
	op := &sleepyOp{inner: testMatrix(), d: 2 * time.Millisecond}
	n := op.N()
	e := NewEngine(op, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 4, QueueCap: 1})
	defer e.Close(context.Background())

	const nsub = 16
	var wg sync.WaitGroup
	results := make([][]Result, nsub)
	errs := make([]error, nsub)
	for i := 0; i < nsub; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqs := []Req{
				{B: testRHS(n, uint64(2*i))},
				{B: testRHS(n, uint64(2*i+1))},
			}
			results[i], errs[i] = e.SubmitEnsemble(context.Background(), reqs)
		}(i)
	}
	wg.Wait()

	shedCount, okCount := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			okCount++
			if len(results[i]) != 2 {
				t.Fatalf("accepted ensemble answered %d members, want 2", len(results[i]))
			}
			for _, r := range results[i] {
				if r.Err != nil || !r.Stats.Converged {
					t.Fatalf("accepted ensemble member failed: err=%v converged=%v", r.Err, r.Stats.Converged)
				}
			}
		case errors.Is(err, ErrOverloaded):
			shedCount++
			if results[i] != nil {
				t.Fatal("shed ensemble still produced results")
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okCount == 0 || shedCount == 0 {
		t.Fatalf("ok=%d shed=%d: need both outcomes to test atomicity", okCount, shedCount)
	}
}

// TestServeEnsembleCancellation: a dead context cancels the whole
// ensemble.
func TestServeEnsembleCancellation(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500})
	defer e.Close(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []Req{{B: testRHS(n, 1)}, {B: testRHS(n, 2)}}
	if _, err := e.SubmitEnsemble(ctx, reqs); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ensemble returned %v, want ErrCanceled", err)
	}

	// The engine still serves live work afterwards.
	rs, err := e.SubmitEnsemble(context.Background(), reqs)
	if err != nil || !rs[0].Stats.Converged || !rs[1].Stats.Converged {
		t.Fatalf("live ensemble after cancel: err=%v", err)
	}
}

// TestServeEnsembleMixedBatch: ensembles and singles coalesce into
// the same dispatch without exceeding MaxBatch; an ensemble that does
// not fit is carried to the next batch, never split.
func TestServeEnsembleMixedBatch(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 8, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())

	var wg sync.WaitGroup
	var mu sync.Mutex
	var maxBatch int
	submitSingle := func(seed uint64) {
		defer wg.Done()
		r, err := e.Submit(context.Background(), Req{B: testRHS(n, seed)})
		if err != nil {
			t.Errorf("single: %v", err)
			return
		}
		mu.Lock()
		if r.BatchSize > maxBatch {
			maxBatch = r.BatchSize
		}
		mu.Unlock()
	}
	submitEns := func(base uint64, k int) {
		defer wg.Done()
		reqs := make([]Req, k)
		for i := range reqs {
			reqs[i] = Req{B: testRHS(n, base+uint64(i))}
		}
		rs, err := e.SubmitEnsemble(context.Background(), reqs)
		if err != nil {
			t.Errorf("ensemble: %v", err)
			return
		}
		for _, r := range rs {
			if r.BatchSize > 8 {
				t.Errorf("batch size %d exceeds MaxBatch 8", r.BatchSize)
			}
			if r.KernelM < k {
				t.Errorf("ensemble of %d ran at kernel %d", k, r.KernelM)
			}
		}
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go submitSingle(uint64(500 + i))
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go submitEns(uint64(600+10*i), 4)
	}
	wg.Wait()
	if maxBatch > 8 {
		t.Fatalf("a dispatch exceeded MaxBatch: %d", maxBatch)
	}
}

// TestServeHTTPEnsemble round-trips /v1/ensemble and checks member
// results, divergence stats, and the seeds/members request forms.
func TestServeHTTPEnsemble(t *testing.T) {
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500})
	url := "http://" + s.Addr() + "/v1/ensemble"

	resp, data := postJSON(t, url, EnsembleRequest{Seeds: []uint64{7, 8, 9, 10}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er EnsembleResponse
	mustUnmarshal(t, data, &er)
	if len(er.Members) != 4 {
		t.Fatalf("%d members, want 4", len(er.Members))
	}
	for i, m := range er.Members {
		if !m.Converged || len(m.X) != s.Engine.N() {
			t.Fatalf("member %d: converged=%v len(x)=%d", i, m.Converged, len(m.X))
		}
	}
	if er.KernelM < 4 || er.BatchSize < 4 {
		t.Fatalf("kernel_m=%d batch_size=%d, want >= 4", er.KernelM, er.BatchSize)
	}
	if er.MeanRMSD <= 0 || er.MaxRMSD < er.MeanRMSD {
		t.Fatalf("divergence stats mean=%v max=%v", er.MeanRMSD, er.MaxRMSD)
	}

	// members+seed form, solution suppressed.
	resp, data = postJSON(t, url, EnsembleRequest{Members: 2, Seed: ptrU64(11), OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("members form status %d: %s", resp.StatusCode, data)
	}
	er = EnsembleResponse{}
	mustUnmarshal(t, data, &er)
	if len(er.Members) != 2 || er.Members[0].X != nil {
		t.Fatalf("members form: %d members, x suppressed=%v", len(er.Members), er.Members[0].X == nil)
	}

	// Default member count when the body names nothing.
	resp, data = postJSON(t, url, EnsembleRequest{OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default form status %d: %s", resp.StatusCode, data)
	}
	er = EnsembleResponse{}
	mustUnmarshal(t, data, &er)
	if len(er.Members) != 4 { // DefaultEnsemble default
		t.Fatalf("default form members %d, want 4", len(er.Members))
	}
}

// TestServeHTTPEnsembleErrors covers the 400 (too wide / ambiguous /
// bad dimension) and 504 (timeout) paths of /v1/ensemble.
func TestServeHTTPEnsembleErrors(t *testing.T) {
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 4})
	url := "http://" + s.Addr() + "/v1/ensemble"

	if resp, data := postJSON(t, url, EnsembleRequest{Seeds: []uint64{1, 2, 3, 4, 5}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("too-wide status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, url, EnsembleRequest{Seeds: []uint64{1}, Bs: [][]float64{{1}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, url, EnsembleRequest{Bs: [][]float64{{1, 2, 3}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dimension status %d: %s", resp.StatusCode, data)
	}

	// A deadline that cannot cover the solve returns 504 for the whole
	// ensemble.
	resp, data := postJSON(t, url, EnsembleRequest{Seeds: []uint64{1, 2}, TimeoutMS: 1, Tol: 1e-14, MaxIter: 1000000})
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout status %d: %s", resp.StatusCode, data)
	}
}

// TestServeHTTPEnsembleShed: a full queue answers 429 for the whole
// ensemble.
func TestServeHTTPEnsembleShed(t *testing.T) {
	op := &sleepyOp{inner: testMatrix(), d: 5 * time.Millisecond}
	s, err := Start("127.0.0.1:0", NewEngine(op, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 2, QueueCap: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	url := "http://" + s.Addr() + "/v1/ensemble"

	const nsub = 16
	var wg sync.WaitGroup
	codes := make([]int, nsub)
	for i := 0; i < nsub; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, url, EnsembleRequest{Seeds: []uint64{uint64(2 * i), uint64(2*i + 1)}, OmitX: true})
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: need both outcomes", ok, shed)
	}
}
