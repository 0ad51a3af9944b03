package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/parallel"
	"repro/internal/solver"
)

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startTestServerMatrix(t, testMatrix(), cfg)
}

func startTestServerMatrix(t *testing.T, a *bcrs.Matrix, cfg Config) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", NewEngine(a, cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeHTTPSolve round-trips a solve over HTTP and checks the
// answer is bitwise-identical to a local unbatched PCG under the IC(0)
// factor the engine shares.
func TestServeHTTPSolve(t *testing.T) {
	const tol = 1e-8
	s := startTestServer(t, Config{Tol: tol, MaxIter: 500})
	base := "http://" + s.Addr()

	a := testMatrix()
	n := a.N()
	b := testRHS(n, 42)
	ref := make([]float64, n)
	refSt := solver.CG(a, ref, b, solver.Options{Tol: tol, MaxIter: 500, Precond: loneIC0(t, a)})

	resp, data := postJSON(t, base+"/v1/solve", SolveRequest{B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Converged || sr.Iterations != refSt.Iterations {
		t.Errorf("converged=%v iterations=%d, want converged with %d iterations",
			sr.Converged, sr.Iterations, refSt.Iterations)
	}
	if len(sr.X) != n {
		t.Fatalf("x has length %d, want %d", len(sr.X), n)
	}
	for i := range ref {
		if sr.X[i] != ref[i] {
			t.Fatalf("x[%d] = %v over HTTP, %v locally: not bitwise-identical", i, sr.X[i], ref[i])
		}
	}

	// Seeded right-hand sides resolve to the same deterministic vector
	// the client would generate, so a seeded request must match a
	// local solve of testRHS with that seed.
	seed := uint64(42)
	resp, data = postJSON(t, base+"/v1/solve", SolveRequest{Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeded solve status %d: %s", resp.StatusCode, data)
	}
	var sr2 SolveResponse
	if err := json.Unmarshal(data, &sr2); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if sr2.X[i] != ref[i] {
			t.Fatalf("seeded x[%d] = %v, want %v", i, sr2.X[i], ref[i])
		}
	}

	// omit_x strips the solution.
	resp, data = postJSON(t, base+"/v1/solve", SolveRequest{B: b, OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("omit_x solve status %d", resp.StatusCode)
	}
	var sr3 SolveResponse
	if err := json.Unmarshal(data, &sr3); err != nil {
		t.Fatal(err)
	}
	if sr3.X != nil {
		t.Error("omit_x response still carries x")
	}
}

// TestServeHTTPErrors pins the status-code mapping.
func TestServeHTTPErrors(t *testing.T) {
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500})
	base := "http://" + s.Addr()
	n := s.Engine.N()

	resp, err := http.Get(base + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, base+"/v1/solve", SolveRequest{B: []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong dimension = %d, want 400", resp.StatusCode)
	}

	seed := uint64(1)
	resp, _ = postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(n, 1), Seed: &seed})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("b and seed together = %d, want 400", resp.StatusCode)
	}

	// A field the endpoint does not have is a 400 naming it, not a
	// silently ignored typo: "omit" for omit_x would otherwise answer
	// the full solution.
	for _, path := range []string{"/v1/solve", "/v1/ensemble"} {
		resp, body := postJSON(t, base+path, map[string]any{"seed": 1, "omit": true})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"omit\"`) {
			t.Errorf("%s with an unknown field = %d %s, want 400 naming it", path, resp.StatusCode, body)
		}
	}

	// A right-hand side JSON can carry but CG cannot square: 422 for
	// the solve, and for an ensemble holding it.
	huge := testRHS(n, 1)
	huge[0] = 1e200
	resp, body := postJSON(t, base+"/v1/solve", SolveRequest{B: huge})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "breakdown") {
		t.Errorf("overflowing right-hand side = %d %s, want 422", resp.StatusCode, body)
	}
	resp, body = postJSON(t, base+"/v1/ensemble", EnsembleRequest{Bs: [][]float64{testRHS(n, 2), huge}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("ensemble with an overflowing member = %d %s, want 422", resp.StatusCode, body)
	}

	// A body longer than any legal request is cut off at the limit: 413
	// from each endpoint, although the JSON inside it is valid.
	for path, vectors := range map[string]int{"/v1/solve": 1, "/v1/ensemble": s.Engine.Config().MaxBatch} {
		pad := strings.Repeat(" ", n*vectors*bytesPerNumber+8<<10)
		resp, err = http.Post(base+path, "application/json", strings.NewReader(`{"seed":1`+pad+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize body to %s = %d, want 413", path, resp.StatusCode)
		}
	}

	// An over-wide ensemble is refused before its right-hand sides are
	// generated: the request may not cost the n floats per seed.
	seeds := make([]uint64, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body = postJSON(t, base+"/v1/ensemble", EnsembleRequest{Seeds: seeds})
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "wider than max batch") {
		t.Errorf("over-wide seed list = %d %s, want 400 too wide", resp.StatusCode, body)
	}
	if got, rhs := after.TotalAlloc-before.TotalAlloc, uint64(len(seeds)*n*8); got > rhs/4 {
		t.Errorf("over-wide seed list allocated %d bytes; generating its right-hand sides takes %d", got, rhs)
	}
	resp, body = postJSON(t, base+"/v1/ensemble", EnsembleRequest{Members: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative member count = %d %s, want 400", resp.StatusCode, body)
	}

	// A 1ms deadline on a hopeless tolerance must come back 504. This
	// needs a system big enough that the recursive residual cannot
	// underflow to exact zero (converging the unreachable tolerance)
	// before the deadline fires, so it gets its own server.
	big := bcrs.Random(bcrs.RandomOptions{NB: 1500, BlocksPerRow: 8, Seed: 6})
	bs := startTestServerMatrix(t, big, Config{Tol: 1e-8, MaxIter: 500})
	resp, _ = postJSON(t, "http://"+bs.Addr()+"/v1/solve", SolveRequest{
		B: testRHS(big.N(), 2), Tol: 1e-300, MaxIter: 1 << 30, TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("deadline expiry = %d, want 504", resp.StatusCode)
	}
}

// TestServeHTTPHealthAndInfo covers the liveness and introspection
// endpoints plus the metrics exposition.
func TestServeHTTPHealthAndInfo(t *testing.T) {
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 8})
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz = %d %s, want 200 ok", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.N != s.Engine.N() || info.MaxBatch != 8 || info.Threads != parallel.Threads() || info.Precond != "ic0" {
		t.Errorf("info = %+v", info)
	}

	// Drive one solve so the serve metrics are non-trivial.
	postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(s.Engine.N(), 3), OmitX: true})
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_requests_total", "serve_batches_total", "serve_request_seconds_p99"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestServeHTTPShutdownDrains: after Shutdown the engine is draining
// and the listener no longer accepts work.
func TestServeHTTPShutdownDrains(t *testing.T) {
	s, err := Start("127.0.0.1:0", NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 500}))
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	resp, data := postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(s.Engine.N(), 11), OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown solve: %d %s", resp.StatusCode, data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !s.Engine.Draining() {
		t.Error("engine not draining after Shutdown")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if _, err := s.Engine.Submit(context.Background(), Req{B: testRHS(s.Engine.N(), 12)}); err == nil {
		t.Error("engine still accepting after Shutdown")
	}
}

// TestServeHTTPConcurrentMixed drives concurrent requests of mixed
// urgency through the full HTTP stack and checks every accepted
// answer against a local reference — the smoke test of the whole
// subsystem.
func TestServeHTTPConcurrentMixed(t *testing.T) {
	const tol = 1e-8
	s := startTestServer(t, Config{Tol: tol, MaxIter: 500, MaxWait: 30 * time.Millisecond})
	base := "http://" + s.Addr()
	a := testMatrix()
	n := a.N()

	const nreq = 10
	ic := loneIC0(t, a)
	refs := make([][]float64, nreq)
	for i := range refs {
		refs[i] = make([]float64, n)
		solver.CG(a, refs[i], testRHS(n, uint64(300+i)), solver.Options{Tol: tol, MaxIter: 500, Precond: ic})
	}

	type out struct {
		i    int
		resp SolveResponse
		code int
	}
	ch := make(chan out, nreq)
	for i := 0; i < nreq; i++ {
		go func(i int) {
			seed := uint64(300 + i)
			resp, data := postJSON(t, base+"/v1/solve", SolveRequest{Seed: &seed})
			var sr SolveResponse
			json.Unmarshal(data, &sr)
			ch <- out{i, sr, resp.StatusCode}
		}(i)
	}
	for k := 0; k < nreq; k++ {
		o := <-ch
		if o.code != http.StatusOK {
			t.Fatalf("request %d: status %d", o.i, o.code)
		}
		for j := range refs[o.i] {
			if o.resp.X[j] != refs[o.i][j] {
				t.Fatalf("request %d: x[%d] differs from local solve (batch %d)",
					o.i, j, o.resp.BatchSize)
			}
		}
	}
}
