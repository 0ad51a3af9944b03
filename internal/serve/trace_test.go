package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitTraceDone polls for a finished trace. The HTTP handlers Finish
// their trace after the response is written (deferred), so a client
// that asks immediately can observe the still-active trace.
func waitTraceDone(t *testing.T, tracer *obs.Tracer, id string) obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		td, ok := tracer.Get(id)
		if ok && td.Done {
			return td
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not finished (found=%v, data=%+v)", id, ok, td)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeTraceHTTPRoundTrip: a client-supplied X-Request-ID is
// echoed on the response and becomes the ID of a complete pipeline
// trace — queue_wait / batch_wait / solve spans plus batch and solver
// attribution — retrievable at /debug/traces?id=.
func TestServeTraceHTTPRoundTrip(t *testing.T) {
	tracer := obs.NewTracer(32, 4)
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, Tracer: tracer})
	base := "http://" + s.Addr()
	n := s.Engine.N()

	const reqID = "trace-roundtrip-1"
	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 42), OmitX: true})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(string(body)))
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != reqID {
		t.Fatalf("echoed %s = %q, want %q", RequestIDHeader, got, reqID)
	}
	waitTraceDone(t, tracer, reqID)

	// Fetch the trace by ID and check the full pipeline is attributed.
	resp, err = http.Get(base + "/debug/traces?id=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id= status %d: %s", resp.StatusCode, data)
	}
	var td obs.TraceData
	if err := json.Unmarshal(data, &td); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, data)
	}
	if td.ID != reqID || !td.Done {
		t.Fatalf("trace id=%q done=%v, want finished %q", td.ID, td.Done, reqID)
	}
	spans := map[string]bool{}
	for _, sp := range td.Spans {
		if sp.DurUS < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
		spans[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "batch_wait", "solve"} {
		if !spans[want] {
			t.Errorf("trace is missing the %s span; spans = %+v", want, td.Spans)
		}
	}
	// JSON numbers decode as float64.
	for _, key := range []string{"batch_size", "kernel_m", "iterations", "cg_iterations"} {
		v, ok := td.Attrs[key].(float64)
		if !ok || v < 1 {
			t.Errorf("attr %s = %v, want >= 1", key, td.Attrs[key])
		}
	}
	// Where the solve span went: its multiplies and the vector work
	// around them, which together cannot exceed the span.
	mulS, _ := td.Attrs["mul_s"].(float64)
	vecS, _ := td.Attrs["vec_s"].(float64)
	var solveUS int64
	for _, sp := range td.Spans {
		if sp.Name == "solve" {
			solveUS = sp.DurUS
		}
	}
	if mulS <= 0 || vecS <= 0 || (mulS+vecS)*1e6 > float64(solveUS)+1 {
		t.Errorf("mul_s=%v vec_s=%v against a solve span of %d us", td.Attrs["mul_s"], td.Attrs["vec_s"], solveUS)
	}
	if td.Attrs["path"] != "/v1/solve" || td.Attrs["http_status"] != float64(http.StatusOK) {
		t.Errorf("attrs path=%v http_status=%v", td.Attrs["path"], td.Attrs["http_status"])
	}
	if td.Attrs["outcome"] != "done" {
		t.Errorf("outcome = %v, want done", td.Attrs["outcome"])
	}

	// The same trace must appear in the list view.
	resp, err = http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Recent  []obs.TraceSummary `json:"recent"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("trace list JSON: %v\n%s", err, data)
	}
	found := false
	for _, s := range list.Recent {
		if s.ID == reqID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in recent list: %s", reqID, data)
	}

	// An unknown ID is a JSON 404, not a panic or empty 200.
	resp, err = http.Get(base + "/debug/traces?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id status %d, want 404", resp.StatusCode)
	}

	// Without a client ID the server generates one and still echoes it.
	resp2, _ := postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(n, 43), OmitX: true})
	if gen := resp2.Header.Get(RequestIDHeader); gen == "" {
		t.Error("no generated X-Request-ID on headerless request")
	} else {
		waitTraceDone(t, tracer, gen)
	}
}

// TestServeTraceErrorResponsesEchoID: rejected requests — bad method,
// bad body, and 503 while draining — still carry the request ID, so
// failures stay attributable in client logs.
func TestServeTraceErrorResponsesEchoID(t *testing.T) {
	e := NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 500, Tracer: obs.NewTracer(8, 2)})
	h := Handler(e)
	n := e.N()

	do := func(method, path, body, id string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if id != "" {
			req.Header.Set(RequestIDHeader, id)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	if w := do(http.MethodGet, "/v1/solve", "", "err-405"); w.Code != http.StatusMethodNotAllowed ||
		w.Header().Get(RequestIDHeader) != "err-405" {
		t.Errorf("405: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}
	if w := do(http.MethodPost, "/v1/solve", "{not json", "err-400"); w.Code != http.StatusBadRequest ||
		w.Header().Get(RequestIDHeader) != "err-400" {
		t.Errorf("400: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}
	// An overlong client ID is truncated, not rejected.
	long := strings.Repeat("x", 500)
	if w := do(http.MethodGet, "/v1/solve", "", long); len(w.Header().Get(RequestIDHeader)) != 128 {
		t.Errorf("overlong ID echoed with length %d, want 128", len(w.Header().Get(RequestIDHeader)))
	}

	// Drain the engine: solves now answer 503, still with the ID.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 1), OmitX: true})
	if w := do(http.MethodPost, "/v1/solve", string(body), "err-503"); w.Code != http.StatusServiceUnavailable ||
		w.Header().Get(RequestIDHeader) != "err-503" {
		t.Errorf("503: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}
}

// TestServeTraceEngineSampling: engine-level Submit (no HTTP, no
// ambient trace) starts and finishes its own sampled traces — how
// an in-process caller gains traces without an HTTP layer.
func TestServeTraceEngineSampling(t *testing.T) {
	tracer := obs.NewTracer(32, 4)
	e := NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 500, Tracer: tracer, TraceSample: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	}()
	n := e.N()

	const nreq = 6
	for i := 0; i < nreq; i++ {
		if _, err := e.Submit(context.Background(), Req{B: testRHS(n, uint64(100+i))}); err != nil {
			t.Fatal(err)
		}
	}
	recent := tracer.Recent(0)
	if len(recent) != nreq/2 {
		t.Fatalf("TraceSample=2 over %d solves retained %d traces, want %d", nreq, len(recent), nreq/2)
	}
	td, ok := tracer.Get(recent[0].ID)
	if !ok {
		t.Fatal("sampled trace not retrievable")
	}
	if !td.Done || td.Attrs["outcome"] != "done" {
		t.Fatalf("sampled trace = %+v, want finished done", td)
	}
	spans := map[string]bool{}
	for _, sp := range td.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "batch_wait", "solve"} {
		if !spans[want] {
			t.Errorf("sampled trace missing %s span: %+v", want, td.Spans)
		}
	}
	if it, _ := td.Attrs["cg_iterations"].(int64); it < 1 {
		t.Errorf("cg_iterations = %v, want >= 1", td.Attrs["cg_iterations"])
	}

	// TraceSample < 0 disables engine-started traces entirely.
	quiet := obs.NewTracer(8, 2)
	e2 := NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 500, Tracer: quiet, TraceSample: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e2.Close(ctx)
	}()
	if _, err := e2.Submit(context.Background(), Req{B: testRHS(n, 200)}); err != nil {
		t.Fatal(err)
	}
	if got := len(quiet.Recent(0)); got != 0 {
		t.Errorf("TraceSample=-1 still produced %d traces", got)
	}
}

// TestServeTraceConcurrentScrape hammers every observability endpoint
// — /metrics, /metrics.json, /debug/traces (list and by-ID) — from
// many goroutines while the engine is actively solving. Run under
// -race (make race-kernels / serve-smoke), this is the test that the
// scrape paths and the recording paths can interleave freely.
func TestServeTraceConcurrentScrape(t *testing.T) {
	tracer := obs.NewTracer(64, 8)
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, Tracer: tracer,
		MaxWait: 2 * time.Millisecond})
	base := "http://" + s.Addr()
	n := s.Engine.N()

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Solvers: keep the dispatcher and tracer busy the whole time.
	const solvers, solvesEach = 4, 6
	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < solvesEach; i++ {
				id := fmt.Sprintf("scrape-%d-%d", g, i)
				body, _ := json.Marshal(SolveRequest{B: testRHS(n, uint64(g*100+i)), OmitX: true})
				req, _ := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(string(body)))
				req.Header.Set(RequestIDHeader, id)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("solve %s: status %d", id, resp.StatusCode)
				}
			}
		}(g)
	}

	// Scrapers: every observability surface, concurrently with solving.
	urls := []string{
		base + "/metrics",
		base + "/metrics.json",
		base + "/debug/traces",
		base + "/debug/traces?n=4",
		base + "/debug/traces?id=scrape-0-0",
	}
	const scrapers, scrapesEach = 5, 20
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < scrapesEach; i++ {
				resp, err := http.Get(urls[(g+i)%len(urls)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 404 is legal for the by-ID probe before its solve lands.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Errorf("scrape %s: status %d", urls[(g+i)%len(urls)], resp.StatusCode)
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every traced solve must have completed into the ring.
	for g := 0; g < solvers; g++ {
		for i := 0; i < solvesEach; i++ {
			waitTraceDone(t, tracer, fmt.Sprintf("scrape-%d-%d", g, i))
		}
	}
}
