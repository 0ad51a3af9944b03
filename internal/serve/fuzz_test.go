package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bcrs"
)

// hostileEngine is the small engine the hostile-input tests and
// FuzzHandler drive: N = 150, so a body listing every entry stays short.
func hostileEngine(tb testing.TB) *Engine {
	tb.Helper()
	e := NewEngine(bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 6, Seed: 5}),
		Config{Tol: 1e-8, MaxIter: 500, MaxWait: time.Millisecond})
	tb.Cleanup(func() { e.Close(context.Background()) })
	return e
}

// overflowRHS is a /v1/solve body whose right-hand side JSON carries
// but whose sum of squares overflows.
func overflowRHS(n int) string {
	return `{"b":[1e200` + strings.Repeat(",1", n-1) + `]}`
}

// hostileBodies are request bodies the API must refuse: a right-hand
// side whose square overflows (422), a negative tolerance, iteration
// cap and timeout, and a field no endpoint has (400 each).
func hostileBodies(n int) []string {
	return []string{
		overflowRHS(n),
		`{"seed":1,"tol":-1}`,
		`{"seed":1,"max_iter":-3}`,
		`{"seed":1,"timeout_ms":-5}`,
		`{"seed":1,"omit":true}`,
	}
}

// solvePaths are the endpoints that take a request body.
var solvePaths = []string{"/v1/solve", "/v1/ensemble"}

// TestServeHTTPHostileNumbers pins the answers to numerically hostile
// bodies: a right-hand side whose square overflows is a 422 with a JSON
// error body, and a negative tol, max_iter or timeout_ms a 400 from
// every endpoint.
func TestServeHTTPHostileNumbers(t *testing.T) {
	e := hostileEngine(t)
	h := Handler(e)
	post := func(path, body string) (int, errorBody) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s %.40s: body %q is not JSON: %v", path, body, rec.Body, err)
		}
		return rec.Code, eb
	}
	if code, eb := post("/v1/solve", overflowRHS(e.N())); code != http.StatusUnprocessableEntity || eb.Error == "" {
		t.Errorf("overflowing right-hand side = %d %+v, want 422 with an error", code, eb)
	}
	for _, field := range []string{`"tol":-1`, `"max_iter":-3`, `"timeout_ms":-5`} {
		for _, path := range solvePaths {
			body := `{"seed":1,` + field + `}`
			if code, eb := post(path, body); code != http.StatusBadRequest || eb.Error == "" {
				t.Errorf("%s %s = %d %+v, want 400 with an error", path, body, code, eb)
			}
		}
	}
}

// FuzzHandler posts an arbitrary body to each solve endpoint of a small
// engine. Every answer must carry a status the API documents (200, 400,
// 413, 422, 429 or 504), a body that decodes as JSON, on a 200 vectors
// of length N, and it must arrive within a fixed deadline. A 200 must
// answer a body whose fields are all the endpoint's own.
func FuzzHandler(f *testing.F) {
	e := hostileEngine(f)
	h := Handler(e)
	n := e.N()
	for _, body := range append(hostileBodies(n),
		`{"seed":1}`,
		`{"members":3,"seed":2}`,
		`{"seeds":[1,2],"omit_x":true}`,
		`{"b":[1e300],"bs":[[1]],"tol":1e-300,"max_iter":100000}`,
		`{"seed":1,"tol":5e-324,"max_iter":2000000000}`,
		`{"seed":1} trailing`,
	) {
		f.Add(body)
	}
	const deadline = 10 * time.Second
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range solvePaths {
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			}()
			select {
			case <-done:
			case <-time.After(deadline):
				t.Fatalf("%s %q: no answer within %v", path, body, deadline)
			}
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s %q: status %d (%s)", path, body, rec.Code, rec.Body)
			}
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s %q: status %d, body %q is not JSON: %v", path, body, rec.Code, rec.Body, err)
			}
			if rec.Code == http.StatusOK {
				if err := checkAnswer(path, rec.Body.Bytes(), n); err != nil {
					t.Fatalf("%s %q: %v", path, body, err)
				}
				if err := decodeStrict(path, body); err != nil {
					t.Fatalf("%s %q: 200 for a body the endpoint cannot read whole: %v", path, body, err)
				}
			}
		}
	})
}

// decodeStrict decodes a request body for path, refusing a field its
// request type does not have.
func decodeStrict(path, body string) error {
	var v any = &SolveRequest{}
	if path == "/v1/ensemble" {
		v = &EnsembleRequest{}
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkAnswer decodes a 200 from path and checks that every vector it
// carries has length n. JSON carries no NaN or infinity, so a body that
// decodes holds finite numbers only.
func checkAnswer(path string, data []byte, n int) error {
	var vecs [][]float64
	switch path {
	case "/v1/solve":
		var r SolveResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		vecs = append(vecs, r.X)
	case "/v1/ensemble":
		var r EnsembleResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		if len(r.Members) == 0 {
			return fmt.Errorf("200 with no members")
		}
		for _, m := range r.Members {
			vecs = append(vecs, m.X)
		}
	}
	for _, v := range vecs {
		if v != nil && len(v) != n {
			return fmt.Errorf("vector of length %d, want %d", len(v), n)
		}
	}
	return nil
}
