package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/stats"
)

// SolveRequest is the JSON body of POST /v1/solve. The right-hand
// side is either B (explicit values, length N) or Seed (a
// deterministic standard-normal vector generated server-side, handy
// for load generation without shipping megabytes of JSON).
type SolveRequest struct {
	B         []float64 `json:"b,omitempty"`
	Seed      *uint64   `json:"seed,omitempty"`
	Tol       float64   `json:"tol,omitempty"`
	MaxIter   int       `json:"max_iter,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
	// OmitX suppresses the solution vector in the response (benchmark
	// clients usually only want the stats).
	OmitX bool `json:"omit_x,omitempty"`
}

// SolveResponse is the JSON body answered by POST /v1/solve.
type SolveResponse struct {
	X           []float64 `json:"x,omitempty"`
	Converged   bool      `json:"converged"`
	Iterations  int       `json:"iterations"`
	MatMuls     int       `json:"matmuls"`
	Residual    float64   `json:"residual"`
	BatchSize   int       `json:"batch_size"`
	KernelM     int       `json:"kernel_m"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	SolveMS     float64   `json:"solve_ms"`
}

// SDStepRequest is the JSON body of POST /v1/sdstep: one resolvent
// application of the Stokesian-dynamics update. Given a force vector
// f (explicit F or server-generated from Seed), the server solves
// R u = f for the velocities and returns the displacement dx = dt*u.
type SDStepRequest struct {
	F         []float64 `json:"f,omitempty"`
	Seed      *uint64   `json:"seed,omitempty"`
	Dt        float64   `json:"dt"`
	Tol       float64   `json:"tol,omitempty"`
	MaxIter   int       `json:"max_iter,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
	OmitX     bool      `json:"omit_x,omitempty"`
}

// SDStepResponse is the JSON body answered by POST /v1/sdstep.
type SDStepResponse struct {
	U           []float64 `json:"u,omitempty"`
	Dx          []float64 `json:"dx,omitempty"`
	Converged   bool      `json:"converged"`
	Iterations  int       `json:"iterations"`
	Residual    float64   `json:"residual"`
	BatchSize   int       `json:"batch_size"`
	KernelM     int       `json:"kernel_m"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	SolveMS     float64   `json:"solve_ms"`
}

// EnsembleRequest is the JSON body of POST /v1/ensemble: K
// right-hand sides solved as one atomic fused dispatch (kernel m >= K
// regardless of server load). Exactly one of Bs (explicit vectors),
// Seeds (server-generated standard-normal vectors, one per seed), or
// Members+Seed (Members seeds counted up from Seed; Members defaults
// to the engine's DefaultEnsemble) selects the member set.
type EnsembleRequest struct {
	Bs        [][]float64 `json:"bs,omitempty"`
	Seeds     []uint64    `json:"seeds,omitempty"`
	Members   int         `json:"members,omitempty"`
	Seed      *uint64     `json:"seed,omitempty"`
	Tol       float64     `json:"tol,omitempty"`
	MaxIter   int         `json:"max_iter,omitempty"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
	OmitX     bool        `json:"omit_x,omitempty"`
}

// EnsembleMember is one member's outcome inside an EnsembleResponse.
type EnsembleMember struct {
	X          []float64 `json:"x,omitempty"`
	Converged  bool      `json:"converged"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
}

// EnsembleResponse is the JSON body answered by POST /v1/ensemble.
// MeanRMSD/MaxRMSD summarize the pairwise spread of the member
// solutions (stats.Divergence).
type EnsembleResponse struct {
	Members     []EnsembleMember `json:"members"`
	BatchSize   int              `json:"batch_size"`
	KernelM     int              `json:"kernel_m"`
	QueueWaitMS float64          `json:"queue_wait_ms"`
	SolveMS     float64          `json:"solve_ms"`
	MeanRMSD    float64          `json:"mean_rmsd"`
	MaxRMSD     float64          `json:"max_rmsd"`
}

// Info is the JSON body of GET /v1/info.
type Info struct {
	N          int     `json:"n"`
	MaxBatch   int     `json:"max_batch"`
	QueueCap   int     `json:"queue_cap"`
	MaxWaitMS  float64 `json:"max_wait_ms"`
	WaitFactor float64 `json:"wait_factor"`
	Tol        float64 `json:"tol"`
	HasModel   bool    `json:"has_model"`
	// Symmetric reports a half-storage (bcrs.SymMatrix) operator:
	// every batched GSPMV moves half the matrix bytes.
	Symmetric bool `json:"symmetric"`
	// MaxEnsemble is the widest /v1/ensemble accepted (== MaxBatch);
	// DefaultEnsemble the member count used when a request names none.
	MaxEnsemble     int `json:"max_ensemble"`
	DefaultEnsemble int `json:"default_ensemble"`
	// Shard is the live fleet topology when the engine routes solves
	// across RCB-partitioned shards: live/configured/tombstoned shard
	// counts, the crash policy, and per-shard owned and halo row
	// counts. Absent when unsharded.
	Shard *shard.Topology `json:"shard,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// RequestIDHeader is the request-identity header accepted and echoed
// by the solve endpoints. A client-supplied value becomes the
// request's trace ID; absent one, the server generates an ID. The
// header is echoed on every response, including 429/503/504 errors,
// so a rejected request is still attributable in client logs.
const RequestIDHeader = "X-Request-ID"

// requestID extracts or generates the request identity and stamps it
// on the response before anything is written.
func requestID(e *Engine, w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = e.cfg.Tracer.NewID()
	} else if len(id) > 128 {
		id = id[:128] // bound abusive header sizes in traces and logs
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// Handler returns the engine's HTTP API:
//
//	POST /v1/solve     solve A*x = b (request bodies batch server-side)
//	POST /v1/sdstep    solve R*u = f, answer u and dx = dt*u
//	POST /v1/ensemble  solve K right-hand sides in one fused dispatch
//	GET  /healthz      200 while serving, 503 once draining
//	GET  /v1/info      engine dimensions and batching configuration
//	GET  /metrics      Prometheus text exposition of obs.Default
//	GET  /metrics.json JSON snapshot of obs.Default
//	GET  /debug/traces recent + slowest request traces; ?id= fetches one
//
// Solver outcomes map onto status codes: 400 for malformed bodies,
// dimension mismatches or over-wide ensembles, 413 for a body longer
// than any legal request, 429 when the admission queue sheds, 503 while
// draining, 504 when the request's deadline expired mid-queue or
// mid-solve.
//
// Both solve endpoints accept and echo X-Request-ID (see
// RequestIDHeader) and record a full pipeline trace under that ID:
// queue_wait / batch_wait / solve spans, batch attribution
// (batch, batch_size, kernel_m), solver iteration counts, and the
// HTTP outcome, retrievable at /debug/traces?id=<id>.
func Handler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		id := requestID(e, w, r)
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
			return
		}
		var sr SolveRequest
		if !decodeBody(e, w, r, 1, &sr) {
			return
		}
		b, err := rhsOf(e, sr.B, sr.Seed)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := reqContext(r, sr.TimeoutMS)
		defer cancel()
		tr := e.cfg.Tracer.Start(id)
		tr.SetAttr("path", "/v1/solve")
		defer tr.Finish()
		res, err := e.Submit(obs.ContextWithTrace(ctx, tr), Req{B: b, Tol: sr.Tol, MaxIter: sr.MaxIter})
		if err != nil {
			tr.SetAttr("http_status", int64(statusOf(err)))
			writeErr(w, statusOf(err), err)
			return
		}
		tr.SetAttr("http_status", int64(http.StatusOK))
		resp := SolveResponse{
			Converged:   res.Stats.Converged,
			Iterations:  res.Stats.Iterations,
			MatMuls:     res.Stats.MatMuls,
			Residual:    res.Stats.Residual,
			BatchSize:   res.BatchSize,
			KernelM:     res.KernelM,
			QueueWaitMS: float64(res.QueueWait) / float64(time.Millisecond),
			SolveMS:     float64(res.SolveTime) / float64(time.Millisecond),
		}
		if !sr.OmitX {
			resp.X = res.X
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("/v1/sdstep", func(w http.ResponseWriter, r *http.Request) {
		id := requestID(e, w, r)
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
			return
		}
		var sr SDStepRequest
		if !decodeBody(e, w, r, 1, &sr) {
			return
		}
		if sr.Dt <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("serve: dt must be > 0"))
			return
		}
		f, err := rhsOf(e, sr.F, sr.Seed)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := reqContext(r, sr.TimeoutMS)
		defer cancel()
		tr := e.cfg.Tracer.Start(id)
		tr.SetAttr("path", "/v1/sdstep")
		defer tr.Finish()
		res, err := e.Submit(obs.ContextWithTrace(ctx, tr), Req{B: f, Tol: sr.Tol, MaxIter: sr.MaxIter})
		if err != nil {
			tr.SetAttr("http_status", int64(statusOf(err)))
			writeErr(w, statusOf(err), err)
			return
		}
		tr.SetAttr("http_status", int64(http.StatusOK))
		resp := SDStepResponse{
			Converged:   res.Stats.Converged,
			Iterations:  res.Stats.Iterations,
			Residual:    res.Stats.Residual,
			BatchSize:   res.BatchSize,
			KernelM:     res.KernelM,
			QueueWaitMS: float64(res.QueueWait) / float64(time.Millisecond),
			SolveMS:     float64(res.SolveTime) / float64(time.Millisecond),
		}
		if !sr.OmitX {
			resp.U = res.X
			dx := make([]float64, len(res.X))
			for i, u := range res.X {
				dx[i] = sr.Dt * u
			}
			resp.Dx = dx
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("/v1/ensemble", func(w http.ResponseWriter, r *http.Request) {
		id := requestID(e, w, r)
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
			return
		}
		var er EnsembleRequest
		if !decodeBody(e, w, r, e.cfg.MaxBatch, &er) {
			return
		}
		bs, err := ensembleRHS(e, er)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		reqs := make([]Req, len(bs))
		for i, b := range bs {
			reqs[i] = Req{B: b, Tol: er.Tol, MaxIter: er.MaxIter}
		}
		ctx, cancel := reqContext(r, er.TimeoutMS)
		defer cancel()
		tr := e.cfg.Tracer.Start(id)
		tr.SetAttr("path", "/v1/ensemble")
		defer tr.Finish()
		rs, err := e.SubmitEnsemble(obs.ContextWithTrace(ctx, tr), reqs)
		if err != nil {
			tr.SetAttr("http_status", int64(statusOf(err)))
			writeErr(w, statusOf(err), err)
			return
		}
		// Whole-ensemble cancellation mid-queue surfaces per member;
		// report it as one request-level timeout. A member that broke
		// down fails the ensemble too: its residual may be NaN, which
		// the response cannot carry.
		if err := firstErr(rs); errors.Is(err, ErrCanceled) || errors.Is(err, ErrBreakdown) {
			tr.SetAttr("http_status", int64(statusOf(err)))
			writeErr(w, statusOf(err), err)
			return
		}
		tr.SetAttr("http_status", int64(http.StatusOK))
		resp := EnsembleResponse{Members: make([]EnsembleMember, len(rs))}
		xs := make([][]float64, len(rs))
		for i, res := range rs {
			xs[i] = res.X
			resp.Members[i] = EnsembleMember{
				Converged:  res.Stats.Converged,
				Iterations: res.Stats.Iterations,
				Residual:   res.Stats.Residual,
			}
			if !er.OmitX {
				resp.Members[i].X = res.X
			}
			resp.BatchSize = res.BatchSize
			resp.KernelM = res.KernelM
			resp.QueueWaitMS = float64(res.QueueWait) / float64(time.Millisecond)
			resp.SolveMS = float64(res.SolveTime) / float64(time.Millisecond)
		}
		resp.MeanRMSD, resp.MaxRMSD = stats.Divergence(xs)
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if e.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "draining", "queue_depth": e.QueueDepth(),
			})
			return
		}
		// Health aggregates over the shard fleet: a tombstoned shard
		// degrades the report (still 200 — the survivors serve) so
		// orchestrators can alert without pulling the node.
		if top, ok := e.ShardTopology(); ok && e.ShardDegraded() {
			writeJSON(w, http.StatusOK, map[string]any{
				"status": "degraded", "queue_depth": e.QueueDepth(),
				"shards_live": top.Shards, "shards_configured": top.Configured,
				"shards_tombstoned": top.Tombstoned,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "queue_depth": e.QueueDepth(),
		})
	})

	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, _ *http.Request) {
		cfg := e.Config()
		info := Info{
			N:               e.N(),
			MaxBatch:        cfg.MaxBatch,
			QueueCap:        cfg.QueueCap,
			MaxWaitMS:       float64(cfg.MaxWait) / float64(time.Millisecond),
			WaitFactor:      cfg.WaitFactor,
			Tol:             cfg.Tol,
			HasModel:        cfg.Model != nil,
			Symmetric:       e.Symmetric(),
			MaxEnsemble:     cfg.MaxBatch,
			DefaultEnsemble: cfg.DefaultEnsemble,
		}
		if top, ok := e.ShardTopology(); ok {
			info.Shard = &top
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.Handle("/metrics", obs.Handler(obs.Default))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		obs.Default.Snapshot().WriteJSON(w)
	})
	mux.Handle("/debug/traces", obs.TracesHandler(e.cfg.Tracer))
	return mux
}

// bytesPerNumber bounds one float64 or seed as JSON text: sign, 17
// significant digits, point, exponent, separator, with room to spare.
const bytesPerNumber = 32

// decodeBody decodes a JSON request body into v, reading no more than
// a legal request of the given width can hold: vectors right-hand
// sides of n numbers each, plus slack for field names and scalars. It
// answers 413 for a longer body and 400 for malformed JSON, and
// reports whether v is usable.
func decodeBody(e *Engine, w http.ResponseWriter, r *http.Request, vectors int, v any) bool {
	limit := int64(e.N())*int64(vectors)*bytesPerNumber + 4<<10
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: request body over %d bytes", limit))
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad JSON: %w", err))
	}
	return false
}

// ensembleRHS resolves an EnsembleRequest's member right-hand sides:
// explicit vectors, explicit seeds, or a member count with a base
// seed (engine defaults fill the gaps).
func ensembleRHS(e *Engine, er EnsembleRequest) ([][]float64, error) {
	specified := 0
	if er.Bs != nil {
		specified++
	}
	if er.Seeds != nil {
		specified++
	}
	if er.Members != 0 || er.Seed != nil {
		specified++
	}
	if specified > 1 {
		return nil, errors.New("serve: give exactly one of bs, seeds, or members+seed")
	}
	// The width is checked here, before any right-hand side is
	// generated: each is n floats, and SubmitEnsemble's own check comes
	// only after all of them exist.
	if er.Members < 0 {
		return nil, fmt.Errorf("serve: members must not be negative, got %d", er.Members)
	}
	if k := max(len(er.Bs), len(er.Seeds), er.Members); k > e.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d members, max %d", ErrTooWide, k, e.cfg.MaxBatch)
	}
	switch {
	case er.Bs != nil:
		for _, b := range er.Bs {
			if len(b) != e.N() {
				return nil, fmt.Errorf("serve: member right-hand side has length %d, want %d", len(b), e.N())
			}
		}
		return er.Bs, nil
	case er.Seeds != nil:
		bs := make([][]float64, len(er.Seeds))
		for i, s := range er.Seeds {
			seed := s
			b, err := rhsOf(e, nil, &seed)
			if err != nil {
				return nil, err
			}
			bs[i] = b
		}
		return bs, nil
	default:
		k := er.Members
		if k == 0 {
			k = e.cfg.DefaultEnsemble
		}
		var base uint64
		if er.Seed != nil {
			base = *er.Seed
		}
		bs := make([][]float64, k)
		for i := range bs {
			seed := base + uint64(i)
			b, err := rhsOf(e, nil, &seed)
			if err != nil {
				return nil, err
			}
			bs[i] = b
		}
		return bs, nil
	}
}

// rhsOf resolves the explicit-vector-or-seed right-hand-side choice.
func rhsOf(e *Engine, b []float64, seed *uint64) ([]float64, error) {
	switch {
	case b != nil && seed != nil:
		return nil, errors.New("serve: give either an explicit vector or a seed, not both")
	case seed != nil:
		v := make([]float64, e.N())
		s := rng.New(*seed)
		for i := range v {
			v[i] = s.Normal()
		}
		return v, nil
	case len(b) != e.N():
		return nil, fmt.Errorf("serve: right-hand side has length %d, want %d", len(b), e.N())
	default:
		return b, nil
	}
}

// reqContext derives the request context, applying the body's
// timeout_ms on top of client disconnect propagation.
func reqContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return context.WithCancel(r.Context())
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDraining), errors.Is(err, ErrShardFailure):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrTooWide):
		return http.StatusBadRequest // 400
	case errors.Is(err, ErrCanceled):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, ErrBreakdown):
		return http.StatusUnprocessableEntity // 422
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// Server couples an Engine with an HTTP listener and implements the
// drain-then-stop shutdown sequence.
type Server struct {
	Engine *Engine
	ln     net.Listener
	srv    *http.Server
}

// Start listens on addr (":0" picks a free port) and serves the
// engine's API until Shutdown.
func Start(addr string, e *Engine) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{Engine: e, ln: ln, srv: &http.Server{Handler: Handler(e)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: the engine stops admitting (new solves
// get 503), queued batches are flushed and answered, then the HTTP
// listener closes. In-flight HTTP requests complete before Shutdown
// returns, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	errEngine := s.Engine.Close(ctx)
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return errEngine
}
