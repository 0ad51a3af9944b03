package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Errors returned by Submit. ErrCanceled and ErrBreakdown are
// re-exported from the solver so callers can match either layer's
// uniformly.
var (
	// ErrOverloaded means the admission queue was full and the
	// request was shed without being enqueued.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrDraining means the engine is shutting down and refuses new
	// work.
	ErrDraining = errors.New("serve: draining, not accepting requests")
	// ErrBadRequest means a right-hand side of the wrong dimension, an
	// empty ensemble, a negative or non-finite Tol or a negative MaxIter.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrTooWide means an ensemble submission had more members than
	// MaxBatch, so it could never be solved in one fused dispatch.
	ErrTooWide = errors.New("serve: ensemble wider than max batch")
	// ErrCanceled mirrors solver.ErrCanceled: the request's context
	// was canceled or its deadline expired before or during the solve.
	ErrCanceled = solver.ErrCanceled
	// ErrBreakdown mirrors solver.ErrBreakdown: this request's system
	// could not be solved by CG — a NaN, Inf or overflowing right-hand
	// side, or an operator that is not positive definite. Only its own
	// column is affected; the rest of the batch is answered normally.
	ErrBreakdown = solver.ErrBreakdown
	// ErrOperatorFailure means the operator panicked during the
	// batch's solve; only the batch in flight is answered with it (a
	// 500), and the engine keeps serving.
	ErrOperatorFailure = errors.New("serve: operator failed mid-solve")
)

// Config parameterizes an Engine.
type Config struct {
	// Tol and MaxIter are the default solver options for requests
	// that do not override them.
	Tol     float64
	MaxIter int
	// MaxBatch caps the right-hand sides coalesced into one dispatch,
	// and so the width of its fused solve (at most 32). Default 32.
	MaxBatch int
	// QueueCap bounds the admission queue; a full queue sheds
	// requests with ErrOverloaded. Default 4*MaxBatch.
	QueueCap int
	// MaxWait is the hard cap on how long the batcher holds a request
	// hoping for a fuller batch. Default 2ms.
	MaxWait time.Duration
	// Model, if non-nil, prices T(m) for the dispatch-now-vs-wait
	// decision (see planWait). Without a model the batcher falls back
	// to waiting at most MaxWait whenever the batch is not full.
	Model *model.GSPMV
	// Tracer receives one request trace per sampled Submit (queue
	// wait, batch wait, solve span, batch attribution). Default
	// obs.DefaultTracer; requests whose context already carries a
	// trace (the HTTP layer's X-Request-ID traces) use that one
	// regardless of sampling.
	Tracer *obs.Tracer
	// TraceSample traces every TraceSample-th Submit that does not
	// carry its own trace (1: all, the default). Negative disables
	// engine-started traces entirely.
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.MaxBatch < 1 || c.MaxBatch > 32 {
		c.MaxBatch = 32
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	return c
}

// Req is one solve request: find x with A*x = B to the requested
// tolerance.
type Req struct {
	B       []float64
	Tol     float64 // 0: engine default
	MaxIter int     // 0: engine default
}

// Result is the demultiplexed outcome of one request.
type Result struct {
	// X is the solution, bitwise-identical to an unbatched solve.
	X []float64
	// Stats is this request's solver outcome.
	Stats solver.Stats
	// BatchSize is the number of requests coalesced into the dispatch
	// that served this one; KernelM is the multivector width the GSPMV
	// ran at, which is BatchSize: a fused solve is exactly as wide as
	// its columns. KernelM stays for the clients that read it (HTTP
	// kernel_m).
	BatchSize int
	KernelM   int
	// QueueWait is the time spent in the admission queue and batching
	// window; SolveTime the shared solve's wall time.
	QueueWait time.Duration
	SolveTime time.Duration
	// Err is ErrCanceled when the request's context expired before or
	// during the solve and ErrBreakdown when CG broke down on this
	// request. Non-convergence is not an error; see Stats.
	Err error
}

// call is one queued submission — a single solve request or a
// K-member ensemble occupying one queue slot so admission (and
// shedding) is atomic per ensemble — with its response channel and,
// when the submission is traced, its trace plus the span currently
// open on it. The spans cross goroutines by design — qspan starts on
// the submitting goroutine and ends on the dispatcher — which the
// atomic span end (obs.Span.End) makes safe even when both sides race
// to close one out.
type call struct {
	ctx  context.Context
	reqs []Req // len >= 1; len > 1 is an ensemble solved in one dispatch
	enq  time.Time
	res  chan []Result // buffered(1): the dispatcher never blocks on it

	tr    *obs.Trace // nil: untraced request
	ownTr bool       // engine started the trace and must finish it
	qspan *obs.Span  // queue_wait: enqueue -> pulled by dispatcher
	bspan *obs.Span  // batch_wait: pulled -> batch dispatched
}

// width returns the number of right-hand sides the call contributes
// to a batch.
func (c *call) width() int { return len(c.reqs) }

// Engine is the batching solve core: a bounded admission queue, a
// dispatcher goroutine running the dynamic batcher, and the arrival /
// iteration estimators feeding the cost model.
type Engine struct {
	op  solver.BlockOperator
	n   int
	cfg Config
	// pre is the one IC(0) factor of op's matrix every batch is
	// preconditioned with, nil when op hands over no matrix or the
	// factorization failed: then every solve is plain CG.
	pre *solver.IC0

	queue chan *call
	done  chan struct{}

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	lastArr  time.Time
	gapEWMA  float64 // seconds between arrivals, exponentially smoothed

	traceSeq atomic.Int64 // Submit counter driving TraceSample

	itersEWMA float64 // dispatcher-only: observed iterations per solve
	batchSeq  int64   // dispatcher-only: batch IDs for trace attribution
	carry     *call   // dispatcher-only: pulled but did not fit the batch

	// Dispatcher-owned scratch, reused across batches. Only the single
	// dispatcher goroutine (run) touches these, so no locking is needed;
	// reuse keeps the steady-state dispatch path free of per-batch
	// allocations for everything that does not escape to callers
	// (Result.X does, and stays freshly allocated). ws is its own heap
	// object, off the cache lines Submit's callers write.
	ws      *solver.Workspace
	bsBuf   [][]float64
	optsBuf []solver.Options
}

// NewEngine starts an engine serving solves against op. Close it to
// drain.
//
// When op has a block matrix behind it — op is a *bcrs.Matrix, or a
// struct holding one, embedded or in a field, as a wrapper that times
// its multiplies does (matrixOf) — NewEngine factors it once with block
// IC(0), and every batch is preconditioned through that one factor: the
// served matrix never changes, so the factor never ages. An operator
// with no matrix behind it (a distributed multiply, a closure) is
// solved unpreconditioned, and so is one whose factorization fails,
// which serve_precond_failures_total counts.
func NewEngine(op solver.BlockOperator, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		op:        op,
		n:         op.N(),
		cfg:       cfg,
		pre:       factor(op),
		queue:     make(chan *call, cfg.QueueCap),
		done:      make(chan struct{}),
		itersEWMA: seedIters,
		ws:        new(solver.Workspace),
	}
	go e.run()
	return e
}

// factor returns the IC(0) factor of op's block matrix, nil when op has
// none or the factorization fails.
func factor(op solver.BlockOperator) *solver.IC0 {
	a := matrixOf(op)
	if a == nil {
		return nil
	}
	ic, err := solver.NewIC0(a)
	if err != nil {
		precondFailures.Inc()
		return nil
	}
	return ic
}

// matrixOf returns the block matrix behind op: op itself when it is a
// *bcrs.Matrix, else the first non-nil *bcrs.Matrix field of op's
// dimension in the struct op is or points to — an embedded matrix, or
// the one a wrapper that times or traces its multiplies keeps — and nil
// when there is none. A field that is not op's own matrix costs
// iterations, never answers:
// a factor that succeeds is L·Lᵀ with positive pivots, an SPD
// preconditioner, and PCG under any SPD preconditioner converges to
// op's solution.
func matrixOf(op solver.BlockOperator) *bcrs.Matrix {
	if a, ok := op.(*bcrs.Matrix); ok {
		return a
	}
	v := reflect.ValueOf(op)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	matrix := reflect.TypeFor[*bcrs.Matrix]()
	for i := range v.NumField() {
		if f := v.Field(i); f.Type() == matrix && !f.IsNil() {
			// A field need not be exported to be read this way.
			if a := (*bcrs.Matrix)(f.UnsafePointer()); a.N() == op.N() {
				return a
			}
		}
	}
	return nil
}

// Precond names how the engine preconditions its solves: "ic0" for one
// shared IC(0) factor of its matrix, "none" for plain CG.
func (e *Engine) Precond() string {
	if e.pre == nil {
		return "none"
	}
	return "ic0"
}

// N returns the scalar dimension requests must match.
func (e *Engine) N() int { return e.n }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// QueueDepth returns the current admission-queue occupancy.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Draining reports whether Close has begun.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Submit enqueues a request and blocks until its batch is solved, the
// context is done, or the request is shed. It is safe for any number
// of concurrent callers; concurrency is what the batcher feeds on.
//
// Every sampled request carries an obs trace across the pipeline:
// Submit opens the queue_wait span, the dispatcher converts it into
// batch_wait and solve spans with batch attribution, and the solver
// adds its iteration count through the request context. A trace
// already present on ctx (the HTTP layer's X-Request-ID trace) is
// adopted and left for its creator to finish; otherwise Submit
// starts one from Config.Tracer and finishes it itself.
func (e *Engine) Submit(ctx context.Context, req Req) (Result, error) {
	rs, err := e.submit(ctx, []Req{req})
	if err != nil {
		return Result{}, err
	}
	return rs[0], rs[0].Err
}

// SubmitEnsemble enqueues K right-hand sides as one atomic admission
// unit: the ensemble occupies a single queue slot, is shed or
// accepted as a whole, and its members are always solved inside the
// same fused dispatch — so the solve's width is >= K no matter
// how idle the server is. This is Krasnopolsky's ensemble fusion at
// the serving tier: one client simulating K trajectories gets full
// MRHS economics at concurrency 1.
//
// The member count must not exceed Config.MaxBatch (ErrTooWide).
// Whole-submission failures (shed, draining, canceled) return an
// error; per-member solver outcomes live in each Result.
func (e *Engine) SubmitEnsemble(ctx context.Context, reqs []Req) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, ErrBadRequest
	}
	if len(reqs) > e.cfg.MaxBatch {
		return nil, ErrTooWide
	}
	return e.submit(ctx, reqs)
}

func (e *Engine) submit(ctx context.Context, reqs []Req) ([]Result, error) {
	for _, r := range reqs {
		switch {
		case len(r.B) != e.n:
			return nil, fmt.Errorf("%w: right-hand side has length %d, want %d", ErrBadRequest, len(r.B), e.n)
		case r.Tol < 0 || math.IsNaN(r.Tol) || math.IsInf(r.Tol, 0):
			return nil, fmt.Errorf("%w: tol %v is not a finite non-negative number", ErrBadRequest, r.Tol)
		case r.MaxIter < 0:
			return nil, fmt.Errorf("%w: max_iter %d is negative", ErrBadRequest, r.MaxIter)
		}
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		drainRejected.Inc()
		return nil, ErrDraining
	}
	// inflight spans the enqueue so Close cannot close the queue
	// under a concurrent send.
	e.inflight.Add(1)
	e.noteArrival(time.Now())
	e.mu.Unlock()
	defer e.inflight.Done()

	requests.Add(int64(len(reqs)))
	if len(reqs) > 1 {
		ensembles.Inc()
		ensembleMembers.Add(int64(len(reqs)))
		ensembleWidth.Observe(float64(len(reqs)))
	}
	c := &call{ctx: ctx, reqs: reqs, enq: time.Now(), res: make(chan []Result, 1)}
	if c.tr = obs.TraceFrom(ctx); c.tr == nil && e.cfg.TraceSample > 0 &&
		e.traceSeq.Add(1)%int64(e.cfg.TraceSample) == 0 {
		c.tr = e.cfg.Tracer.Start("")
		c.ownTr = true
		c.ctx = obs.ContextWithTrace(ctx, c.tr) // solver reads it from Options.Ctx
	}
	if c.tr != nil {
		traced.Inc()
		if len(reqs) > 1 {
			c.tr.SetAttr("ensemble_members", int64(len(reqs)))
		}
		c.qspan = c.tr.StartSpan("queue_wait") // ended by the dispatcher
	}
	select {
	case e.queue <- c:
		queueDepth.Set(float64(len(e.queue)))
	default:
		shed.Inc()
		c.finishTrace("shed", ErrOverloaded)
		return nil, ErrOverloaded
	}
	select {
	case rs := <-c.res:
		c.finishTrace("done", firstErr(rs))
		return rs, nil
	case <-ctx.Done():
		// The dispatcher notices the dead context at dispatch time
		// and drops the call into its buffered channel; nobody waits.
		canceled.Inc()
		c.finishTrace("canceled", ErrCanceled)
		return nil, ErrCanceled
	}
}

// firstErr returns the first per-member error of a result set, for
// trace attribution.
func firstErr(rs []Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// finishTrace closes out an engine-owned trace with the request's
// outcome; adopted traces only gain the outcome attributes and stay
// open for their creator. Racing the dispatcher on the open span is
// safe: span ends are atomic and record once.
func (c *call) finishTrace(outcome string, err error) {
	if c.tr == nil {
		return
	}
	c.qspan.End()
	c.tr.SetAttr("outcome", outcome)
	if err != nil {
		c.tr.SetAttr("error", err.Error())
	}
	if c.ownTr {
		c.tr.Finish()
	}
}

// noteArrival feeds the inter-arrival EWMA the cost model uses to
// predict how long one more request would take to arrive. Callers
// hold e.mu.
func (e *Engine) noteArrival(now time.Time) {
	if !e.lastArr.IsZero() {
		gap := now.Sub(e.lastArr).Seconds()
		const a = 0.2
		if e.gapEWMA == 0 {
			e.gapEWMA = gap
		} else {
			e.gapEWMA = a*gap + (1-a)*e.gapEWMA
		}
	}
	e.lastArr = now
}

// arrivalGap returns the smoothed inter-arrival time estimate in
// seconds (0: no estimate yet).
func (e *Engine) arrivalGap() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gapEWMA
}

// Close drains the engine: new Submits fail with ErrDraining, queued
// requests are flushed through the batcher, and Close returns when
// the dispatcher has exited (or ctx expires; the dispatcher keeps
// flushing regardless).
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	already := e.draining
	e.draining = true
	e.mu.Unlock()
	if !already {
		// Wait out submitters caught between the drain check and
		// their enqueue, then close the queue to stop the dispatcher.
		e.inflight.Wait()
		close(e.queue)
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
