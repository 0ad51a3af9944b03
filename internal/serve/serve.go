package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/shard"
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
	// ErrBadRequest means the right-hand side had the wrong dimension.
	ErrBadRequest = errors.New("serve: right-hand side dimension mismatch")
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
	// ErrShardFailure means the shard fleet lost too many shards to
	// complete the batch's multiplies; the affected requests are
	// answered 503 so clients retry against the re-formed fleet.
	ErrShardFailure = errors.New("serve: shard fleet failed mid-solve")
)

// Config parameterizes an Engine.
type Config struct {
	// Tol and MaxIter are the default solver options for requests
	// that do not override them.
	Tol     float64
	MaxIter int
	// Precond, if non-nil, preconditions every solve.
	Precond solver.Preconditioner
	// MaxBatch caps the right-hand sides coalesced into one dispatch
	// (clamped to the largest specialized kernel, 32). Default 32.
	MaxBatch int
	// QueueCap bounds the admission queue; a full queue sheds
	// requests with ErrOverloaded. Default 4*MaxBatch.
	QueueCap int
	// MaxWait is the hard cap on how long the batcher holds a request
	// hoping for a fuller batch. Default 2ms.
	MaxWait time.Duration
	// WaitFactor is the latency stretch the cost model may spend to
	// reach the next kernel size: the batcher waits only while
	// wait + T_solve(next) <= WaitFactor * T_solve(now). Default 1.5.
	WaitFactor float64
	// Model, if non-nil, prices T(m) for the dispatch-now-vs-wait
	// decision (see planWait). Without a model the batcher falls back
	// to waiting at most MaxWait whenever the batch is not full.
	Model *model.GSPMV
	// SeedIters seeds the iteration-count estimate the cost model
	// multiplies T(m) by, before real dispatches refine it. Default 50.
	SeedIters float64
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
	// DefaultEnsemble is the member count /v1/ensemble uses when the
	// request names neither explicit vectors nor seeds. Default 4.
	DefaultEnsemble int
	// Shards, when >= 1, partitions the operator into that many
	// RCB-owned shard engines (internal/shard) and routes every
	// batched multiply across them. Requires a plain *bcrs.Matrix
	// operator (NewEngine panics otherwise — sharding re-slices raw
	// block storage). Shards=1 exercises the full route/gather path
	// while staying bitwise-identical to the unsharded engine; 0
	// leaves the operator untouched.
	Shards int
	// ShardOpts carries the fleet's partition/fault/retry/thread
	// options when Shards >= 1. ShardOpts.Threads is the host-wide
	// kernel thread budget the fleet splits evenly across shards
	// (parallel.ShardBudget).
	ShardOpts shard.Options
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
	if c.WaitFactor <= 1 {
		c.WaitFactor = 1.5
	}
	if c.SeedIters <= 0 {
		c.SeedIters = 50
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.DefaultEnsemble < 1 {
		c.DefaultEnsemble = 4
	}
	if c.DefaultEnsemble > c.MaxBatch {
		c.DefaultEnsemble = c.MaxBatch
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
	// that served this one; KernelM is the padded multivector width
	// the GSPMV actually ran at.
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
	op    solver.BlockOperator
	fleet *shard.Fleet // non-nil when Config.Shards wrapped the operator; engine-owned
	n     int
	cfg   Config

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
	// dispatcher goroutine (run) touches these, so no locking is
	// needed; reuse keeps the steady-state dispatch path free of
	// per-batch allocations for everything that does not escape to
	// callers (Result.X does escape and stays freshly allocated).
	ws      *solver.MultiCGWorkspace
	bsBuf   [][]float64
	optsBuf []solver.Options
}

// NewEngine starts an engine serving solves against op. Close it to
// drain.
//
// With Config.Shards >= 1 the operator must be a plain *bcrs.Matrix;
// NewEngine partitions it into a shard.Fleet it owns, so every
// dispatched solve's multiplies route across the shard strips and
// gather back bitwise-deterministically.
func NewEngine(op solver.BlockOperator, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	var fleet *shard.Fleet
	if cfg.Shards >= 1 {
		a, ok := op.(*bcrs.Matrix)
		if !ok {
			panic("serve: Config.Shards requires a plain *bcrs.Matrix operator")
		}
		f, err := shard.New(a, cfg.Shards, cfg.ShardOpts)
		if err != nil {
			panic("serve: " + err.Error())
		}
		fleet = f
		op = f
	}
	e := &Engine{
		op:        op,
		fleet:     fleet,
		n:         op.N(),
		cfg:       cfg,
		queue:     make(chan *call, cfg.QueueCap),
		done:      make(chan struct{}),
		itersEWMA: cfg.SeedIters,
		ws:        solver.NewMultiCGWorkspace(),
	}
	go e.run()
	return e
}

// N returns the scalar dimension requests must match.
func (e *Engine) N() int { return e.n }

// Symmetric reports whether the engine's operator is a half-storage
// symmetric matrix (bcrs.SymMatrix), i.e. whether solves pay the
// halved matrix-traffic cost.
func (e *Engine) Symmetric() bool {
	_, ok := e.op.(interface{ SymmetricStorage() bool })
	return ok
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ShardTopology returns the live shard fleet topology and true when
// the engine is sharded; the zero Topology and false otherwise.
func (e *Engine) ShardTopology() (shard.Topology, bool) {
	if e.fleet == nil {
		return shard.Topology{}, false
	}
	return e.fleet.Topology(), true
}

// ShardDegraded reports whether the engine is sharded and running
// with fewer live shards than configured (a tombstoned shard under
// the shrink policy). Solves still complete — over the re-partitioned
// survivor fleet — but capacity and layout differ from nominal.
func (e *Engine) ShardDegraded() bool {
	return e.fleet != nil && e.fleet.Degraded()
}

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
// same fused dispatch — so the solve's kernel width is >= K no matter
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
		if len(r.B) != e.n {
			return nil, ErrBadRequest
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
		c.qspan = c.tr.StartSpan("queue_wait").Handoff() // ended by the dispatcher
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
// predict how long the next kernel size would take to fill. Callers
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
