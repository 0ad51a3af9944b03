package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// run is the dispatcher: it pulls the oldest waiting request, gathers
// a batch around it under the cost-model window, and dispatches one
// fused solve per batch. One goroutine runs all batches —
// intra-solve parallelism comes from the worker pool underneath the
// kernels, so serializing dispatches keeps the machine's cores on one
// GSPMV at a time instead of thrashing between competing solves.
func (e *Engine) run() {
	defer close(e.done)
	for {
		// A call pulled by the previous gather that did not fit its
		// batch (an ensemble would have pushed the width past MaxBatch)
		// seeds the next batch instead of being requeued.
		first := e.carry
		e.carry = nil
		if first == nil {
			var ok bool
			first, ok = <-e.queue
			if !ok {
				return
			}
			first.enterBatch()
		}
		batch := e.gather(first)
		e.dispatch(batch)
	}
}

// enterBatch marks the queue->batch transition on a traced call: the
// queue_wait span ends (handed off from the submitting goroutine)
// and the batch_wait span opens, covering the time the dispatcher
// holds the request hoping for a fuller batch.
func (c *call) enterBatch() {
	if c.tr == nil {
		return
	}
	c.qspan.End()
	c.bspan = c.tr.StartSpan("batch_wait")
}

// gather coalesces submissions around first: everything already
// queued is taken immediately; after that the planner decides, from
// the r(m) cost model and the arrival-rate estimate, whether
// dispatching now beats holding the batch open for a wider one.
// Widths are counted in right-hand sides, not calls — an ensemble
// call contributes all its members at once. A pulled call that would
// push the batch past MaxBatch is carried over to seed the next batch
// (calls are never split across dispatches).
func (e *Engine) gather(first *call) []*call {
	batch := []*call{first}
	width := first.width()
	start := time.Now()
	take := func(c *call) bool {
		c.enterBatch()
		if width+c.width() > e.cfg.MaxBatch {
			e.carry = c
			return false
		}
		batch = append(batch, c)
		width += c.width()
		return true
	}
	for width < e.cfg.MaxBatch {
		// Drain whatever is already waiting — taking a queued request
		// is always free.
		select {
		case c, ok := <-e.queue:
			if !ok || !take(c) {
				return batch
			}
			continue
		default:
		}
		w := e.planWait(width, batch, time.Since(start))
		if w <= 0 {
			break
		}
		timer := time.NewTimer(w)
		select {
		case c, ok := <-e.queue:
			timer.Stop()
			if !ok || !take(c) {
				return batch
			}
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// waitFactor is the latency stretch the cost model may spend to take
// one more request (planWait), and seedIters the iteration count it
// multiplies T(m) by before real dispatches refine the estimate.
const (
	waitFactor = 1.5
	seedIters  = 50
)

// planWait is the dispatch-now-vs-wait decision. With q right-hand
// sides in hand it returns how much longer to hold the batch open, or
// <= 0 to dispatch immediately.
//
// The target is one more request: a fused solve is exactly as wide as
// its columns, so taking it costs T(q+1) - T(q) per iteration. The
// model prices one solve as iters * T(m) (iters is an EWMA of observed
// iteration counts), and waiting is allowed only while
//
//	wait + iters*T(q+1) <= waitFactor * iters*T(q),
//
// so once GSPMV goes compute-bound — T(m) growing linearly, r(m) ~ m
// — the inequality fails and batches stop growing: the batcher's
// window tracks the paper's m_s switch point by construction. The
// wait actually scheduled is the arrival-rate estimate of one arrival
// gap, clamped by that budget, by each request's context deadline
// slack, and by the hard MaxWait cap.
func (e *Engine) planWait(q int, batch []*call, waited time.Duration) time.Duration {
	if q >= e.cfg.MaxBatch {
		return 0
	}
	budget := e.cfg.MaxWait - waited
	if budget <= 0 {
		return 0
	}
	var tNext float64
	if e.cfg.Model != nil {
		iters := e.itersEWMA
		tNext = iters * e.cfg.Model.T(q+1)
		budget = min(budget, time.Duration((waitFactor*iters*e.cfg.Model.T(q)-tNext)*float64(time.Second)))
	}
	// A request whose deadline would expire during the wider solve
	// must not be held: dispatch now.
	now := time.Now()
	for _, c := range batch {
		if dl, ok := c.ctx.Deadline(); ok {
			budget = min(budget, dl.Sub(now)-time.Duration(tNext*float64(time.Second)))
		}
	}
	if budget <= 0 {
		return 0
	}
	if gap := e.arrivalGap(); gap > 0 {
		need := time.Duration(gap * float64(time.Second))
		if need > budget {
			// Arrivals are too slow to bring one more request inside
			// the budget: waiting would be pure added latency.
			return 0
		}
		return need
	}
	return budget
}

// dispatch solves one coalesced batch and demultiplexes per-call
// results. Calls whose context died while queued are answered with
// ErrCanceled without touching the solver. Ensemble calls contribute
// all their members as adjacent columns of the same fused solve.
func (e *Engine) dispatch(batch []*call) {
	dispatchT0 := time.Now()
	queueDepth.Set(float64(len(e.queue)))
	e.batchSeq++
	live := batch[:0:len(batch)]
	for _, c := range batch {
		queueWait.Observe(dispatchT0.Sub(c.enq).Seconds())
		if c.tr != nil {
			c.bspan.End()
		}
		if c.ctx.Err() != nil {
			canceledQueued.Inc()
			if c.tr != nil {
				c.tr.Event("canceled_in_queue", nil)
			}
			rs := make([]Result, c.width())
			for i := range rs {
				rs[i] = Result{Err: ErrCanceled, QueueWait: dispatchT0.Sub(c.enq)}
			}
			c.res <- rs
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}

	q := 0
	for _, c := range live {
		q += c.width()
	}
	var solveSpans []*obs.Span
	for _, c := range live {
		if c.tr == nil {
			continue
		}
		c.tr.SetAttr("batch", e.batchSeq)
		c.tr.SetAttr("batch_size", int64(q))
		c.tr.SetAttr("kernel_m", int64(q))
		solveSpans = append(solveSpans, c.tr.StartSpan("solve"))
	}
	xs := make([][]float64, q)
	stats := e.solveBatch(live, q, xs)
	elapsed := time.Since(dispatchT0)
	for _, sp := range solveSpans {
		sp.End()
	}

	batches.Inc()
	batchRHS.Add(int64(q))
	batchSize.Observe(float64(q))
	solveSeconds.Add(elapsed.Seconds())
	var sumIters int
	j := 0
	for _, c := range live {
		rs := make([]Result, c.width())
		callIters := 0
		converged := true
		for i := range rs {
			st := stats[j]
			sumIters += st.Iterations
			callIters += st.Iterations
			converged = converged && st.Converged
			if !st.Converged && st.Err == nil {
				nonConverged.Inc()
			}
			rs[i] = Result{
				X:         xs[j],
				Stats:     st,
				BatchSize: q,
				KernelM:   q,
				QueueWait: dispatchT0.Sub(c.enq),
				SolveTime: elapsed,
				Err:       st.Err,
			}
			j++
		}
		if c.tr != nil {
			// The iteration count also arrives from inside the solver
			// (cg_iterations via the request context); these attrs are
			// the dispatcher's view, summed over an ensemble's members.
			c.tr.SetAttr("iterations", int64(callIters))
			c.tr.SetAttr("converged", converged)
			// Where the solve span's time went, batch-wide: the fused
			// multiplies, and the vector work around them.
			c.tr.SetAttr("mul_s", e.ws.MulSeconds)
			c.tr.SetAttr("vec_s", e.ws.VecSeconds)
			// Tail latencies become traceable: the request-latency
			// histogram bucket this observation lands in remembers
			// this trace's ID as its exemplar.
			latency.ObserveExemplar(time.Since(c.enq).Seconds(), c.tr.ID())
		} else {
			latency.Observe(time.Since(c.enq).Seconds())
		}
		c.res <- rs
	}
	// Refine the iteration estimate the cost model multiplies T(m) by.
	const a = 0.3
	e.itersEWMA = a*float64(sumIters)/float64(q) + (1-a)*e.itersEWMA
}

// solveBatch runs the fused solve over one coalesced batch,
// converting an operator panic — NewEngine takes any BlockOperator,
// and a distributed one panics when its transport fails — into
// per-column ErrOperatorFailure results instead of killing the
// dispatcher. The engine keeps serving; only the batch in flight is
// answered 500.
func (e *Engine) solveBatch(live []*call, q int, xs [][]float64) (stats []solver.Stats) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		operatorFailed.Inc()
		err := fmt.Errorf("%w: %v", ErrOperatorFailure, r)
		stats = make([]solver.Stats, q)
		for i := range stats {
			stats[i] = solver.Stats{Err: err}
		}
	}()
	// Batch scratch is dispatcher-owned and reused across batches;
	// only xs escapes (Result.X) and stays freshly allocated. The
	// solver workspace makes the steady-state fused path
	// allocation-free apart from the result vectors.
	bs := e.bsBuf[:0]
	opts := e.optsBuf[:0]
	j := 0
	for _, c := range live {
		for _, r := range c.reqs {
			xs[j] = make([]float64, e.n)
			bs = append(bs, r.B)
			opts = append(opts, e.colOptions(c, r))
			j++
		}
	}
	stats = solver.MultiCGWith(e.ws, e.op, xs, bs, opts)
	clear(bs)   // drop request references so reuse does not pin them
	clear(opts) // drop per-request contexts
	e.bsBuf, e.optsBuf = bs[:0], opts[:0]
	return stats
}

// colOptions builds the solver options for one of a call's requests.
func (e *Engine) colOptions(c *call, r Req) solver.Options {
	opt := solver.Options{
		Tol:     r.Tol,
		MaxIter: r.MaxIter,
		Ctx:     c.ctx,
	}
	if e.pre != nil { // a nil *IC0 would be a non-nil Preconditioner
		opt.Precond = e.pre
	}
	if opt.Tol == 0 {
		opt.Tol = e.cfg.Tol
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = e.cfg.MaxIter
	}
	return opt
}
