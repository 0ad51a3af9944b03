package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/solver"
)

const (
	servePool       = 64 // distinct right-hand sides cycled through
	serveCheckEvery = 50 // every 50th solution's residual is recomputed
	// serveTol is the tolerance every request is solved to. CG gains a
	// factor of three per iteration on these matrices, and at the
	// engine's default of 1e-6 the residual of the tenth iteration falls
	// on either side of the tolerance, as the seed has it: of forty
	// seeds, twenty-four made matrices whose solves take 10 iterations
	// and sixteen 11, and a run's latencies moved by a tenth with that.
	// At 2e-6, in the middle of the step, thirty-eight of the forty take
	// 10.
	serveTol = 2e-6
)

// request is what the generator keeps of one Submit.
type request struct {
	idx            int
	due, sent, end time.Duration
	res            serve.Result
	err            error
}

func (r request) ok() bool { return r.err == nil && r.res.Err == nil && r.res.Stats.Converged }

// serveInstance is a default-configured batching engine over one
// random matrix. serve_underload offers it an open loop at a fixed
// rate well under what a lone solver sustains, so latency is the
// batching window plus a narrow solve; serve_saturated keeps twice
// MaxBatch requests outstanding in a closed loop, so every dispatch is
// a full-width fused solve and the window does not matter.
type serveInstance struct {
	saturated bool
	sz        sizes
	seed      uint64
	a         *bcrs.Matrix
	eng       *serve.Engine
	pool      [][]float64
	dig       uint64
	tr        *tracer

	reqs                       []request
	batches0, shed0, canceled0 int64
	wall                       time.Duration
}

func setupServe(saturated bool) func(seed uint64, sz sizes, tr *tracer) (instance, error) {
	return func(seed uint64, sz sizes, tr *tracer) (instance, error) {
		a := bcrs.Random(bcrs.RandomOptions{NB: sz.serveNB, BlocksPerRow: 24, Seed: subSeed(seed, streamMatrix)})
		in := &serveInstance{saturated: saturated, sz: sz, seed: seed, a: a, tr: tr}
		meter.use(newProber(a, ones(a.N()), 4096, 13.0))
		in.pool = make([][]float64, servePool)
		operands := rng.Substream(seed, streamOperand)
		d := newDigest()
		d.matrix(a)
		for i := range in.pool {
			in.pool[i] = make([]float64, a.N())
			operands.FillNormal(in.pool[i])
			d.floats(in.pool[i])
		}
		for _, due := range arrivals(seed, 256, 1) {
			d.u64(uint64(due))
		}

		var op solver.BlockOperator = probedOp{a}
		if tr != nil {
			op = &tracedOp{a: a, k: tr.track(), tag: new(phase)} // a served multiply has no SD phase
		}
		in.eng = serve.NewEngine(op, serve.Config{Tol: serveTol, Model: &model.GSPMV{
			Machine: pinnedMachine,
			Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
			K:       model.DefaultK,
		}})

		// Warm-up is a fixed number of requests: the workload's own loop
		// when saturated, one request at a time when underloaded. At the
		// open loop's own rate the set-up would be three seconds of
		// sleeping, which no host's speed changes, and set-up time would
		// say nothing.
		clients, n := 1, sz.serveWarmOpen
		if saturated {
			clients, n = sz.serveClients, sz.serveWarmClosed
		}
		warm := in.runClosedLoop(clients, n, time.Hour)
		for _, r := range warm {
			if err := in.check(r); err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		d.u64(iterationDigest(warm))
		in.dig = d.sum()
		return in, nil
	}
}

// arrivals returns n due times of a Poisson-like process at the given
// rate: exponential gaps, scaled so that the n arrivals span exactly
// n/rate. The count and the mean rate then do not vary with the seed,
// only the clustering does.
func arrivals(seed uint64, n int, rate float64) []time.Duration {
	s := rng.Substream(seed, streamArrivals)
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = -math.Log(1 - s.Float64())
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		due[i] = time.Duration(t / total * float64(n) / rate * float64(time.Second))
		t += g
	}
	return due
}

func (in *serveInstance) submit(i int, due, sent time.Duration) request {
	res, err := in.eng.Submit(context.Background(), serve.Req{B: in.pool[i%servePool]})
	end := now()
	// Solutions are kept, for the residual check, of every 50th
	// request only: a saturated run would otherwise hold half a
	// gigabyte of them.
	if i%serveCheckEvery != 0 {
		res.X = nil
	}
	return request{idx: i, due: due, sent: sent, end: end, res: res, err: err}
}

// check fails unless the request was answered, converged and, where
// its solution was kept, meets the residual test.
func (in *serveInstance) check(r request) error {
	if !r.ok() {
		return fmt.Errorf("request %d: err=%v solver err=%v converged=%v", r.idx, r.err, r.res.Err, r.res.Stats.Converged)
	}
	if r.res.X == nil {
		return nil
	}
	if err := checkResidual(in.a, r.res.X, in.pool[r.idx%servePool], in.eng.Config().Tol); err != nil {
		return fmt.Errorf("request %d: %w", r.idx, err)
	}
	return nil
}

// iterationDigest hashes the iteration count of every request, in
// request order. A column of a fused solve iterates exactly as a lone
// solve of it would, so the counts do not depend on how the requests
// were batched.
func iterationDigest(reqs []request) uint64 {
	d := newDigest()
	for _, r := range reqs {
		d.u64(uint64(r.res.Stats.Iterations))
	}
	return d.sum()
}

// runClosedLoop keeps `clients` requests outstanding until n have been
// sent, or limit has passed. Clients draw request numbers from one
// ticket counter. The requests are returned in ticket order.
func (in *serveInstance) runClosedLoop(clients, n int, limit time.Duration) []request {
	var (
		ticket atomic.Int64
		mu     sync.Mutex
		all    []request
		wg     sync.WaitGroup
	)
	t0 := now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []request
			for {
				i := int(ticket.Add(1) - 1)
				at := now()
				if i >= n || at-t0 >= limit {
					break
				}
				mine = append(mine, in.submit(i, at, at))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all
}

// runOpenLoop sends request i when it is due, whether or not earlier ones
// have been answered, and stops sending once limit has passed. One
// goroutine generates; a request in flight is a parked goroutine.
func (in *serveInstance) runOpenLoop(due []time.Duration, limit time.Duration) []request {
	reqs := make([]request, len(due))
	var wg sync.WaitGroup
	t0 := now()
	for i, at := range due {
		if at >= limit {
			reqs = reqs[:i]
			break
		}
		at += t0
		if wait := at - now(); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			reqs[i] = in.submit(i, at, now())
		}(i, at)
	}
	wg.Wait()
	return reqs
}

func (in *serveInstance) digest() uint64 { return in.dig }

func (in *serveInstance) rate() float64 {
	if in.saturated {
		return in.sz.serveRateClosed
	}
	return in.sz.serveRate
}

func (in *serveInstance) results() uint64 { return iterationDigest(in.reqs) }

func (in *serveInstance) close() {
	// Drains the queue and waits for the dispatcher to exit.
	_ = in.eng.Close(context.Background())
}

func (in *serveInstance) run(n int, limit time.Duration) ([]opRec, error) {
	in.batches0 = obs.Default.Counter("serve_batches_total").Value()
	in.shed0 = obs.Default.Counter("serve_shed_total").Value()
	in.canceled0 = obs.Default.Counter("serve_canceled_total").Value()
	t0 := now()
	if in.saturated {
		in.reqs = in.runClosedLoop(in.sz.serveClients, n, limit)
	} else {
		in.reqs = in.runOpenLoop(arrivals(in.seed, n, in.sz.serveRate), limit)
	}
	in.wall = now() - t0

	ops := make([]opRec, len(in.reqs))
	var checkErr error
	for i, r := range in.reqs {
		err := in.check(r)
		if err != nil && checkErr == nil {
			checkErr = err
		}
		ops[i] = opRec{start: r.due, end: r.end, ok: err == nil}
		if in.tr != nil {
			in.addSpans(r)
		}
	}
	return ops, checkErr
}

// addSpans records a finished request as a root span with the two
// intervals the engine reports for it as children; what is left over
// is the request's self time (goroutine hand-offs, result copies).
func (in *serveInstance) addSpans(r request) {
	root := in.tr.add(span{name: spanRequest, parent: -1, op: int32(r.idx), start: r.due, end: r.end})
	in.tr.add(span{name: spanQueueWait, parent: int32(root), op: int32(r.idx), start: r.sent, end: r.sent + r.res.QueueWait})
	in.tr.add(span{name: spanSolve, parent: int32(root), op: int32(r.idx), start: r.end - r.res.SolveTime, end: r.end})
}

func (in *serveInstance) layers(ops []opRec, out metrics) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var qw, solve, self, lat, lag sample
	var batch, kernelM, iters, dispatchSolve float64
	for _, r := range in.reqs {
		if !r.ok() {
			continue
		}
		qw = append(qw, ms(r.res.QueueWait))
		solve = append(solve, ms(r.res.SolveTime))
		lat = append(lat, ms(r.end-r.due))
		self = append(self, ms(r.end-r.due-r.res.QueueWait-r.res.SolveTime))
		lag = append(lag, ms(r.sent-r.due))
		batch += float64(r.res.BatchSize)
		kernelM += float64(r.res.KernelM)
		iters += float64(r.res.Stats.Iterations)
		// Every request of a dispatch reports the dispatch's solve
		// time, so a share of 1/BatchSize each adds up to one.
		dispatchSolve += ms(r.res.SolveTime) / float64(r.res.BatchSize)
	}
	n := float64(len(lat))
	out.set("serve.queue_wait_p50_ms", qw.median())
	out.set("serve.queue_wait_p99_ms", qw.percentile(99))
	out.set("serve.solve_p50_ms", solve.median())
	out.set("serve.self_p50_ms", self.median())
	out.set("serve.latency_p90_ms", lat.percentile(90))
	out.set("serve.latency_p99_ms", lat.percentile(99))
	out.set("serve.batch_size_mean", ratio(batch, n))
	out.set("serve.kernel_m_mean", ratio(kernelM, n))
	out.set("serve.gen_lag_p99_ms", lag.percentile(99))
	out.set("solver.iters_per_req", ratio(iters, n))

	dispatches := float64(obs.Default.Counter("serve_batches_total").Value() - in.batches0)
	out.set("serve.dispatches", dispatches)
	out.set("serve.shed", float64(obs.Default.Counter("serve_shed_total").Value()-in.shed0))
	out.set("serve.canceled", float64(obs.Default.Counter("serve_canceled_total").Value()-in.canceled0))

	muls := collectMuls(in.tr.spans)
	out.set("solver.matmuls_per_dispatch", ratio(float64(muls.count), dispatches))
	out.set("solver.self_ms_per_dispatch", ratio(dispatchSolve-ms(muls.total), dispatches))
	out.set("bcrs.busy_frac", ratio(muls.total.Seconds(), in.wall.Seconds()))
	muls.fill(out)
}
