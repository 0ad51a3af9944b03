package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/solver"
)

func testMatrix() *bcrs.Matrix {
	return bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 3})
}

// loneIC0 is the IC(0) factor of a that an engine over a shares across
// every batch, and so the one its reference solves are preconditioned
// with: a served answer is bitwise the lone PCG solve under it.
func loneIC0(t testing.TB, a *bcrs.Matrix) *solver.IC0 {
	t.Helper()
	ic, err := solver.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func testRHS(n int, seed uint64) []float64 {
	b := make([]float64, n)
	s := rng.New(seed)
	for i := range b {
		b[i] = s.Normal()
	}
	return b
}

// sleepyOp wraps an operator with a sleep inside every multiply: the
// dispatcher goroutine genuinely blocks mid-solve, which lets tests
// build queue pressure deterministically even on a single-core
// scheduler.
type sleepyOp struct {
	inner *bcrs.Matrix
	d     time.Duration
}

func (s *sleepyOp) N() int { return s.inner.N() }

func (s *sleepyOp) Mul(y, x *multivec.MultiVec) {
	time.Sleep(s.d)
	s.inner.Mul(y, x)
}

// TestServeBatchedBitwiseEquivalence is the acceptance test: concurrent
// requests coalesced into multi-RHS batches must produce solutions
// bitwise-identical to solving each request alone with PCG under the
// engine's IC(0) factor at the same thread count.
func TestServeBatchedBitwiseEquivalence(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const nreq = 12
	const tol = 1e-8
	ic := loneIC0(t, a)

	// Unbatched references, solved one at a time.
	refs := make([][]float64, nreq)
	refStats := make([]solver.Stats, nreq)
	for i := range refs {
		b := testRHS(n, uint64(100+i))
		x := make([]float64, n)
		refStats[i] = solver.CG(a, x, b, solver.Options{Tol: tol, MaxIter: 500, Precond: ic})
		if !refStats[i].Converged {
			t.Fatalf("reference CG %d did not converge", i)
		}
		refs[i] = x
	}

	e := NewEngine(a, Config{Tol: tol, MaxIter: 500, MaxWait: 50 * time.Millisecond})
	defer e.Close(context.Background())

	results := make([]Result, nreq)
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(100+i))})
		}(i)
	}
	wg.Wait()

	batched := 0
	for i := 0; i < nreq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		r := results[i]
		if !r.Stats.Converged {
			t.Errorf("request %d did not converge", i)
		}
		if r.Stats.Iterations != refStats[i].Iterations {
			t.Errorf("request %d: %d iterations batched vs %d alone",
				i, r.Stats.Iterations, refStats[i].Iterations)
		}
		if r.BatchSize > 1 {
			batched++
		}
		for j := range refs[i] {
			if r.X[j] != refs[i][j] {
				t.Fatalf("request %d: x[%d] = %v batched, %v alone (batch size %d): not bitwise-identical",
					i, j, r.X[j], refs[i][j], r.BatchSize)
			}
		}
	}
	// The point of the server is coalescing: with 12 concurrent
	// submitters and a 50ms window, at least some must share a batch.
	if batched == 0 {
		t.Error("no request was ever batched; batcher is degenerate")
	}
}

// TestServeBreakdownIsolated submits a 32-wide ensemble — one fused
// dispatch by construction — in which one right-hand side holds a NaN:
// that member alone comes back ErrBreakdown, without iterating, and
// the other 31 are their lone PCG solves bit for bit.
func TestServeBreakdownIsolated(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const q, victim, tol = 32, 19, 1e-8
	reqs := make([]Req, q)
	for i := range reqs {
		reqs[i] = Req{B: testRHS(n, uint64(100+i))}
	}
	reqs[victim].B[n/3] = math.NaN()
	ic := loneIC0(t, a)

	e := NewEngine(a, Config{Tol: tol, MaxIter: 500})
	defer e.Close(context.Background())
	rs, err := e.SubmitEnsemble(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.BatchSize != q {
			t.Fatalf("member %d solved in a batch of %d", i, r.BatchSize)
		}
		if i == victim {
			if !errors.Is(r.Err, ErrBreakdown) || r.Stats.Converged || r.Stats.Iterations != 0 {
				t.Fatalf("victim: err=%v stats=%+v", r.Err, r.Stats)
			}
			continue
		}
		ref := make([]float64, n)
		rst := solver.CG(a, ref, reqs[i].B, solver.Options{Tol: tol, MaxIter: 500, Precond: ic})
		if r.Err != nil || !r.Stats.Converged || r.Stats.Iterations != rst.Iterations {
			t.Fatalf("member %d: err=%v stats=%+v, alone %+v", i, r.Err, r.Stats, rst)
		}
		for j := range ref {
			if r.X[j] != ref[j] {
				t.Fatalf("member %d: x[%d] = %v batched, %v alone", i, j, r.X[j], ref[j])
			}
		}
	}
	// A lone Submit reports the breakdown as its error.
	if _, err := e.Submit(context.Background(), reqs[victim]); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("Submit of the NaN right-hand side: %v", err)
	}
}

// TestServeLoadShedding verifies the bounded queue sheds with
// ErrOverloaded instead of queueing without bound.
func TestServeLoadShedding(t *testing.T) {
	// The operator sleeps inside every multiply, so the dispatcher
	// *blocks* mid-solve — on any GOMAXPROCS the whole burst below
	// gets to run while one solve is in flight (a merely slow solve is
	// not enough on one core, where the scheduler runs each
	// submit->solve->result chain to completion). MaxBatch 1 keeps it
	// one solve per request; QueueCap 1 means the burst must shed.
	op := &sleepyOp{inner: testMatrix(), d: 2 * time.Millisecond}
	n := op.N()
	e := NewEngine(op, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 1, QueueCap: 1})
	defer e.Close(context.Background())

	const nreq = 32
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(i))})
		}(i)
	}
	wg.Wait()

	shedCount, okCount := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrOverloaded):
			shedCount++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okCount == 0 {
		t.Error("every request was shed")
	}
	if shedCount == 0 {
		t.Error("no request was shed despite queue cap 1 and a 32-deep burst")
	}
}

// TestServeCancellation: a request whose context dies before dispatch
// is answered ErrCanceled, never solved, and does not wedge the batch.
func TestServeCancellation(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, Req{B: testRHS(n, 1)}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submit returned %v, want ErrCanceled", err)
	}

	// A live request sharing the engine still completes.
	r, err := e.Submit(context.Background(), Req{B: testRHS(n, 2)})
	if err != nil || !r.Stats.Converged {
		t.Fatalf("live request after cancel: err=%v converged=%v", err, r.Stats.Converged)
	}
}

// TestServeDeadlineMidSolve: a deadline short enough to expire during
// the solve surfaces as ErrCanceled with no panic.
func TestServeDeadlineMidSolve(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 600, BlocksPerRow: 8, Seed: 7})
	e := NewEngine(a, Config{Tol: 1e-14, MaxIter: 100000})
	defer e.Close(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
	defer cancel()
	_, err := e.Submit(ctx, Req{B: testRHS(a.N(), 5)})
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline mid-solve returned %v, want ErrCanceled or success", err)
	}
}

// TestServeGracefulDrain: Close flushes queued work, refuses new work,
// and returns cleanly.
func TestServeGracefulDrain(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, MaxWait: 30 * time.Millisecond})

	const nreq = 6
	results := make([]Result, nreq)
	errs := make([]error, nreq)
	base := requests.Value()
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(i))})
		}(i)
	}
	// Submit counts a request only once it is past the draining check,
	// so when all six are counted each is in flight: drain under them.
	for deadline := time.Now().Add(10 * time.Second); requests.Value()-base < nreq; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d submitters admitted after 10 s", requests.Value()-base, nreq)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	for i := 0; i < nreq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d lost in drain: %v", i, errs[i])
		}
		if !results[i].Stats.Converged {
			t.Errorf("request %d not converged", i)
		}
	}
	if !e.Draining() {
		t.Error("engine does not report draining after Close")
	}
	if _, err := e.Submit(context.Background(), Req{B: testRHS(n, 99)}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit returned %v, want ErrDraining", err)
	}
	// Close is idempotent.
	if err := e.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServeBadRequestDimension: wrong-length right-hand sides are
// rejected before touching the queue.
func TestServeBadRequestDimension(t *testing.T) {
	e := NewEngine(testMatrix(), Config{})
	defer e.Close(context.Background())
	if _, err := e.Submit(context.Background(), Req{B: make([]float64, 7)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
}

// TestServeBadRequestOptions: a tolerance that is negative or not
// finite and a negative iteration cap are rejected before touching the
// queue, for a single request and for an ensemble holding one.
func TestServeBadRequestOptions(t *testing.T) {
	e := NewEngine(testMatrix(), Config{})
	defer e.Close(context.Background())
	b := testRHS(e.N(), 1)
	for _, req := range []Req{
		{B: b, Tol: -1},
		{B: b, Tol: math.NaN()},
		{B: b, Tol: math.Inf(1)},
		{B: b, MaxIter: -3},
	} {
		if _, err := e.Submit(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(tol=%v, max_iter=%d) = %v, want ErrBadRequest", req.Tol, req.MaxIter, err)
		}
		if _, err := e.SubmitEnsemble(context.Background(), []Req{{B: b}, req}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("SubmitEnsemble(tol=%v, max_iter=%d) = %v, want ErrBadRequest", req.Tol, req.MaxIter, err)
		}
	}
}

// TestServePlanWait pins the dispatch-now edges of the batching
// window: full batches and exhausted windows never wait.
func TestServePlanWait(t *testing.T) {
	e := NewEngine(testMatrix(), Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer e.Close(context.Background())

	mk := func(q int) []*call {
		batch := make([]*call, q)
		for i := range batch {
			batch[i] = &call{ctx: context.Background(), reqs: make([]Req, 1)}
		}
		return batch
	}
	if w := e.planWait(4, mk(4), 0); w > 0 {
		t.Errorf("full batch waits %v, want dispatch now", w)
	}
	if w := e.planWait(2, mk(2), 2*time.Millisecond); w > 0 {
		t.Errorf("exhausted window waits %v, want dispatch now", w)
	}
	if w := e.planWait(1, mk(1), 0); w <= 0 {
		t.Error("fresh singleton refuses to wait; batching can never happen")
	}
	// One short of MaxBatch, the target is the last request the cap
	// admits, and the wait is one arrival gap.
	e2 := NewEngine(testMatrix(), Config{MaxBatch: 3, MaxWait: time.Millisecond})
	defer e2.Close(context.Background())
	const gap = 200 * time.Microsecond
	e2.mu.Lock()
	e2.gapEWMA = gap.Seconds()
	e2.mu.Unlock()
	if w := e2.planWait(2, mk(2), 0); w != gap {
		t.Errorf("q=2 under cap 3 waits %v, want one arrival gap, %v", w, gap)
	}
}

// widthOp records the width of every multiply, and holds the first
// until release is closed, after closing entered.
type widthOp struct {
	inner            *bcrs.Matrix
	entered, release chan struct{}
	once             sync.Once
	mu               sync.Mutex
	widths           []int
}

func (w *widthOp) N() int { return w.inner.N() }

func (w *widthOp) Mul(y, x *multivec.MultiVec) {
	w.mu.Lock()
	w.widths = append(w.widths, x.M)
	w.mu.Unlock()
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	w.inner.Mul(y, x)
}

// TestServeSolvesAtBatchWidth: 20 requests queued behind a solve in
// flight, under MaxBatch 24, are one dispatch whose fused solve runs at
// width 20 — no wider — and reports KernelM == BatchSize == 20.
func TestServeSolvesAtBatchWidth(t *testing.T) {
	a := testMatrix()
	n := a.N()
	op := &widthOp{inner: a, entered: make(chan struct{}), release: make(chan struct{})}
	e := NewEngine(op, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 24})
	defer e.Close(context.Background())

	gate := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), Req{B: testRHS(n, 700)})
		gate <- err
	}()
	<-op.entered // the dispatcher is inside the gate's first multiply
	const q = 20
	results := make([]Result, q)
	errs := make([]error, q)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(710+i))})
		}()
	}
	for len(e.queue) < q {
		time.Sleep(time.Millisecond)
	}
	close(op.release)
	wg.Wait()
	if err := <-gate; err != nil {
		t.Fatalf("gate request: %v", err)
	}
	for i, r := range results {
		if errs[i] != nil || !r.Stats.Converged {
			t.Fatalf("request %d: err=%v converged=%v", i, errs[i], r.Stats.Converged)
		}
		if r.BatchSize != q || r.KernelM != q {
			t.Errorf("request %d: batch=%d kernel_m=%d, want both %d", i, r.BatchSize, r.KernelM, q)
		}
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if w := slices.Max(op.widths); w != q {
		t.Errorf("widest multiply ran at %d, want %d: %v", w, q, op.widths)
	}
}

// embeddedOp holds its matrix the way bench/'s untraced serving
// operator does, by embedding it, and fieldOp the way its tracing
// wrapper does, in an unexported field; opaqueOp holds none, only a
// function that multiplies.
type embeddedOp struct{ *bcrs.Matrix }

type fieldOp struct{ inner *bcrs.Matrix }

func (o *fieldOp) N() int                      { return o.inner.N() }
func (o *fieldOp) Mul(y, x *multivec.MultiVec) { o.inner.Mul(y, x) }

type opaqueOp struct {
	n   int
	mul func(y, x *multivec.MultiVec)
}

func (o opaqueOp) N() int                      { return o.n }
func (o opaqueOp) Mul(y, x *multivec.MultiVec) { o.mul(y, x) }

// TestServePrecondFollowsOperator: an engine factors the matrix behind
// its operator — a *bcrs.Matrix, a type embedding one, a wrapper
// holding one in a field — and reports ic0; behind an operator that
// holds no matrix the same matrix is served unpreconditioned, reports
// none and takes more iterations. A matrix whose factorization breaks
// down is served unpreconditioned too, and counted.
func TestServePrecondFollowsOperator(t *testing.T) {
	a := testMatrix()
	b := testRHS(a.N(), 7)
	iters := map[string]int{}
	for name, op := range map[string]solver.BlockOperator{
		"matrix": a, "embedded": embeddedOp{a}, "field": &fieldOp{a}, "opaque": opaqueOp{a.N(), a.Mul},
	} {
		e := NewEngine(op, Config{Tol: 1e-8, MaxIter: 500})
		r, err := e.Submit(context.Background(), Req{B: b})
		e.Close(context.Background())
		if err != nil || !r.Stats.Converged {
			t.Fatalf("%s: err=%v stats=%+v", name, err, r.Stats)
		}
		want := "ic0"
		if name == "opaque" {
			want = "none"
		}
		if got := e.Precond(); got != want {
			t.Errorf("%s: Precond() = %q, want %q", name, got, want)
		}
		iters[name] = r.Stats.Iterations
	}
	if iters["matrix"] != iters["embedded"] || iters["matrix"] != iters["field"] || iters["matrix"] >= iters["opaque"] {
		t.Errorf("iterations %v: want matrix = embedded = field < opaque", iters)
	}

	// A matrix field of another dimension is not the operator's matrix.
	other := struct {
		opaqueOp
		m *bcrs.Matrix
	}{opaqueOp{a.N(), a.Mul}, bcrs.Random(bcrs.RandomOptions{NB: 40, BlocksPerRow: 4, Seed: 5})}
	e := NewEngine(other, Config{})
	e.Close(context.Background())
	if e.Precond() != "none" {
		t.Errorf("matrix field of dimension %d under an operator of %d: Precond() = %q", other.m.N(), a.N(), e.Precond())
	}

	neg := bcrs.NewBuilder(20)
	neg.AddDiag(-1)
	failures := obs.Default.Counter("serve_precond_failures_total")
	before := failures.Value()
	e = NewEngine(neg.Build(), Config{})
	defer e.Close(context.Background())
	if e.Precond() != "none" || failures.Value() != before+1 {
		t.Errorf("indefinite matrix: Precond() = %q, failures %d -> %d", e.Precond(), before, failures.Value())
	}
}

// heldOp holds its matrix behind a solver.BlockOperator field, which
// matrixOf does not look through: to the engine it is an operator with
// no matrix behind it.
type heldOp struct{ inner solver.BlockOperator }

func (o heldOp) N() int                      { return o.inner.N() }
func (o heldOp) Mul(y, x *multivec.MultiVec) { o.inner.Mul(y, x) }

// TestServeAnyBlockOperator runs the engine over an operator that is
// not a *bcrs.Matrix and shows it none: it serves unpreconditioned,
// solves converge against the full matrix's residual (the storage is
// the operator's business, not the engine's) and repeated identical
// requests are bitwise-reproducible.
func TestServeAnyBlockOperator(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const tol = 1e-9

	e := NewEngine(heldOp{a}, Config{Tol: tol, MaxIter: 500, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())
	if got := e.Precond(); got != "none" {
		t.Fatalf("Precond() = %q, want none", got)
	}

	const nreq = 6
	results := make([]Result, nreq)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			results[i], err = e.Submit(context.Background(), Req{B: testRHS(n, uint64(500+i))})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	y := make([]float64, n)
	for i, res := range results {
		if !res.Stats.Converged {
			t.Fatalf("request %d did not converge: %+v", i, res.Stats)
		}
		b := testRHS(n, uint64(500+i))
		a.MulVec(y, res.X)
		blas.Sub(y, y, b)
		if r := blas.Nrm2(y) / blas.Nrm2(b); r > 10*tol {
			t.Fatalf("request %d: residual %v against the full matrix", i, r)
		}
	}

	// The same request solved again, alone so the batch composition
	// cannot differ, must match bit for bit: MultiCG's columns are
	// independent, so batch-mates do not perturb it.
	b := testRHS(n, 777)
	r1, err := e.Submit(context.Background(), Req{B: b})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(context.Background(), Req{B: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Float64bits(r1.X[i]) != math.Float64bits(r2.X[i]) {
			t.Fatalf("serve over an opaque operator not reproducible at %d: %v vs %v", i, r1.X[i], r2.X[i])
		}
	}
}

// TestServeBatchedMatchesLonePCG: under the shared factor a served
// answer is its lone PCG solve bit for bit at every width — the
// AVX-512 sweeps' masked groups (q = 1, 2, 3, 5, 17, 33), their whole
// ones (8, 16, 32), and past MaxBatch, where the batch splits into
// dispatches — on pools of 1, 2 and 4 threads. The matrix, 5.6 MB a
// multiply, splits on every pooled run.
func TestServeBatchedMatchesLonePCG(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	a := bcrs.Random(bcrs.RandomOptions{NB: 3000, BlocksPerRow: 24, Seed: 4})
	n := a.N()
	const tol = 1e-8
	ic := loneIC0(t, a)
	const widest = 33
	refs := make([][]float64, widest)
	refStats := make([]solver.Stats, widest)
	for i := range refs {
		refs[i] = make([]float64, n)
		refStats[i] = solver.CG(a, refs[i], testRHS(n, uint64(500+i)), solver.Options{Tol: tol, MaxIter: 500, Precond: ic})
	}
	for _, threads := range []int{1, 2, 4} {
		parallel.SetThreads(threads)
		e := NewEngine(a, Config{Tol: tol, MaxIter: 500})
		jobs := obs.Default.Counter("parallel_jobs_total")
		before := jobs.Value()
		for _, q := range []int{1, 2, 3, 5, 8, 16, 17, 32, 33} {
			// Members go in ensembles of at most MaxBatch, so every
			// dispatch width is known: q, or 32 and q-32.
			rs := make([]Result, q)
			var wg sync.WaitGroup
			for lo := 0; lo < q; lo += 32 {
				hi := min(lo+32, q)
				reqs := make([]Req, hi-lo)
				for i := range reqs {
					reqs[i] = Req{B: testRHS(n, uint64(500+lo+i))}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := e.SubmitEnsemble(context.Background(), reqs)
					if err != nil {
						t.Errorf("threads=%d q=%d: %v", threads, q, err)
						return
					}
					copy(rs[lo:], got)
				}()
			}
			wg.Wait()
			for i, r := range rs {
				if r.Err != nil || r.Stats.Iterations != refStats[i].Iterations {
					t.Fatalf("threads=%d q=%d member %d: err=%v stats=%+v, alone %+v", threads, q, i, r.Err, r.Stats, refStats[i])
				}
				for j := range r.X {
					if r.X[j] != refs[i][j] {
						t.Fatalf("threads=%d q=%d member %d (batch %d): x[%d] = %v, alone %v", threads, q, i, r.BatchSize, j, r.X[j], refs[i][j])
					}
				}
			}
		}
		e.Close(context.Background())
		if threads > 1 && jobs.Value() == before {
			t.Fatalf("threads=%d: the served solves split nothing over the pool", threads)
		}
	}
}
