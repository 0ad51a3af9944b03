package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// testRHS returns a deterministic right-hand side of length n.
func testRHS(n int, seed uint64) []float64 {
	s := rng.New(seed)
	b := make([]float64, n)
	for i := range b {
		b[i] = s.Normal()
	}
	return b
}

// sameBits reports whether a and b agree bit for bit, NaN payloads
// aside.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// textbookCG is the recurrence the package contract promises, spelled
// out on contiguous vectors with the blas loops: the oracle CG itself
// is held to, so a fault shared by CG and MultiCG cannot hide behind
// their agreement. Breakdown stops it as the contract says.
func textbookCG(a Operator, x, b []float64, opt Options) Stats {
	n := a.N()
	opt = opt.withDefaults(n)
	r := make([]float64, n)
	a.MulVec(r, x)
	blas.Sub(r, b, r)
	st := Stats{MatMuls: 1}
	bb, rr := blas.Dot(b, b), blas.Dot(r, r)
	if bb == 0 {
		blas.Fill(x, 0)
		st.Converged = true
		return st
	}
	bnorm, rnorm := math.Sqrt(bb), math.Sqrt(rr)
	finish := func() Stats { st.Residual = rnorm / bnorm; return st }
	if !finite(bb) || !finite(rr) {
		st.Err = ErrBreakdown
		return finish()
	}
	if rnorm <= opt.Tol*bnorm {
		st.Converged = true
		return finish()
	}
	z := r
	if opt.Precond != nil {
		z = make([]float64, n)
		opt.Precond.Apply(z, r)
	}
	p := append([]float64(nil), z...)
	rz := blas.Dot(r, z)
	ap := make([]float64, n)
	for st.Iterations < opt.MaxIter {
		if opt.canceled() {
			st.Err = ErrCanceled
			break
		}
		a.MulVec(ap, p)
		st.MatMuls++
		pap := blas.Dot(p, ap)
		if !(pap > 0) || math.IsInf(pap, 1) {
			st.Err = ErrBreakdown
			break
		}
		alpha := rz / pap
		blas.Axpy(alpha, p, x)
		blas.Axpy(-alpha, ap, r)
		st.Iterations++
		rr = blas.Dot(r, r)
		rnorm = math.Sqrt(rr)
		if !finite(rr) {
			st.Err = ErrBreakdown
			break
		}
		if rnorm <= opt.Tol*bnorm {
			st.Converged = true
			break
		}
		rzNew := rr
		if opt.Precond != nil {
			opt.Precond.Apply(z, r)
			rzNew = blas.Dot(r, z)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return finish()
}

// checkColumn fails unless a fused column's outcome is, bit for bit,
// the reference solve's.
func checkColumn(t *testing.T, what string, x []float64, st Stats, ref []float64, rst Stats) {
	t.Helper()
	if st.Converged != rst.Converged || !errors.Is(st.Err, rst.Err) || !errors.Is(rst.Err, st.Err) {
		t.Fatalf("%s: converged/err %v/%v, reference %v/%v", what, st.Converged, st.Err, rst.Converged, rst.Err)
	}
	if st.Iterations != rst.Iterations || st.MatMuls != rst.MatMuls {
		t.Fatalf("%s: iters/matmuls %d/%d, reference %d/%d", what, st.Iterations, st.MatMuls, rst.Iterations, rst.MatMuls)
	}
	if !sameBits(st.Residual, rst.Residual) {
		t.Fatalf("%s: residual %v, reference %v", what, st.Residual, rst.Residual)
	}
	for i := range ref {
		if !sameBits(x[i], ref[i]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", what, i, x[i], ref[i])
		}
	}
}

// checkFusedMatchesLone solves the batch fused and every column alone,
// by CG and by the textbook recurrence, from copies of the guesses in
// xs0, and wants all three the same. member(j) is column j's own
// operator. It returns the fused stats.
func checkFusedMatchesLone(t *testing.T, what string, a BlockOperator, member func(j int) Operator, xs0, bs [][]float64, opts []Options) []Stats {
	t.Helper()
	xs := make([][]float64, len(xs0))
	for j := range xs {
		xs[j] = append([]float64(nil), xs0[j]...)
	}
	stats := MultiCG(a, xs, bs, opts)
	for j := range xs {
		ref := append([]float64(nil), xs0[j]...)
		rst := CG(member(j), ref, bs[j], opts[j])
		checkColumn(t, what+": fused vs CG", xs[j], stats[j], ref, rst)
		book := append([]float64(nil), xs0[j]...)
		bst := textbookCG(member(j), book, bs[j], opts[j])
		checkColumn(t, what+": CG vs textbook", ref, rst, book, bst)
	}
	return stats
}

// spyOp is a ColumnOperator over one matrix that records the width
// and live-column count of every fused multiply and can run a hook
// before the k-th multiply (fused or single) it is asked for.
type spyOp struct {
	a      *bcrs.Matrix
	calls  int
	shapes [][2]int // {kernel width, live columns} per fused multiply
	before func(call int)
}

func (s *spyOp) N() int { return s.a.N() }

func (s *spyOp) tick() {
	if s.before != nil {
		s.before(s.calls)
	}
	s.calls++
}

func (s *spyOp) MulVec(y, x []float64) { s.tick(); s.a.MulVec(y, x) }

func (s *spyOp) Mul(y, x *multivec.MultiVec) { s.MulCols(y, x, make([]int, x.M)) }

func (s *spyOp) MulCols(y, x *multivec.MultiVec, ids []int) {
	s.tick()
	s.shapes = append(s.shapes, [2]int{x.M, len(ids)})
	s.a.Mul(y, x)
}

// zeroGuesses returns q zero vectors of length n.
func zeroGuesses(q, n int) [][]float64 {
	xs := make([][]float64, q)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	return xs
}

// forThreads runs fn with the process pool at 1 and at 4 threads.
func forThreads(t *testing.T, fn func(t *testing.T)) {
	defer parallel.SetThreads(1)
	for _, threads := range []int{1, 4} {
		parallel.SetThreads(threads)
		fn(t)
	}
}

// TestMultiCGBitwiseMatchesCG is the solver-level half of the serving
// layer's equivalence guarantee: every column of a fused MultiCG batch
// must be bitwise-identical to a lone CG solve of the same system,
// for batch sizes on and off the specialized kernel widths.
func TestMultiCGBitwiseMatchesCG(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 3})
	n := a.N()
	forThreads(t, func(t *testing.T) {
		for _, q := range []int{1, 2, 3, 5, 8, 17, 32, 33} {
			bs := make([][]float64, q)
			opts := make([]Options, q)
			for j := 0; j < q; j++ {
				bs[j] = testRHS(n, uint64(100+j))
				opts[j] = Options{Tol: 1e-8}
			}
			stats := checkFusedMatchesLone(t, "uniform batch", a, func(int) Operator { return a }, zeroGuesses(q, n), bs, opts)
			for j, st := range stats {
				if !st.Converged {
					t.Fatalf("q=%d col=%d did not converge: %+v", q, j, st)
				}
			}
		}
	})
}

// TestMultiCGBitwiseAcrossThreads repeats the equivalence check with a
// parallel worker pool: the fused path and the lone path share the
// same deterministic dispatch, so results stay bitwise-identical at
// any thread count.
func TestMultiCGBitwiseAcrossThreads(t *testing.T) {
	defer parallel.SetThreads(1)
	a := bcrs.Random(bcrs.RandomOptions{NB: 200, BlocksPerRow: 8, Seed: 4})
	n := a.N()
	const q = 5
	for _, threads := range []int{1, 3} {
		parallel.SetThreads(threads)
		xs := make([][]float64, q)
		bs := make([][]float64, q)
		opts := make([]Options, q)
		for j := 0; j < q; j++ {
			xs[j] = make([]float64, n)
			bs[j] = testRHS(n, uint64(7+j))
			opts[j] = Options{}
		}
		MultiCG(a, xs, bs, opts)
		for j := 0; j < q; j++ {
			ref := make([]float64, n)
			CG(a, ref, testRHS(n, uint64(7+j)), Options{})
			for i := range ref {
				if xs[j][i] != ref[i] {
					t.Fatalf("threads=%d col=%d: mismatch at %d", threads, j, i)
				}
			}
		}
	}
}

// TestMultiCGMixedOptions gives each column its own tolerance and
// iteration budget: loose columns retire early and must not disturb
// the strict ones.
func TestMultiCGMixedOptions(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 120, BlocksPerRow: 5, Seed: 9})
	n := a.N()
	xs := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	bs := [][]float64{testRHS(n, 1), testRHS(n, 2), testRHS(n, 3)}
	opts := []Options{{Tol: 1e-2}, {Tol: 1e-10}, {MaxIter: 1}}
	stats := MultiCG(a, xs, bs, opts)
	if !stats[0].Converged || !stats[1].Converged {
		t.Fatalf("columns 0/1 should converge: %+v %+v", stats[0], stats[1])
	}
	if stats[0].Iterations >= stats[1].Iterations {
		t.Errorf("loose column should finish first: %d vs %d", stats[0].Iterations, stats[1].Iterations)
	}
	if stats[2].Converged || stats[2].Iterations != 1 {
		t.Errorf("budget-capped column: %+v", stats[2])
	}
	// Strict column still matches its lone solve exactly.
	ref := make([]float64, n)
	CG(a, ref, testRHS(n, 2), Options{Tol: 1e-10})
	for i := range ref {
		if xs[1][i] != ref[i] {
			t.Fatalf("strict column diverged from lone solve at %d", i)
		}
	}
}

// TestMultiCGZeroRHS mirrors CG's zero-b short circuit per column.
func TestMultiCGZeroRHS(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 40, BlocksPerRow: 4, Seed: 5})
	n := a.N()
	xs := [][]float64{testRHS(n, 11), make([]float64, n)}
	bs := [][]float64{make([]float64, n), testRHS(n, 12)}
	stats := MultiCG(a, xs, bs, []Options{{}, {}})
	if !stats[0].Converged || stats[0].Iterations != 0 {
		t.Fatalf("zero-b column: %+v", stats[0])
	}
	for i, v := range xs[0] {
		if v != 0 {
			t.Fatalf("zero-b column solution not zeroed at %d", i)
		}
	}
	if !stats[1].Converged {
		t.Fatalf("nonzero column should converge: %+v", stats[1])
	}
}

// TestMultiCGCancel cancels one column's context mid-batch: that
// column reports ErrCanceled while the others converge normally.
func TestMultiCGCancel(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 6})
	n := a.N()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the column must stop on its first check
	xs := [][]float64{make([]float64, n), make([]float64, n)}
	bs := [][]float64{testRHS(n, 21), testRHS(n, 22)}
	stats := MultiCG(a, xs, bs, []Options{{Ctx: ctx}, {}})
	if stats[0].Err != ErrCanceled || stats[0].Converged {
		t.Fatalf("canceled column: %+v", stats[0])
	}
	if stats[0].Iterations != 0 {
		t.Errorf("canceled column ran %d iterations", stats[0].Iterations)
	}
	if stats[1].Err != nil || !stats[1].Converged {
		t.Fatalf("healthy column: %+v", stats[1])
	}
}

// TestCGCancel covers the satellite: the single-vector solver returns
// ErrCanceled (with the current iterate, no panic) when its context
// expires, and BlockCGWithFallback refuses to rescue past a deadline.
func TestCGCancel(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 100, BlocksPerRow: 6, Seed: 8})
	n := a.N()
	b := testRHS(n, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n)
	st := CG(a, x, b, Options{Ctx: ctx})
	if st.Err != ErrCanceled || st.Converged || st.Iterations != 0 {
		t.Fatalf("CG under canceled ctx: %+v", st)
	}
	// Sanity: without the context the same solve converges.
	x2 := make([]float64, n)
	if st2 := CG(a, x2, b, Options{}); !st2.Converged || st2.Err != nil {
		t.Fatalf("clean CG: %+v", st2)
	}
}

// TestMultiCGRetiresAcrossEveryWidth staggers 32 columns' budgets and
// tolerances so the live count falls 32 -> 20 -> 16 -> 11 -> 8 -> 5 ->
// 4 -> 3 -> 2 -> 1: survivors are compacted in place inside a kernel
// width and moved into every narrower one, and each column must still
// be the lone solve of it.
func TestMultiCGRetiresAcrossEveryWidth(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 3})
	n := a.N()
	const q = 32
	// leave[k] columns are gone after iteration k+1, alternately by
	// budget and by a tolerance a lone solve meets at that iteration.
	leave := []int{12, 4, 5, 3, 3, 1, 1, 1, 1}
	probe := CG(a, make([]float64, n), testRHS(n, 500), Options{Tol: 1e-14, TrackResiduals: true})
	if len(probe.Residuals) < len(leave)+3 {
		t.Fatalf("probe solve too short to stagger: %d iterations", len(probe.Residuals))
	}
	forThreads(t, func(t *testing.T) {
		bs := make([][]float64, q)
		opts := make([]Options, q)
		// Interleave the leavers with the stayers so every compaction
		// moves lanes across gaps.
		order := make([]int, 0, q)
		for j := 0; j < q; j += 2 {
			order = append(order, j)
		}
		for j := 1; j < q; j += 2 {
			order = append(order, j)
		}
		next := 0
		for k, cnt := range leave {
			for c := 0; c < cnt; c++ {
				j := order[next]
				next++
				bs[j] = testRHS(n, uint64(500+j))
				opts[j] = Options{Tol: 1e-14, MaxIter: k + 1}
				if c%2 == 1 {
					// By tolerance: this column's own residual history
					// says where iteration k+1 lands.
					h := CG(a, make([]float64, n), bs[j], Options{Tol: 1e-14, TrackResiduals: true}).Residuals
					prev := 1.0 // the zero guess's relative residual
					if k > 0 {
						prev = h[k-1]
					}
					opts[j] = Options{Tol: math.Sqrt(h[k] * prev)}
				}
			}
		}
		for ; next < q; next++ {
			j := order[next]
			bs[j] = testRHS(n, uint64(500+j))
			opts[j] = Options{Tol: 1e-12}
		}
		spy := &spyOp{a: a}
		checkFusedMatchesLone(t, "staggered batch", spy, func(int) Operator { return a }, zeroGuesses(q, n), bs, opts)

		widths, inPlace := map[int]bool{}, false
		for i, s := range spy.shapes {
			widths[s[0]] = true
			if s[0] != KernelCeil(s[1]) {
				t.Fatalf("multiply %d ran %d columns at width %d", i, s[1], s[0])
			}
			if i > 0 && s[0] == spy.shapes[i-1][0] && s[1] < spy.shapes[i-1][1] {
				inPlace = true
			}
		}
		for _, w := range KernelSizes {
			if !widths[w] {
				t.Errorf("no multiply at kernel width %d: %v", w, spy.shapes)
			}
		}
		if !inPlace {
			t.Errorf("no compaction inside a kernel width: %v", spy.shapes)
		}
	})
}

// TestMultiCGEntryRetirements mixes columns that are done before the
// first iteration — a zero right-hand side under a nonzero guess, a
// guess that already meets the tolerance — with ones that iterate.
func TestMultiCGEntryRetirements(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 60, BlocksPerRow: 5, Seed: 14})
	n := a.N()
	solved := make([]float64, n)
	CG(a, solved, testRHS(n, 61), Options{Tol: 1e-12})
	xs0 := [][]float64{testRHS(n, 60), solved, make([]float64, n), make([]float64, n), testRHS(n, 64)}
	bs := [][]float64{make([]float64, n), testRHS(n, 61), testRHS(n, 62), make([]float64, n), testRHS(n, 63)}
	opts := []Options{{}, {Tol: 1e-9}, {}, {}, {Tol: 1e-10}}
	forThreads(t, func(t *testing.T) {
		stats := checkFusedMatchesLone(t, "entry retirements", a, func(int) Operator { return a }, xs0, bs, opts)
		for _, j := range []int{0, 1, 3} {
			if !stats[j].Converged || stats[j].Iterations != 0 || stats[j].MatMuls != 1 {
				t.Errorf("column %d should retire at entry: %+v", j, stats[j])
			}
		}
		for _, j := range []int{2, 4} {
			if !stats[j].Converged || stats[j].Iterations == 0 {
				t.Errorf("column %d should iterate to convergence: %+v", j, stats[j])
			}
		}
	})
}

// TestMultiCGMixedPreconditioners runs block-Jacobi columns beside
// unpreconditioned ones (and an IC(0) one): the Z block exists for the
// batch, and every column is still its own lone solve.
func TestMultiCGMixedPreconditioners(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 90, BlocksPerRow: 6, Seed: 15})
	n := a.N()
	bj := NewBlockJacobi(a)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const q = 7
	bs := make([][]float64, q)
	opts := make([]Options, q)
	for j := range bs {
		bs[j] = testRHS(n, uint64(70+j))
		opts[j] = Options{Tol: 1e-6 / float64(j+1)}
	}
	opts[1].Precond, opts[4].Precond, opts[6].Precond = bj, ic, bj
	forThreads(t, func(t *testing.T) {
		stats := checkFusedMatchesLone(t, "mixed preconditioners", a, func(int) Operator { return a }, zeroGuesses(q, n), bs, opts)
		for j, st := range stats {
			if !st.Converged {
				t.Errorf("column %d: %+v", j, st)
			}
		}
		if stats[4].Iterations >= stats[3].Iterations {
			t.Errorf("IC(0) column took %d iterations, its plain neighbour %d", stats[4].Iterations, stats[3].Iterations)
		}
	})
}

// TestMultiCGCancelMidSolve cancels one column's context just before
// the solve's fourth multiply: the column stops after it with the iterate a lone
// solve cancelled at the same point holds, and its neighbours do not
// notice.
func TestMultiCGCancelMidSolve(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 6})
	n := a.N()
	const q, victim, at = 5, 2, 3
	cancelAt := func(cancel context.CancelFunc) func(int) {
		return func(call int) {
			if call == at {
				cancel()
			}
		}
	}
	forThreads(t, func(t *testing.T) {
		bs := make([][]float64, q)
		opts := make([]Options, q)
		for j := range bs {
			bs[j] = testRHS(n, uint64(20+j))
			opts[j] = Options{Tol: 1e-10}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts[victim].Ctx = ctx
		xs := zeroGuesses(q, n)
		stats := MultiCG(&spyOp{a: a, before: cancelAt(cancel)}, xs, bs, opts)

		for j := range xs {
			ref := make([]float64, n)
			lone, opt := &spyOp{a: a}, opts[j]
			if j == victim {
				lctx, lcancel := context.WithCancel(context.Background())
				defer lcancel()
				lone.before, opt.Ctx = cancelAt(lcancel), lctx
			}
			checkColumn(t, "cancel mid-solve", xs[j], stats[j], ref, CG(lone, ref, bs[j], opt))
		}
		if st := stats[victim]; !errors.Is(st.Err, ErrCanceled) || st.Iterations != at || st.Converged {
			t.Fatalf("victim: %+v", st)
		}
		if blas.Nrm2(xs[victim]) == 0 {
			t.Fatal("victim's iterate was not copied out")
		}
	})
}

// negated is -A: every direction has p.Ap < 0.
type negated struct{ a *bcrs.Matrix }

func (m negated) N() int { return m.a.N() }
func (m negated) MulVec(y, x []float64) {
	m.a.MulVec(y, x)
	blas.Scal(-1, y)
}

// TestMultiCGBreakdownIsolated puts one hostile column in a 32-wide
// batch — a NaN right-hand side, an Inf one, an operator that is not
// positive definite, a right-hand side whose square overflows: that
// column returns ErrBreakdown at once, the way the lone solve of it
// does, and the other 31 are their lone solves bit for bit.
func TestMultiCGBreakdownIsolated(t *testing.T) {
	const q, victim = 32, 13
	mats := make([]*bcrs.Matrix, q)
	for j := range mats {
		mats[j] = bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 5, Seed: uint64(90 + j%3)})
	}
	n := mats[0].N()
	for _, tc := range []struct {
		name     string
		poison   func(b []float64)
		op       func(a *bcrs.Matrix) Operator
		maxIters int
	}{
		{"NaN rhs", func(b []float64) { b[n/2] = math.NaN() }, nil, 0},
		{"Inf rhs", func(b []float64) { b[3] = math.Inf(-1) }, nil, 0},
		{"overflowing rhs", func(b []float64) { b[0] = 1e200 }, nil, 0},
		{"not positive definite", nil, func(a *bcrs.Matrix) Operator { return negated{a} }, 0},
	} {
		forThreads(t, func(t *testing.T) {
			ops := make([]Operator, q)
			bs := make([][]float64, q)
			opts := make([]Options, q)
			for j := range ops {
				ops[j], bs[j], opts[j] = mats[j], testRHS(n, uint64(300+j)), Options{Tol: 1e-9}
			}
			if tc.poison != nil {
				tc.poison(bs[victim])
			}
			if tc.op != nil {
				ops[victim] = tc.op(mats[victim])
			}
			stats := checkFusedMatchesLone(t, tc.name, NewEnsemble(ops), func(j int) Operator { return ops[j] }, zeroGuesses(q, n), bs, opts)
			for j, st := range stats {
				switch {
				case j != victim && (!st.Converged || st.Err != nil):
					t.Errorf("%s: healthy column %d: %+v", tc.name, j, st)
				case j == victim && (!errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations > tc.maxIters):
					t.Errorf("%s: victim: %+v", tc.name, st)
				}
			}
		})
	}
}

// TestCGBreakdownStopsAtOnce is the lone-solve half of the bug the
// breakdown rule fixes: a NaN right-hand side used to iterate to
// MaxIter = 10n on NaN state.
func TestCGBreakdownStopsAtOnce(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 5, Seed: 2})
	b := testRHS(a.N(), 1)
	b[7] = math.NaN()
	x := make([]float64, a.N())
	st := CG(a, x, b, Options{})
	if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("NaN rhs: %+v", st)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("guess disturbed at %d: %v", i, v)
		}
	}
	if st := CG(negated{a}, x, testRHS(a.N(), 2), Options{}); !errors.Is(st.Err, ErrBreakdown) || st.Iterations != 0 || st.MatMuls != 2 {
		t.Fatalf("negative definite operator: %+v", st)
	}
}

// TestMultiCGSteadyStateAllocs: with a warmed workspace a fused solve
// allocates its stats and a few closures — a count that does not grow
// with the number of iterations, nor by more than a constant per
// column.
func TestMultiCGSteadyStateAllocs(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 100, BlocksPerRow: 6, Seed: 17})
	n := a.N()
	allocs := func(q, iters int) float64 {
		xs, bs, opts := zeroGuesses(q, n), make([][]float64, q), make([]Options, q)
		for j := range bs {
			bs[j] = testRHS(n, uint64(40+j))
			opts[j] = Options{Tol: 1e-300, MaxIter: iters + j%3} // staggered: compaction included
		}
		ws := NewMultiCGWorkspace()
		MultiCGWith(ws, a, xs, bs, opts)
		return testing.AllocsPerRun(10, func() {
			for j := range xs {
				clear(xs[j])
			}
			if st := MultiCGWith(ws, a, xs, bs, opts); st[0].Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", st[0].Iterations, iters)
			}
		})
	}
	short, long := allocs(8, 3), allocs(8, 30)
	if long != short {
		t.Errorf("allocations grow with the iteration count: %v for 3 iterations, %v for 30", short, long)
	}
	if wide := allocs(32, 3); wide > short+32 {
		t.Errorf("allocations per solve: %v at q=8, %v at q=32", short, wide)
	}
	if short > 8 {
		t.Errorf("%v allocations for a warmed 8-column solve", short)
	}
}

// BenchmarkMultiCG is the fused solve at the served shape (the
// benchmark's serve_* matrix: NB = 6000, 24 blocks per row, solved to
// 2e-6 from zero guesses) at widths 1, 8 and 32. vec-share is the
// fraction of the solve outside its multiplies — what the paper's
// "m right-hand sides for the price of ~2" does not cover.
func BenchmarkMultiCG(b *testing.B) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	n := a.N()
	for _, q := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			xs, bs, opts := zeroGuesses(q, n), make([][]float64, q), make([]Options, q)
			for j := range bs {
				bs[j] = testRHS(n, uint64(j+1))
				opts[j] = Options{Tol: 2e-6}
			}
			ws := NewMultiCGWorkspace()
			var mul, vec float64
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range xs {
					clear(xs[j])
				}
				st := MultiCGWith(ws, a, xs, bs, opts)
				if !st[0].Converged {
					b.Fatalf("not converged: %+v", st[0])
				}
				mul, vec, iters = mul+ws.MulSeconds, vec+ws.VecSeconds, iters+st[0].Iterations
			}
			b.ReportMetric(vec/(mul+vec), "vec-share")
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			b.ReportMetric((mul+vec)/float64(iters)*1e6, "µs/iter")
		})
	}
}
