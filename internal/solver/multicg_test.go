package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/obs"
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

// axpy is y += alpha*x in index order, left alone at alpha == 0.
func axpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// laneDot is a lane reduction's order spelled out: the n rows in
// max(1, n/4096) equal chunks [lo, hi); in each, eight partials, row
// lo+i adding into partial i%8, combined as
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)); and the chunk sums added in
// chunk order.
func laneDot(x, y []float64) float64 {
	n := len(x)
	k := max(1, n/4096)
	var s float64
	for c := 0; c < k; c++ {
		var p [8]float64
		lo, hi := n*c/k, n*(c+1)/k
		for i := lo; i < hi; i++ {
			p[(i-lo)%8] += float64(x[i] * y[i])
		}
		part := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
		if c == 0 {
			s = part
		} else {
			s += part
		}
	}
	return s
}

// textbookCG is the recurrence the package contract promises, spelled
// out on contiguous vectors with the blas loops and laneDot: the oracle
// CG itself is held to, so a fault shared by CG and MultiCG cannot hide
// behind their agreement. A zero guess starts from r = b without a
// multiply; breakdown stops it as the contract says.
func textbookCG(a BlockOperator, x, b []float64, opt Options) Stats {
	n := a.N()
	opt = opt.withDefaults(n)
	r := append([]float64(nil), b...)
	var st Stats
	if slices.ContainsFunc(x, func(v float64) bool { return v != 0 }) {
		mulVec(a, r, x)
		blas.Sub(r, b, r)
		st.MatMuls = 1
	}
	bb, rr := laneDot(b, b), laneDot(r, r)
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
		opt.Precond.ApplyBlock(multivec.FromVector(z), multivec.FromVector(r))
	}
	p := append([]float64(nil), z...)
	rz := laneDot(r, z)
	ap := make([]float64, n)
	for st.Iterations < opt.MaxIter {
		if opt.canceled(new(time.Time)) {
			st.Err = ErrCanceled
			break
		}
		mulVec(a, ap, p)
		st.MatMuls++
		pap := laneDot(p, ap)
		if !(pap > 0) || math.IsInf(pap, 1) {
			st.Err = ErrBreakdown
			break
		}
		alpha := rz / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		st.Iterations++
		rr = laneDot(r, r)
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
			opt.Precond.ApplyBlock(multivec.FromVector(z), multivec.FromVector(r))
			rzNew = laneDot(r, z)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return finish()
}

// mulVec is y = A*x through a's multiply at width 1.
func mulVec(a BlockOperator, y, x []float64) { a.Mul(multivec.FromVector(y), multivec.FromVector(x)) }

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

// checkFusedMatchesLone solves the batch fused through a and every
// column alone through lone, by CG and by the textbook recurrence, from
// copies of the guesses in xs0, and wants all three the same. It
// returns the fused stats.
func checkFusedMatchesLone(t *testing.T, what string, a, lone BlockOperator, xs0, bs [][]float64, opts []Options) []Stats {
	t.Helper()
	xs := make([][]float64, len(xs0))
	for j := range xs {
		xs[j] = append([]float64(nil), xs0[j]...)
	}
	stats := MultiCGWith(nil, a, xs, bs, opts)
	for j := range xs {
		ref := append([]float64(nil), xs0[j]...)
		rst := CG(lone, ref, bs[j], opts[j])
		checkColumn(t, what+": fused vs CG", xs[j], stats[j], ref, rst)
		book := append([]float64(nil), xs0[j]...)
		bst := textbookCG(lone, book, bs[j], opts[j])
		checkColumn(t, what+": CG vs textbook", ref, rst, book, bst)
	}
	return stats
}

// spyOp is an operator over one matrix that records the width and
// live-column count of every multiply and can run a hook before the
// k-th multiply it is asked for.
type spyOp struct {
	a      *bcrs.Matrix
	calls  int
	shapes [][2]int // {block width, live columns} per multiply
	before func(call int)
}

func (s *spyOp) N() int { return s.a.N() }

func (s *spyOp) tick() {
	if s.before != nil {
		s.before(s.calls)
	}
	s.calls++
}

func (s *spyOp) Mul(y, x *multivec.MultiVec) {
	s.tick()
	s.shapes = append(s.shapes, [2]int{x.M, liveCols(x)})
	s.a.Mul(y, x)
}

// liveCols counts the leading columns of x up to its last nonzero one:
// a fused solve's multiply has as many when no lane of it is an
// all-zero pad.
func liveCols(x *multivec.MultiVec) int {
	live := 0
	for i := 0; i < x.N; i++ {
		row := x.Row(i)
		for j := x.M - 1; j >= live; j-- {
			if row[j] != 0 {
				live = j + 1
				break
			}
		}
	}
	return live
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
	defer parallel.SetThreads(parallel.Threads())
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
			stats := checkFusedMatchesLone(t, "uniform batch", a, a, zeroGuesses(q, n), bs, opts)
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
// same deterministic dispatch, and the multiply's split rows give the
// one-thread bits, so every solve is bitwise the one-thread lone CG at
// any pool size. The matrix, 5.6 MB a multiply, splits on every pooled
// run, which must show.
func TestMultiCGBitwiseAcrossThreads(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	a := bcrs.Random(bcrs.RandomOptions{NB: 3000, BlocksPerRow: 24, Seed: 4})
	n := a.N()
	const q = 8
	serial := make([][]float64, q)
	for _, threads := range []int{1, 2, 3} {
		parallel.SetThreads(threads)
		xs := make([][]float64, q)
		bs := make([][]float64, q)
		opts := make([]Options, q)
		for j := 0; j < q; j++ {
			xs[j] = make([]float64, n)
			bs[j] = testRHS(n, uint64(7+j))
			opts[j] = Options{}
		}
		jobs := obs.Default.Counter("parallel_jobs_total")
		before := jobs.Value()
		MultiCGWith(nil, a, xs, bs, opts)
		if threads > 1 && jobs.Value() == before {
			t.Fatalf("threads=%d: the fused solve split nothing over the pool", threads)
		}
		for j := 0; j < q; j++ {
			ref := make([]float64, n)
			CG(a, ref, testRHS(n, uint64(7+j)), Options{})
			if threads == 1 {
				serial[j] = ref
			}
			for i := range ref {
				if xs[j][i] != ref[i] {
					t.Fatalf("threads=%d col=%d: mismatch at %d", threads, j, i)
				}
				if ref[i] != serial[j][i] {
					t.Fatalf("threads=%d col=%d: lone CG differs from one thread's at %d", threads, j, i)
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
	stats := MultiCGWith(nil, a, xs, bs, opts)
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
	stats := MultiCGWith(nil, a, xs, bs, []Options{{}, {}})
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
	stats := MultiCGWith(nil, a, xs, bs, []Options{{Ctx: ctx}, {}})
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

// TestCGCancel: the single-vector solver returns ErrCanceled (with the
// current iterate, no panic) when its context expires.
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

// pastDeadline is a context whose deadline has passed while its Err is
// still nil: what a CPU-bound solve on one P sees when the runtime has
// not yet run the deadline's timer.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }
func (pastDeadline) Err() error                  { return nil }

// TestPastDeadlineStopsAtFirstBoundary: each solver reads a deadline
// against the clock, not only through Ctx.Err, so a solve whose deadline
// has passed stops with ErrCanceled at its first iteration boundary.
func TestPastDeadlineStopsAtFirstBoundary(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 100, BlocksPerRow: 6, Seed: 8})
	n := a.N()
	opt := Options{Ctx: pastDeadline{context.Background()}}
	if st := CG(a, make([]float64, n), testRHS(n, 31), opt); st.Err != ErrCanceled || st.Iterations != 0 {
		t.Errorf("CG: %+v", st)
	}
	xs := [][]float64{make([]float64, n), make([]float64, n)}
	bs := [][]float64{testRHS(n, 21), testRHS(n, 22)}
	for j, st := range MultiCGWith(nil, a, xs, bs, []Options{opt, opt}) {
		if st.Err != ErrCanceled || st.Iterations != 0 {
			t.Errorf("MultiCGWith column %d: %+v", j, st)
		}
	}
	b := multivec.New(n, 4)
	for j := 0; j < 4; j++ {
		b.SetCol(j, testRHS(n, uint64(40+j)))
	}
	if st := BlockCG(nil, a, multivec.New(n, 4), b, opt); st.Err != ErrCanceled || st.Iterations != 0 {
		t.Errorf("BlockCG: %+v", st)
	}
}

// TestMultiCGRetiresAcrossEveryWidth staggers 32 columns' budgets and
// tolerances so the live count falls 32 -> 20 -> 16 -> 11 -> 8 -> 5 ->
// 4 -> 3 -> 2 -> 1: survivors are compacted into a block exactly as
// wide as their count, every multiply runs at that count, and each
// column must still be the lone solve of it.
func TestMultiCGRetiresAcrossEveryWidth(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 3})
	n := a.N()
	const q = 32
	// leave[k] columns are gone after iteration k+1, alternately by
	// budget and by a tolerance a lone solve meets at that iteration.
	leave := []int{12, 4, 5, 3, 3, 1, 1, 1, 1}
	probe := CG(a, make([]float64, n), testRHS(n, 500), Options{Tol: 1e-14})
	if probe.Iterations < len(leave)+3 {
		t.Fatalf("probe solve too short to stagger: %d iterations", probe.Iterations)
	}
	// loneResidual is the relative residual a lone solve of b stands at
	// after k iterations.
	loneResidual := func(b []float64, k int) float64 {
		return CG(a, make([]float64, n), b, Options{Tol: 1e-14, MaxIter: k}).Residual
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
					// By tolerance: this column's own lone solve says
					// where iteration k+1 lands.
					prev := 1.0 // the zero guess's relative residual
					if k > 0 {
						prev = loneResidual(bs[j], k)
					}
					opts[j] = Options{Tol: math.Sqrt(loneResidual(bs[j], k+1) * prev)}
				}
			}
		}
		for ; next < q; next++ {
			j := order[next]
			bs[j] = testRHS(n, uint64(500+j))
			opts[j] = Options{Tol: 1e-12}
		}
		spy := &spyOp{a: a}
		checkFusedMatchesLone(t, "staggered batch", spy, a, zeroGuesses(q, n), bs, opts)

		// Zero guesses need no entry multiply: multiply i is iteration
		// i+1's, run on the columns that have not left after the i
		// before it, and at exactly their count.
		if len(spy.shapes) <= len(leave) {
			t.Fatalf("%d multiplies, want more than %d: %v", len(spy.shapes), len(leave), spy.shapes)
		}
		live := q
		for i, s := range spy.shapes {
			if i > 0 && i <= len(leave) {
				live -= leave[i-1]
			}
			if s[0] != s[1] || s[0] != live {
				t.Fatalf("multiply %d ran %d columns at width %d, want %d live: %v", i, s[1], s[0], live, spy.shapes)
			}
		}
	})
}

// TestMultiCGLongColumnsMatchLone is the staggered batch at 9000 rows
// and at 12600, where every lane reduction sums two and three row
// chunks — over the pool at four threads, inline at one: each column
// is still its lone solve and the textbook recurrence with laneDot's
// chunk order, bit for bit, while the batch narrows 32 -> 8 -> 1.
func TestMultiCGLongColumnsMatchLone(t *testing.T) {
	for _, nb := range []int{3000, 4200} {
		a := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 6, Seed: 23})
		n := a.N()
		const q = 32
		forThreads(t, func(t *testing.T) {
			bs := make([][]float64, q)
			opts := make([]Options, q)
			for j := range bs {
				bs[j] = testRHS(n, uint64(900+j))
				switch {
				case j%4 != 3: // 24 leave after one iteration
					opts[j] = Options{MaxIter: 1}
				case j != 3: // 7 more after three
					opts[j] = Options{MaxIter: 3}
				default: // and one converges alone
					opts[j] = Options{Tol: 1e-9}
				}
			}
			spy := &spyOp{a: a}
			for j, st := range checkFusedMatchesLone(t, fmt.Sprintf("n=%d", n), spy, a, zeroGuesses(q, n), bs, opts) {
				if opts[j].MaxIter == 0 && !st.Converged {
					t.Fatalf("n=%d column %d did not converge: %+v", n, j, st)
				}
			}
			widths := []int{}
			for _, sh := range spy.shapes {
				if len(widths) == 0 || widths[len(widths)-1] != sh[0] {
					widths = append(widths, sh[0])
				}
			}
			if !slices.Equal(widths, []int{32, 8, 1}) {
				t.Fatalf("n=%d: multiplies at widths %v, want 32, 8, 1", n, widths)
			}
		})
	}
}

// TestMultiCGZeroGuessSkipsMultiply: a column whose guess is all ±0
// starts from R = B and counts no entry multiply, and that is bit for
// bit what running the multiply gives — b - (A*0) = b - (+0) = b for
// every b, -0 and NaN included. A batch of zero guesses runs no entry
// multiply; one nonzero guess runs it for the batch, and its zero-guess
// columns are still the lone solves that skipped it. At 9000 rows too,
// where the reductions sum two chunks.
func TestMultiCGZeroGuessSkipsMultiply(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, nb := range []int{60, 3000} {
		a := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 5, Seed: 31})
		n := a.N()
		const q = 5
		bs := make([][]float64, q)
		for j := range bs {
			bs[j] = testRHS(n, uint64(80+j))
		}
		for i := 0; i < n; i += 7 {
			bs[1][i] = negZero // -0 entries survive as -0
		}
		bs[2][n/3] = math.NaN() // breaks down at entry, multiply or none
		opts := make([]Options, q)
		nan := nanOperator(nb)
		forThreads(t, func(t *testing.T) {
			// All zero: no entry multiply anywhere.
			spy := &spyOp{a: a}
			stats := checkFusedMatchesLone(t, "zero guesses", spy, a, zeroGuesses(q, n), bs, opts)
			iters := 0
			for j, st := range stats {
				if st.MatMuls != st.Iterations {
					t.Errorf("nb=%d column %d: %d multiplies for %d iterations", nb, j, st.MatMuls, st.Iterations)
				}
				iters = max(iters, st.Iterations)
			}
			if spy.calls != iters {
				t.Errorf("nb=%d: %d fused multiplies for %d iterations", nb, spy.calls, iters)
			}
			// Column 4's guess is not zero: the entry multiply runs, its
			// zero-guess neighbours subtract A*0 and must still be the
			// lone solves that did not.
			xs0 := zeroGuesses(q, n)
			xs0[4] = testRHS(n, 99)
			stats = checkFusedMatchesLone(t, "one warm guess", a, a, xs0, bs, opts)
			for j, st := range stats {
				want := st.Iterations
				if j == 4 {
					want++
				}
				if st.MatMuls != want {
					t.Errorf("nb=%d column %d: %d multiplies for %d iterations", nb, j, st.MatMuls, st.Iterations)
				}
			}
			if !errors.Is(stats[2].Err, ErrBreakdown) || stats[2].MatMuls != 0 {
				t.Errorf("nb=%d NaN column: %+v", nb, stats[2])
			}
			// A guess of -0 entries is zero; one zero but for its last
			// row is warm.
			for i := range xs0[3] {
				xs0[3][i] = negZero
			}
			xs0[4] = make([]float64, n)
			xs0[4][n-1] = 0.5
			stats = checkFusedMatchesLone(t, "-0 and last-row guesses", a, a, xs0, bs, opts)
			if st := stats[3]; st.MatMuls != st.Iterations {
				t.Errorf("nb=%d -0 guess: %d multiplies for %d iterations", nb, st.MatMuls, st.Iterations)
			}
			if st := stats[4]; st.MatMuls != st.Iterations+1 {
				t.Errorf("nb=%d last-row guess: %d multiplies for %d iterations", nb, st.MatMuls, st.Iterations)
			}
			// The same mix over an operator with a NaN entry. The warm
			// column breaks down at entry; the zero-guess ones, whose
			// A*0 the batch computed as NaN rows, must still be their
			// lone solves, which meet the NaN in their first p.Ap.
			stats = checkFusedMatchesLone(t, "NaN operator", nan, nan, xs0, bs, opts)
			for j, st := range stats {
				muls := 1
				if j == 2 {
					muls = 0 // its NaN right-hand side ends it at entry
				}
				if !errors.Is(st.Err, ErrBreakdown) || st.Iterations != 0 || st.MatMuls != muls {
					t.Errorf("nb=%d NaN operator, column %d: %+v", nb, j, st)
				}
			}
		})
	}
}

// nanOperator is a diagonal operator of nb blocks with a NaN entry in
// the symmetric pair of blocks (3, 11) and (11, 3).
func nanOperator(nb int) *bcrs.Matrix {
	bld := bcrs.NewBuilder(nb)
	bld.AddDiag(4)
	var poisoned blas.Mat3
	poisoned[4] = math.NaN()
	bld.AddBlock(3, 11, poisoned)
	bld.AddBlock(11, 3, poisoned)
	return bld.Build()
}

// TestCGZeroGuessNaNOperatorBreaksDown: an operator with a NaN entry
// no longer shows it in the entry residual of a zero guess, and the
// solve must still end in its first iteration's p.Ap with
// ErrBreakdown, no iteration done and x = 0; from a nonzero guess the
// entry residual shows it.
func TestCGZeroGuessNaNOperatorBreaksDown(t *testing.T) {
	a := nanOperator(20)
	b := testRHS(a.N(), 5)
	x := make([]float64, a.N())
	x[0] = math.Copysign(0, -1)
	st := CG(a, x, b, Options{})
	if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("zero guess: %+v", st)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero guess: x[%d] = %v, want 0", i, v)
		}
	}
	warm := testRHS(a.N(), 6)
	if st := CG(a, warm, b, Options{}); !errors.Is(st.Err, ErrBreakdown) || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("nonzero guess: %+v", st)
	}
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
		stats := checkFusedMatchesLone(t, "entry retirements", a, a, xs0, bs, opts)
		// Columns 0 and 1 have a nonzero guess and so one multiply;
		// column 3's zero guess has none.
		for j, muls := range map[int]int{0: 1, 1: 1, 3: 0} {
			if !stats[j].Converged || stats[j].Iterations != 0 || stats[j].MatMuls != muls {
				t.Errorf("column %d should retire at entry after %d multiplies: %+v", j, muls, stats[j])
			}
		}
		for _, j := range []int{2, 4} {
			if !stats[j].Converged || stats[j].Iterations == 0 {
				t.Errorf("column %d should iterate to convergence: %+v", j, stats[j])
			}
		}
	})
}

// TestMultiCGMixedPreconditioners: the preconditioner is the batch's,
// so a batch whose columns name different ones — a column without it,
// or a second factor of the same matrix — panics before it solves, the
// way a dimension mismatch does, and leaves the guesses alone.
func TestMultiCGMixedPreconditioners(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 90, BlocksPerRow: 6, Seed: 15})
	n := a.N()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pres []Preconditioner
	}{
		{"unpreconditioned column", []Preconditioner{ic, nil, ic}},
		{"unpreconditioned first column", []Preconditioner{nil, ic}},
		{"second factor", []Preconditioner{ic, ic, other}},
	} {
		q := len(tc.pres)
		xs, bs, opts := zeroGuesses(q, n), make([][]float64, q), make([]Options, q)
		for j := range bs {
			bs[j] = testRHS(n, uint64(70+j))
			opts[j] = Options{Precond: tc.pres[j]}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "different preconditioners") {
					t.Errorf("%s: recovered %v, want the mixed-preconditioner panic", tc.name, r)
				}
			}()
			MultiCGWith(nil, a, xs, bs, opts)
		}()
		for j := range xs {
			if blas.Nrm2(xs[j]) != 0 {
				t.Fatalf("%s: guess %d written before the panic", tc.name, j)
			}
		}
	}
}

// sweepSpy is a shared preconditioner that records the width of every
// ApplyBlock it is asked for.
type sweepSpy struct {
	*IC0
	widths []int
}

func (s *sweepSpy) ApplyBlock(z, r *multivec.MultiVec) {
	s.widths = append(s.widths, z.M)
	s.IC0.ApplyBlock(z, r)
}

// TestMultiCGSharedIC0MatchesLone: one IC(0) factor shared by a whole
// batch, applied by one ApplyBlock over the lane block per iteration,
// leaves every column its lone PCG solve bit for bit — at every
// remainder of ApplyBlock's four-column groups, on pools of 1, 2 and 4
// threads, with budgets that retire a third of the columns at
// staggered iterations (so the block narrows through the widths), a
// column whose context is already cancelled and one whose NaN
// right-hand side retires it at entry while its lane still rides the
// first sweep.
func TestMultiCGSharedIC0MatchesLone(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	a := bcrs.Random(bcrs.RandomOptions{NB: 120, BlocksPerRow: 6, Seed: 27})
	n := a.N()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 2, 4} {
		parallel.SetThreads(threads)
		for _, q := range []int{1, 2, 3, 5, 7, 8, 17, 32, 33} {
			spy := &sweepSpy{IC0: ic}
			bs, opts := make([][]float64, q), make([]Options, q)
			for j := range bs {
				bs[j] = testRHS(n, uint64(600+j))
				opts[j] = Options{Tol: 1e-10, Precond: spy}
				if j%3 == 1 {
					opts[j].MaxIter = 1 + j%7
				}
			}
			cancelled, poisoned := -1, -1
			if q > 1 {
				cancelled = q - 1
				opts[cancelled].Ctx = ctx
			}
			if q > 2 {
				poisoned = q / 2
				bs[poisoned][n/3] = math.NaN()
			}
			what := fmt.Sprintf("threads=%d q=%d", threads, q)
			stats := checkFusedMatchesLone(t, what, a, a, zeroGuesses(q, n), bs, opts)
			for j, st := range stats {
				switch {
				case j == cancelled:
					if !errors.Is(st.Err, ErrCanceled) || st.Iterations != 0 {
						t.Errorf("%s: cancelled column: %+v", what, st)
					}
				case j == poisoned:
					if !errors.Is(st.Err, ErrBreakdown) || st.MatMuls != 0 {
						t.Errorf("%s: NaN column: %+v", what, st)
					}
				case opts[j].MaxIter == 0 && !st.Converged:
					t.Errorf("%s: column %d did not converge: %+v", what, j, st)
				}
			}
			// The fused solve sweeps its whole block, first at the
			// batch's width, then at its survivors' count; the lone
			// solves after it sweep at width 1.
			if len(spy.widths) == 0 || spy.widths[0] != q {
				t.Errorf("%s: ApplyBlock widths %v, want the first at %d", what, spy.widths, q)
			}
			for _, w := range spy.widths {
				if w < 1 || w > q {
					t.Fatalf("%s: ApplyBlock at width %d", what, w)
				}
			}
		}
	}
}

// TestMultiCGCancelMidSolve cancels one column's context just before
// the solve's third multiply (zero guesses have no entry multiply, so it
// is iteration 3's): the column stops after it with the iterate a lone
// solve cancelled at the same point holds, and its neighbours do not
// notice.
func TestMultiCGCancelMidSolve(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 6})
	n := a.N()
	const q, victim, at = 5, 2, 3
	cancelAt := func(cancel context.CancelFunc) func(int) {
		return func(call int) {
			if call == at-1 {
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
		stats := MultiCGWith(nil, &spyOp{a: a, before: cancelAt(cancel)}, xs, bs, opts)

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
func (m negated) Mul(y, x *multivec.MultiVec) {
	m.a.Mul(y, x)
	blas.Scal(-1, y.Data)
}

// blockDiag is [A 0; 0 -B]: positive definite on A's rows, negative
// definite on B's.
type blockDiag struct{ a, b *bcrs.Matrix }

func (d blockDiag) N() int { return d.a.N() + d.b.N() }

func (d blockDiag) Mul(y, x *multivec.MultiVec) {
	na, nb, m := d.a.N(), d.b.N(), x.M
	d.a.Mul(&multivec.MultiVec{N: na, M: m, Data: y.Data[:na*m]}, &multivec.MultiVec{N: na, M: m, Data: x.Data[:na*m]})
	d.b.Mul(&multivec.MultiVec{N: nb, M: m, Data: y.Data[na*m:]}, &multivec.MultiVec{N: nb, M: m, Data: x.Data[na*m:]})
	blas.Scal(-1, y.Data[na*m:])
}

// TestMultiCGBreakdownIsolated puts one hostile column in a 32-wide
// batch over one shared operator — a NaN right-hand side, an Inf one, a
// right-hand side whose square overflows, one on the negated block of
// an operator that is not positive definite: that column returns
// ErrBreakdown at once, the way the lone solve of it does, and the
// other 31 are their lone solves bit for bit.
func TestMultiCGBreakdownIsolated(t *testing.T) {
	const q, victim = 32, 13
	a := bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 5, Seed: 90})
	n := a.N()
	indef := blockDiag{a, bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 5, Seed: 91})}
	for _, tc := range []struct {
		name   string
		op     BlockOperator
		poison func(b []float64)
	}{
		{"NaN rhs", a, func(b []float64) { b[n/2] = math.NaN() }},
		{"Inf rhs", a, func(b []float64) { b[3] = math.Inf(-1) }},
		{"overflowing rhs", a, func(b []float64) { b[0] = 1e200 }},
		// Every right-hand side lives on A's rows but the victim's, which
		// moves to -B's.
		{"not positive definite", indef, func(b []float64) { copy(b[n:], b[:n]); clear(b[:n]) }},
	} {
		forThreads(t, func(t *testing.T) {
			bs := make([][]float64, q)
			opts := make([]Options, q)
			for j := range bs {
				bs[j] = make([]float64, tc.op.N())
				copy(bs[j], testRHS(n, uint64(300+j)))
				opts[j] = Options{Tol: 1e-9}
			}
			tc.poison(bs[victim])
			stats := checkFusedMatchesLone(t, tc.name, tc.op, tc.op, zeroGuesses(q, tc.op.N()), bs, opts)
			for j, st := range stats {
				switch {
				case j != victim && (!st.Converged || st.Err != nil):
					t.Errorf("%s: healthy column %d: %+v", tc.name, j, st)
				case j == victim && (!errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations > 0):
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
	if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations != 0 || st.MatMuls != 0 {
		t.Fatalf("NaN rhs: %+v", st)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("guess disturbed at %d: %v", i, v)
		}
	}
	if st := CG(negated{a}, x, testRHS(a.N(), 2), Options{}); !errors.Is(st.Err, ErrBreakdown) || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("negative definite operator: %+v", st)
	}
}

// TestMultiCGSteadyStateAllocs: with a warmed workspace a fused solve
// allocates its stats and PackColumns' two closures — a count that
// does not grow with the number of iterations, nor by more than a
// constant per column; a lone CG allocates nothing. The served shape (NB = 6000, q = 32) on a
// two-thread pool, where the lane reductions' four row chunks and
// UnpackLanes run over the pool, allocates no more than the small one.
func TestMultiCGSteadyStateAllocs(t *testing.T) {
	allocs := func(a *bcrs.Matrix, q, iters int) float64 {
		n := a.N()
		xs, bs, opts := zeroGuesses(q, n), make([][]float64, q), make([]Options, q)
		for j := range bs {
			bs[j] = testRHS(n, uint64(40+j))
			opts[j] = Options{Tol: 1e-300, MaxIter: iters + j%3} // staggered: compaction included
		}
		ws := new(Workspace)
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
	a := bcrs.Random(bcrs.RandomOptions{NB: 100, BlocksPerRow: 6, Seed: 17})
	short, long := allocs(a, 8, 3), allocs(a, 8, 30)
	if long != short {
		t.Errorf("allocations grow with the iteration count: %v for 3 iterations, %v for 30", short, long)
	}
	if wide := allocs(a, 32, 3); wide > short+32 {
		t.Errorf("allocations per solve: %v at q=8, %v at q=32", short, wide)
	}
	if short > 8 {
		t.Errorf("%v allocations for a warmed 8-column solve", short)
	}

	// A lone CG on a warmed workspace allocates nothing: its one-column
	// batch is the workspace's too. Cold and warm, plain and through
	// IC(0).
	spd := spdMatrix(41, 100, 6)
	ic, err := NewIC0(spd)
	if err != nil {
		t.Fatal(err)
	}
	ws, x, b := new(Workspace), make([]float64, spd.N()), testRHS(spd.N(), 42)
	for _, pre := range []Preconditioner{nil, ic} {
		for _, cold := range []bool{true, false} {
			opt := Options{Tol: 1e-300, MaxIter: 5, Precond: pre}
			cg := func() {
				if cold {
					clear(x)
				}
				if st := CGWith(ws, spd, x, b, opt); st.Iterations != 5 {
					t.Fatalf("ran %d iterations, want 5", st.Iterations)
				}
			}
			cg()
			if n := testing.AllocsPerRun(10, cg); n != 0 {
				t.Errorf("a lone CG (preconditioned %v, cold %v) on a warmed workspace allocates %v times, want 0", pre != nil, cold, n)
			}
		}
	}

	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(2)
	served := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	if got, small := allocs(served, 32, 3), allocs(a, 32, 3); got > small {
		t.Errorf("%v allocations for a warmed served solve on two threads, %v for the small one", got, small)
	}
}

// BenchmarkMultiCG is the fused solve at the served shape (the
// benchmark's serve_* matrix: NB = 6000, 24 blocks per row, solved to
// 2e-6 from zero guesses) at widths 1, 3, 5, 7, 8, 12, 17, 24 and 32,
// and under one IC(0) factor shared by the batch (ic0/) at 2 to 8 and
// 32 — every remainder of ApplyBlock's four-column groups. vec-share is the
// fraction of the solve outside its multiplies — what the paper's
// "m right-hand sides for the price of ~2" does not cover — and
// mul-ms/iter and vec-ms/iter the two halves per iteration of column
// 0, which every column finishes within a few iterations of; the
// preconditioner's sweeps are vector time.
func BenchmarkMultiCG(b *testing.B) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	n := a.N()
	ic, err := NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    int
		pre  Preconditioner
	}{
		{"q=1", 1, nil}, {"q=3", 3, nil}, {"q=5", 5, nil}, {"q=7", 7, nil}, {"q=8", 8, nil},
		{"q=12", 12, nil}, {"q=17", 17, nil}, {"q=24", 24, nil}, {"q=32", 32, nil},
		{"ic0/q=2", 2, ic}, {"ic0/q=3", 3, ic}, {"ic0/q=4", 4, ic}, {"ic0/q=5", 5, ic},
		{"ic0/q=6", 6, ic}, {"ic0/q=7", 7, ic}, {"ic0/q=8", 8, ic}, {"ic0/q=32", 32, ic},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := c.q
			xs, bs, opts := zeroGuesses(q, n), make([][]float64, q), make([]Options, q)
			for j := range bs {
				bs[j] = testRHS(n, uint64(j+1))
				opts[j] = Options{Tol: 2e-6, Precond: c.pre}
			}
			ws := new(Workspace)
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
			b.ReportMetric(mul/float64(iters)*1e3, "mul-ms/iter")
			b.ReportMetric(vec/float64(iters)*1e3, "vec-ms/iter")
		})
	}
}
