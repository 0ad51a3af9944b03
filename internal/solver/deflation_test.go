package solver

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
)

func recycleMatrix(seed uint64) *bcrs.Matrix {
	return bcrs.Random(bcrs.RandomOptions{NB: 120, BlocksPerRow: 5, Seed: seed})
}

// TestDeflationProjectionProperty: after Correct, the residual is
// orthogonal to the recycled subspace (W^T (b - A x) ~ 0) — the
// defining property of the Galerkin projection.
func TestDeflationProjectionProperty(t *testing.T) {
	a := recycleMatrix(21)
	n := a.N()
	basis := [][]float64{testRHS(n, 1), testRHS(n, 2), testRHS(n, 3)}
	d, err := NewDeflation(a, basis)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.cols) != 3 {
		t.Fatalf("K = %d, want 3", len(d.cols))
	}

	b := testRHS(n, 9)
	x := make([]float64, n)
	d.Correct(a, x, b)

	r := make([]float64, n)
	a.MulVec(r, x)
	blas.Sub(r, b, r)
	for j := 0; j < len(d.cols); j++ {
		dot := blas.Dot(d.cols[j], r)
		if math.Abs(dot) > 1e-8*blas.Nrm2(b) {
			t.Errorf("column %d: W^T r = %g, want ~0", j, dot)
		}
	}
}

// TestRecycledCGAcrossBatches models a serving sequence: successive
// batches of differing width against the same operator, each batch's
// solutions feeding the next batch's deflation space. Recycling must
// (a) keep every solve correct and (b) never take more iterations
// than cold CG on the same system.
func TestRecycledCGAcrossBatches(t *testing.T) {
	a := recycleMatrix(22)
	n := a.N()
	const tol = 1e-9
	opt := Options{Tol: tol, MaxIter: 1000}

	var d *Deflation
	var prev [][]float64
	seed := uint64(100)
	for batch, q := range []int{3, 1, 5, 2} {
		// Fresh right-hand sides, correlated with nothing: recycling
		// must help via the operator's low modes, not via rhs overlap.
		xs := make([][]float64, q)
		bs := make([][]float64, q)
		opts := make([]Options, q)
		for j := 0; j < q; j++ {
			seed++
			bs[j] = testRHS(n, seed)
			xs[j] = make([]float64, n)
			opts[j] = opt
		}

		var coldIters, warmIters int
		for j := 0; j < q; j++ {
			xc := make([]float64, n)
			coldIters += CG(a, xc, bs[j], opt).Iterations
			st := RecycledCG(a, xs[j], bs[j], d, opt)
			if !st.Converged {
				t.Fatalf("batch %d solve %d did not converge", batch, j)
			}
			warmIters += st.Iterations
			// Residual check against the operator directly.
			r := make([]float64, n)
			a.MulVec(r, xs[j])
			blas.Sub(r, bs[j], r)
			if rel := blas.Nrm2(r) / blas.Nrm2(bs[j]); rel > 10*tol {
				t.Errorf("batch %d solve %d residual %g", batch, j, rel)
			}
		}
		// Random right-hand sides share no structure with the recycled
		// space, so recycling is not guaranteed a strict win here —
		// only that the correction never meaningfully hurts.
		if d != nil && warmIters > coldIters+q {
			t.Errorf("batch %d: recycling took %d iterations vs %d cold", batch, warmIters, coldIters)
		}

		// Next batch deflates against this batch's solutions (keep a
		// bounded window, like a server would).
		prev = append(prev, xs...)
		if len(prev) > 6 {
			prev = prev[len(prev)-6:]
		}
		var err error
		d, err = NewDeflation(a, prev)
		if err != nil {
			t.Fatalf("batch %d: NewDeflation: %v", batch, err)
		}
	}
}

// TestRecycledCGExactSubspace: when b lies in A*span(W), the Galerkin
// correction solves the system outright and CG needs (at most) a
// handful of cleanup iterations — the limiting case of recycling a
// slowly-varying sequence.
func TestRecycledCGExactSubspace(t *testing.T) {
	a := recycleMatrix(26)
	n := a.N()
	basis := [][]float64{testRHS(n, 7), testRHS(n, 8)}
	d, err := NewDeflation(a, basis)
	if err != nil {
		t.Fatal(err)
	}

	// b = A*(w0 + 0.5*w1): its solution is inside the recycled space.
	want := make([]float64, n)
	blas.Axpy(1.0, d.cols[0], want)
	blas.Axpy(0.5, d.cols[1], want)
	b := make([]float64, n)
	a.MulVec(b, want)

	opt := Options{Tol: 1e-9, MaxIter: 500}
	cold := CG(a, make([]float64, n), b, opt)
	x := make([]float64, n)
	warm := RecycledCG(a, x, b, d, opt)
	if !warm.Converged {
		t.Fatal("recycled solve did not converge")
	}
	if warm.Iterations > 2 {
		t.Errorf("recycled solve took %d iterations, want <= 2 (b in A*span(W))", warm.Iterations)
	}
	if cold.Iterations <= warm.Iterations {
		t.Errorf("cold CG took %d iterations, recycled %d: no speedup on in-subspace rhs",
			cold.Iterations, warm.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestRecycledCGMatchesPlainWithoutDeflation: d == nil degenerates to
// CG bitwise.
func TestRecycledCGMatchesPlainWithoutDeflation(t *testing.T) {
	a := recycleMatrix(23)
	n := a.N()
	b := testRHS(n, 4)
	opt := Options{Tol: 1e-8, MaxIter: 500}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	s1 := CG(a, x1, b, opt)
	s2 := RecycledCG(a, x2, b, nil, opt)
	if s1.Iterations != s2.Iterations || s1.MatMuls != s2.MatMuls {
		t.Errorf("stats differ: CG %+v vs RecycledCG %+v", s1, s2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x[%d] differs", i)
		}
	}
}

// TestNewDeflationErrors covers the error paths: wrong-length vectors
// and a basis with no independent directions.
func TestNewDeflationErrors(t *testing.T) {
	a := recycleMatrix(24)
	if _, err := NewDeflation(a, [][]float64{make([]float64, 7)}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewDeflation(a, [][]float64{make([]float64, a.N())}); err == nil {
		t.Error("all-zero basis accepted")
	}
}

// TestNewDeflationDropsDependentColumns: duplicated directions are
// dropped by the modified Gram-Schmidt, not kept as a singular basis.
func TestNewDeflationDropsDependentColumns(t *testing.T) {
	a := recycleMatrix(25)
	n := a.N()
	v := testRHS(n, 5)
	v2 := append([]float64(nil), v...)
	blas.Scal(2.5, v2) // same direction, different length
	w := testRHS(n, 6)
	d, err := NewDeflation(a, [][]float64{v, v2, w})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.cols) != 2 {
		t.Errorf("K = %d, want 2 (dependent column dropped)", len(d.cols))
	}
}

// TestNewDeflationRelativeDropTolerance is the regression test for the
// scale-dependent drop tolerance: a uniformly tiny basis (all norms
// far below the old absolute 1e-12 cutoff) must still build, and a
// dependent direction must still be dropped at a huge scale.
func TestNewDeflationRelativeDropTolerance(t *testing.T) {
	a := recycleMatrix(27)
	n := a.N()

	// Degenerate scale, independent directions: two vectors of norm
	// ~1e-20 would both have been dropped by an absolute cutoff.
	tiny1 := testRHS(n, 11)
	tiny2 := testRHS(n, 12)
	blas.Scal(1e-20, tiny1)
	blas.Scal(1e-20, tiny2)
	d, err := NewDeflation(a, [][]float64{tiny1, tiny2})
	if err != nil {
		t.Fatalf("tiny independent basis rejected: %v", err)
	}
	if len(d.cols) != 2 {
		t.Fatalf("tiny basis K = %d, want 2", len(d.cols))
	}
	// The projector over the tiny basis must still correct: the
	// basis is normalized, so scale must not leak into the result.
	b := testRHS(n, 13)
	x := make([]float64, n)
	d.Correct(a, x, b)
	for i := range x {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			t.Fatalf("correction produced non-finite x[%d]", i)
		}
	}

	// Huge scale, dependent direction: the duplicate must be dropped
	// even though its orthogonalization remainder (~1e-8 relative
	// rounding on a 1e+20 column) dwarfs any absolute cutoff.
	big := testRHS(n, 14)
	blas.Scal(1e20, big)
	big2 := append([]float64(nil), big...)
	d, err = NewDeflation(a, [][]float64{big, big2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.cols) != 1 {
		t.Fatalf("huge duplicate basis K = %d, want 1", len(d.cols))
	}
}
