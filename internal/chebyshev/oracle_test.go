package chebyshev_test

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/chebyshev"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/particles"
	"repro/internal/rng"
	"repro/internal/sd"
	"repro/internal/solver"
)

// TestPrecondSqrtMatchesDenseOracle holds the default Brownian force to
// its acceptance bound on a real SD system (N = 64, phi = 0.4): every
// column of PrecondSqrt, alone and in a block of 32, is within 1e-3 of
// L*(L^{-1} R L^{-T})^{1/2}*z computed through a dense
// eigendecomposition, with L the IC(0) factor of the step's matrix
// (fresh) and of the matrix eight steps earlier (stale, as late in a
// window as the factor serves). The paper's order-30 series is logged
// against R^{1/2}*z, not asserted: on its [floor, Gershgorin] bracket it
// is off by far more on the slow modes.
func TestPrecondSqrtMatchesDenseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("four dense eigendecompositions of order 192")
	}
	const nz, tol = 32, 1e-3
	opt := hydro.Options{Phi: 0.4}
	sys, err := particles.New(particles.Options{N: 64, Phi: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r0 := sd.NewConf(sys.Clone(), opt, 1).Build()
	sim := sd.New(sys.Clone(), opt, core.Config{Dt: 2, M: 4, Seed: 5}, 1)
	if err := sim.RunOriginal(8); err != nil {
		t.Fatal(err)
	}
	conf := sim.Current().(*sd.Conf)
	r8 := conf.Build()
	ic, err := solver.NewIC0(r0)
	if err != nil {
		t.Fatal(err)
	}
	n := r0.N()
	z := multivec.New(n, nz)
	zc := make([]float64, n)
	for k := 0; k < nz; k++ {
		rng.Substream(5, uint64(k)).FillNormal(zc)
		z.SetCol(k, zc)
	}

	for _, c := range []struct {
		name string
		r    *bcrs.Matrix
	}{{"fresh", r0}, {"stale", r8}} {
		want := exactPrecondSqrt(t, c.r, ic, z)
		got := multivec.New(n, nz)
		st, err := chebyshev.PrecondSqrt(c.r, ic, got, z, chebyshev.DefaultOrder, 0)
		if err != nil || st.Unconverged != 0 {
			t.Fatalf("%s block: %+v, %v", c.name, st, err)
		}
		worst := 0.0
		y1 := make([]float64, n)
		for k := 0; k < nz; k++ {
			z.Col(k, zc)
			st1, err := chebyshev.PrecondSqrt(c.r, ic, multivec.FromVector(y1), multivec.FromVector(zc), chebyshev.DefaultOrder, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, y := range [][]float64{y1, got.ColVector(k)} {
				e := relErr(y, want.ColVector(k))
				worst = max(worst, e)
				if !(e <= tol) {
					t.Errorf("%s column %d: relative error %.3g after %d iterations, want <= %g", c.name, k, e, st1.Iterations, tol)
				}
			}
		}
		t.Logf("%s factor: worst relative error %.2g, %d iterations (block)", c.name, worst, st.Iterations)

		// The paper's series, for the record.
		s, err := chebyshev.NewSqrtAuto(c.r, c.r, conf.SpectrumFloor(), chebyshev.DefaultOrder, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseSqrt(t, c.r.Dense(), z)
		series := 0.0
		for k := 0; k < nz; k++ {
			z.Col(k, zc)
			s.Apply(y1, zc)
			series = max(series, relErr(y1, ref.ColVector(k)))
		}
		t.Logf("%s matrix: the order-30 series on [floor, Gershgorin] errs by %.2g", c.name, series)
	}
}

// exactPrecondSqrt returns L*(L^{-1} R L^{-T})^{1/2}*Z, through a dense
// eigendecomposition that shares nothing with the recurrence but L,
// which it reads off MulL on the identity.
func exactPrecondSqrt(t *testing.T, r *bcrs.Matrix, ic *solver.IC0, z *multivec.MultiVec) *multivec.MultiVec {
	t.Helper()
	n := r.N()
	id, l := multivec.New(n, n), multivec.New(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	ic.MulL(l, id)
	ld := &blas.Dense{Rows: n, Cols: n, Data: l.Data}
	// X = L^{-1} (L^{-1} R)^T, R being symmetric.
	w := lowerSolve(ld, r.Dense())
	x := lowerSolve(ld, w.Transpose())
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := (x.At(i, j) + x.At(j, i)) / 2
			x.Set(i, j, v)
			x.Set(j, i, v)
		}
	}
	out := denseSqrt(t, x, z)
	yc := make([]float64, n)
	for k := 0; k < z.M; k++ {
		ld.MatVec(yc, out.ColVector(k))
		out.SetCol(k, yc)
	}
	return out
}

// denseSqrt returns X^{1/2}*Z for a dense SPD X, decomposed once.
func denseSqrt(t *testing.T, x *blas.Dense, z *multivec.MultiVec) *multivec.MultiVec {
	t.Helper()
	ev, v, err := blas.EigenSym(x)
	if err != nil {
		t.Fatal(err)
	}
	if !(ev[0] > 0) {
		t.Fatalf("matrix under the square root has eigenvalue %v", ev[0])
	}
	n := x.Rows
	out := multivec.New(n, z.M)
	zc, tc, yc := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := 0; k < z.M; k++ {
		z.Col(k, zc)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += v.At(i, j) * zc[i]
			}
			tc[j] = math.Sqrt(ev[j]) * s
		}
		v.MatVec(yc, tc)
		out.SetCol(k, yc)
	}
	return out
}

// lowerSolve returns L^{-1} B for a dense lower-triangular L.
func lowerSolve(l, b *blas.Dense) *blas.Dense {
	n := l.Rows
	x := blas.NewDense(n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			s := b.At(i, c)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
	}
	return x
}

func relErr(y, ref []float64) float64 {
	var num, den float64
	for i := range y {
		num += (y[i] - ref[i]) * (y[i] - ref[i])
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}
