package solver

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/particles"
	"repro/internal/rng"
)

// poolDropsPuts is set under -race (race_test.go), where sync.Pool
// discards a random quarter of Puts and BlockCG's workspace is
// reallocated at random: allocation counts mean nothing there.
var poolDropsPuts bool

// An unreachable tolerance makes BlockCG run exactly MaxIter
// iterations, so the allocation count of a call can be compared
// across iteration counts.
func blockCGAllocs(t *testing.T, a *bcrs.Matrix, b *multivec.MultiVec, opt Options) float64 {
	if poolDropsPuts {
		t.Skip("sync.Pool drops items under -race")
	}
	x := multivec.New(b.N, b.M)
	return testing.AllocsPerRun(5, func() {
		x.Zero()
		if st := BlockCG(a, x, b, opt); st.Iterations != opt.MaxIter {
			panic("BlockCG stopped early")
		}
	})
}

func TestBlockCGIterationDoesNotAllocate(t *testing.T) {
	a := spdMatrix(31, 60, 6)
	const m = 8
	b := multivec.New(a.N(), m)
	rng.New(32).FillNormal(b.Data)
	for i := 3; i < len(b.Data); i += m {
		b.Data[i] = 0 // a zero right-hand side takes the x_j = 0 path
	}

	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Tol: 1e-300}},
		{"preconditioned", Options{Tol: 1e-300, Precond: NewBlockJacobi(a)}},
	} {
		short, long := tc.opt, tc.opt
		short.MaxIter, long.MaxIter = 2, 12
		few, many := blockCGAllocs(t, a, b, short), blockCGAllocs(t, a, b, long)
		if few != many {
			t.Errorf("%s: %v allocations for 2 iterations, %v for 12: the iteration allocates", tc.name, few, many)
		}
		// What is left per call: the stats' three per-column slices
		// and the closures over them.
		if few > 8 {
			t.Errorf("%s: a warmed call allocates %v times, want <= 8", tc.name, few)
		}
	}
}

// The m-by-m systems of a rank-deficient block (two equal right-hand
// sides) go through solveSmall's ridge path, which must not allocate
// either.
func TestBlockCGRidgePathDoesNotAllocate(t *testing.T) {
	a := spdMatrix(33, 40, 6)
	col := randVec(34, a.N())
	b := multivec.FromColumns(col, col)
	opt := Options{Tol: 1e-300}
	short, long := opt, opt
	short.MaxIter, long.MaxIter = 2, 8
	if few, many := blockCGAllocs(t, a, b, short), blockCGAllocs(t, a, b, long); few != many {
		t.Errorf("%v allocations for 2 iterations, %v for 8", few, many)
	}
}

func TestBlockStatsSplitsMultiplyAndVectorTime(t *testing.T) {
	a := spdMatrix(35, 60, 6)
	b := multivec.New(a.N(), 4)
	rng.New(36).FillNormal(b.Data)
	st := BlockCG(a, multivec.New(a.N(), 4), b, Options{})
	if st.MulSeconds <= 0 || st.VecSeconds <= 0 {
		t.Fatalf("MulSeconds %v, VecSeconds %v: both must be positive", st.MulSeconds, st.VecSeconds)
	}
}

// BenchmarkBlockCG is the SD benchmark's augmented solve: the N=1000
// resistance matrix, m=16, cold start. vec-share is the fraction of
// the solve spent outside the multiplies; the MRHS algorithm's
// premise is that it is small.
func BenchmarkBlockCG(b *testing.B) {
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	a := hydro.Build(sys, hydro.Options{Phi: 0.4})
	const m = 16
	rhs := multivec.New(a.N(), m)
	rng.New(12).FillNormal(rhs.Data)
	x := multivec.New(a.N(), m)
	var mul, vec float64
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Zero()
		st := BlockCG(a, x, rhs, Options{})
		if !st.Converged {
			b.Fatalf("not converged: %+v", st.Stats)
		}
		mul, vec, iters = mul+st.MulSeconds, vec+st.VecSeconds, iters+st.Iterations
	}
	b.ReportMetric(vec/(mul+vec), "vec-share")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric((mul+vec)/float64(iters)*1e6, "µs/iter")
}

// nanAfter is a healthy operator until its nth block multiply, whose
// product carries one NaN.
type nanAfter struct {
	*bcrs.Matrix
	n, muls int
}

func (o *nanAfter) Mul(y, x *multivec.MultiVec) {
	o.Matrix.Mul(y, x)
	if o.muls++; o.muls == o.n {
		y.Data[len(y.Data)/2] = math.NaN()
	}
}

// TestBlockCGNonFinite: a NaN or an Inf in one column of B, or a NaN
// out of the operator mid-solve, ends BlockCG — and BlockCGWithFallback,
// without a rescue — with ErrBreakdown in the iteration it appears in.
// The block iteration used to run all MaxIter = 10n iterations on NaN
// state and return Err == nil.
func TestBlockCGNonFinite(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 300, BlocksPerRow: 6, Seed: 4})
	n, m := a.N(), 4
	for _, tc := range []struct {
		name     string
		poison   float64 // written into one entry of B unless zero
		nanMul   int     // the operator's nanMul-th product carries a NaN
		maxIters int
	}{
		{"NaN rhs", math.NaN(), 0, 0},
		{"Inf rhs", math.Inf(1), 0, 0},
		{"NaN from the operator", 0, 4, 3}, // multiply 1 forms R: the 4th is iteration 3's
	} {
		for name, solve := range map[string]func(BlockOperator, *multivec.MultiVec, *multivec.MultiVec, Options) BlockStats{
			"BlockCG": BlockCG, "BlockCGWithFallback": BlockCGWithFallback,
		} {
			b := multivec.New(n, m)
			for j := 0; j < m; j++ {
				b.SetCol(j, testRHS(n, uint64(40+j)))
			}
			if tc.poison != 0 {
				b.Data[(n/3)*m+2] = tc.poison
			}
			st := solve(&nanAfter{Matrix: a, n: tc.nanMul}, multivec.New(n, m), b, Options{})
			if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Fallback || st.Iterations > tc.maxIters {
				t.Errorf("%s, %s: Err %v, converged %v, fallback %v after %d iterations (want ErrBreakdown within %d)",
					tc.name, name, st.Err, st.Converged, st.Fallback, st.Iterations, tc.maxIters)
			}
		}
	}
}
