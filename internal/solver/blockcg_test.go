package solver

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// An unreachable tolerance makes BlockCG run exactly MaxIter
// iterations, so the allocation count of a call can be compared
// across iteration counts. The calls share one workspace, which the
// count's own first call warms. The count runs on a default pool of the
// given threads; on more than one, a worker that parks its goroutine
// inside AllocsPerRun can charge the runtime's allocation to the call
// at random (TestDispatchDoesNotAllocate pins the pool's own contract).
func blockCGAllocs(threads int, a *bcrs.Matrix, b *multivec.MultiVec, opt Options) float64 {
	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(threads)
	x, ws := multivec.New(b.N, b.M), new(Workspace)
	return testing.AllocsPerRun(5, func() {
		x.Zero()
		if st := BlockCG(ws, a, x, b, opt); st.Iterations != opt.MaxIter {
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
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Tol: 1e-300}},
		{"preconditioned", Options{Tol: 1e-300, Precond: ic}},
	} {
		short, long := tc.opt, tc.opt
		short.MaxIter, long.MaxIter = 2, 12
		few, many := blockCGAllocs(1, a, b, short), blockCGAllocs(1, a, b, long)
		if few != many {
			t.Errorf("%s: %v allocations for 2 iterations, %v for 12: the iteration allocates", tc.name, few, many)
		}
		// What is left per call: the stats' three per-column slices
		// and the closures over them.
		if few > 8 {
			t.Errorf("%s: a warmed call allocates %v times, want <= 8", tc.name, few)
		}
	}

	// On a two-thread pool the SD system's solve (N = 1000, m = 16)
	// splits its block updates over the pool, and its Gram products and
	// norms sum fixed row chunks: every split runs a
	// bound function on a recycled job, so an iteration allocates
	// nothing there either. The slack of 5 is for the runtime's own
	// allocations a parking worker may charge to the call (the sudog
	// of DESIGN §12, "PR 51"), not for the solve's.
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sd := hydro.Build(sys, hydro.Options{Phi: 0.4})
	rhs := multivec.New(sd.N(), 16)
	rng.New(12).FillNormal(rhs.Data)
	short, long := Options{Tol: 1e-300, MaxIter: 2}, Options{Tol: 1e-300, MaxIter: 12}
	few, many := blockCGAllocs(2, sd, rhs, short), blockCGAllocs(2, sd, rhs, long)
	t.Logf("two threads: %v allocations for 2 iterations, %v for 12", few, many)
	if many > few+5 {
		t.Errorf("two threads: the iteration allocates")
	}
}

// A rank-deficient block (two equal right-hand sides) drops a direction
// before its first iteration and runs the breakdown-free form at width
// 1 from then on, which must not allocate either.
func TestBlockCGDropPathDoesNotAllocate(t *testing.T) {
	a := spdMatrix(33, 40, 6)
	col := randVec(34, a.N())
	b := multivec.FromColumns(col, col)
	opt := Options{Tol: 1e-300}
	short, long := opt, opt
	short.MaxIter, long.MaxIter = 2, 8
	if st := BlockCG(nil, a, multivec.New(a.N(), 2), b, short); st.Dropped == 0 {
		t.Fatal("no direction dropped: the test needs a rank-deficient block")
	}
	if few, many := blockCGAllocs(1, a, b, short), blockCGAllocs(1, a, b, long); few != many {
		t.Errorf("%v allocations for 2 iterations, %v for 8", few, many)
	}
}

// A starved block solve (MaxIter too small to converge) is not an
// error: it returns the iterate it reached with Converged == false and
// Err == nil, and the caller decides. core fails the chunk with its
// stalled error (TestStarvedBlockSolveFailsTheChunk).
func TestBlockCGStarvedSolve(t *testing.T) {
	a := spdMatrix(3, 80, 6)
	n, m := a.N(), 4
	b := multivec.New(n, m)
	for j := 0; j < m; j++ {
		b.SetCol(j, randVec(int64(10+j), n))
	}
	st := BlockCG(nil, a, multivec.New(n, m), b, Options{Tol: 1e-8, MaxIter: 2})
	if st.Converged || st.Err != nil || st.Iterations != 2 {
		t.Fatalf("converged %v, Err %v after %d iterations: want an unconverged, error-free return after 2", st.Converged, st.Err, st.Iterations)
	}
	if len(st.ColumnResiduals) != m || st.Residual <= 1e-8 {
		t.Errorf("ColumnResiduals %v, Residual %g: want %d columns, the worst above tolerance", st.ColumnResiduals, st.Residual, m)
	}
}

// TestBlockCGDependentColumns: blocks whose columns are dependent —
// duplicated, scaled by 1e-3, zero, a linear combination, all four
// equal, or already solved by their guess — converge in no more
// iterations than the block of independent columns on the same matrix,
// plain and through IC(0), with every column meeting the tolerance by
// its true residual. Before the rank test the 1e-3-scaled block ran out
// its 6000-iteration budget at residual 4e6 and needed a per-column CG
// rescue.
func TestBlockCGDependentColumns(t *testing.T) {
	a := spdMatrix(3, 200, 6)
	n := a.N()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-8
	c0, c1, c2 := randVec(1, n), randVec(2, n), randVec(3, n)
	scaled, comb := make([]float64, n), make([]float64, n)
	for i := range scaled {
		scaled[i] = 1e-3 * c0[i]
		comb[i] = c0[i] - 2*c2[i]
	}
	// The already-solved column: b_1 = A*x_1 by the block multiply, so
	// the solve's first residual of column 1 is zero.
	solvedB := multivec.New(n, 3)
	a.Mul(solvedB, multivec.FromColumns(c0, c1, c2))
	solvedB.SetCol(0, c0)
	solvedB.SetCol(2, c2)
	solvedGuess := multivec.New(n, 3)
	solvedGuess.SetCol(1, c1)

	for _, pc := range []struct {
		name    string
		precond Preconditioner
	}{{"plain", nil}, {"ic0", ic}} {
		opt := Options{Tol: tol, Precond: pc.precond}
		indep := BlockCG(nil, a, multivec.New(n, 3), multivec.FromColumns(c0, c1, c2), opt)
		if !indep.Converged || indep.Dropped != 0 {
			t.Fatalf("%s: independent block converged %v with %d dropped", pc.name, indep.Converged, indep.Dropped)
		}
		for _, tc := range []struct {
			name  string
			b     *multivec.MultiVec
			guess *multivec.MultiVec
		}{
			{"duplicated", multivec.FromColumns(c0, c0, c2), nil},
			{"scaled 1e-3", multivec.FromColumns(c0, scaled, c2), nil},
			{"zero", multivec.FromColumns(c0, make([]float64, n), c2), nil},
			{"linear combination", multivec.FromColumns(c0, comb, c2), nil},
			{"all equal", multivec.FromColumns(c0, c0, c0, c0), nil},
			{"already solved", solvedB, solvedGuess},
		} {
			x := multivec.New(n, tc.b.M)
			if tc.guess != nil {
				x.CopyFrom(tc.guess)
			}
			st := BlockCG(nil, a, x, tc.b, opt)
			if st.Err != nil || !st.Converged || st.Dropped == 0 || st.Iterations > indep.Iterations {
				t.Errorf("%s, %s: Err %v, converged %v, %d dropped, %d iterations (independent block: %d)",
					pc.name, tc.name, st.Err, st.Converged, st.Dropped, st.Iterations, indep.Iterations)
			}
			for j := 0; j < tc.b.M; j++ {
				if blas.Nrm2(tc.b.ColVector(j)) == 0 {
					if blas.Nrm2(x.ColVector(j)) != 0 {
						t.Errorf("%s, %s: zero column %d has a nonzero solution", pc.name, tc.name, j)
					}
					continue
				}
				if r := residual(a, x.ColVector(j), tc.b.ColVector(j)); !(r <= 10*tol) {
					t.Errorf("%s, %s: column %d true residual %g", pc.name, tc.name, j, r)
				}
			}
		}
	}
}

func TestBlockStatsSplitsMultiplyAndVectorTime(t *testing.T) {
	a := spdMatrix(35, 60, 6)
	b := multivec.New(a.N(), 4)
	rng.New(36).FillNormal(b.Data)
	st := BlockCG(nil, a, multivec.New(a.N(), 4), b, Options{})
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
		st := BlockCG(nil, a, x, rhs, Options{})
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
// out of the operator mid-solve, ends BlockCG with ErrBreakdown in the
// iteration it appears in, with no direction dropped: the rank test
// must not drop a poisoned column and carry on with the healthy ones.
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
		{"NaN from the operator", 0, 3, 3}, // zero guesses form R with no multiply: the 3rd is iteration 3's
	} {
		b := multivec.New(n, m)
		for j := 0; j < m; j++ {
			b.SetCol(j, testRHS(n, uint64(40+j)))
		}
		if tc.poison != 0 {
			b.Data[(n/3)*m+2] = tc.poison
		}
		st := BlockCG(nil, &nanAfter{Matrix: a, n: tc.nanMul}, multivec.New(n, m), b, Options{})
		if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Dropped != 0 || st.Iterations > tc.maxIters {
			t.Errorf("%s: Err %v, converged %v, %d dropped after %d iterations (want ErrBreakdown within %d)",
				tc.name, st.Err, st.Converged, st.Dropped, st.Iterations, tc.maxIters)
		}
	}
}

// TestBlockCGZeroGuessNaNOperator: a zero guess block forms R = B with
// no multiply, so an operator with a NaN entry no longer shows it in the
// entry residual; the solve must still end with ErrBreakdown in its
// first iteration's PᵀAP, with one multiply, none of its iterations
// done and X still zero. From a nonzero guess the entry residual shows
// it.
func TestBlockCGZeroGuessNaNOperator(t *testing.T) {
	a := nanOperator(20)
	n, m := a.N(), 4
	b := multivec.New(n, m)
	rng.New(41).FillNormal(b.Data)
	x := multivec.New(n, m)
	x.Data[0] = math.Copysign(0, -1)
	st := BlockCG(nil, a, x, b, Options{})
	if !errors.Is(st.Err, ErrBreakdown) || st.Converged || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("zero guess: Err %v, converged %v, %d iterations, %d multiplies", st.Err, st.Converged, st.Iterations, st.MatMuls)
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("zero guess: x[%d] = %v, want 0", i, v)
		}
	}
	warm := multivec.New(n, m)
	rng.New(42).FillNormal(warm.Data)
	if st := BlockCG(nil, a, warm, b, Options{}); !errors.Is(st.Err, ErrBreakdown) || st.Iterations != 0 || st.MatMuls != 1 {
		t.Fatalf("nonzero guess: Err %v, %d iterations, %d multiplies", st.Err, st.Iterations, st.MatMuls)
	}
}

// blockCGDigest is the FNV-64a digest of a block solve's outcome: the
// iterate's bits, the iteration and multiply counts and every column's
// final residual.
func blockCGDigest(x *multivec.MultiVec, st BlockStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range x.Data {
		word(math.Float64bits(v))
	}
	word(uint64(st.Iterations))
	word(uint64(st.MatMuls))
	for _, r := range st.ColumnResiduals {
		word(math.Float64bits(r))
	}
	return h.Sum64()
}

// TestBlockCGPinned pins BlockCG's bits on the SD benchmark's system —
// the N = 1000 resistance matrix at φ = 0.4, m = 16, one thread —
// unpreconditioned and through IC(0), from a zero and from a random
// guess. The digests were recorded before the rank test went in: a
// block whose directions stay independent, which is every SD chunk,
// must run the O'Leary recurrence it always ran, to the last bit. The
// two cold digests were re-recorded when a zero guess block stopped
// paying its entry multiply: the iterate and residuals kept their bits,
// and the old pins are the new digests with MatMuls + 1. All four were
// re-recorded when the general multiply began fusing its block rows'
// multiply-adds (bcrs's spmv1 recurrence): the bits moved, the iteration counts
// (71, 99, 11, 15) held. They were re-recorded again, with the same
// counts, when the lane reductions (its norms) took multivec's
// eight-partial order.
func TestBlockCGPinned(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(1)
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := hydro.Build(sys, hydro.Options{Phi: 0.4})
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const m = 16
	n := a.N()
	b := multivec.New(n, m)
	rng.New(12).FillNormal(b.Data)
	guess := multivec.New(n, m)
	rng.New(13).FillNormal(guess.Data)
	for _, tc := range []struct {
		name    string
		precond Preconditioner
		warm    bool
		want    uint64
	}{
		{"plain/cold", nil, false, 0x61a51b8978d16ff1},
		{"plain/warm", nil, true, 0x879edd297d0159d6},
		{"ic0/cold", ic, false, 0x583bfe9911cf51c9},
		{"ic0/warm", ic, true, 0x7ec69b98c004ab1c},
	} {
		x := multivec.New(n, m)
		if tc.warm {
			x.CopyFrom(guess)
		}
		st := BlockCG(nil, a, x, b, Options{Tol: 1e-8, Precond: tc.precond})
		if !st.Converged || st.Err != nil {
			t.Fatalf("%s: converged %v, Err %v", tc.name, st.Converged, st.Err)
		}
		if got := blockCGDigest(x, st); got != tc.want {
			t.Errorf("%s: digest %#016x after %d iterations, pinned %#016x", tc.name, got, st.Iterations, tc.want)
		}
	}
}
