package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
)

func spdMatrix(seed uint64, nb int, bpr float64) *bcrs.Matrix {
	return bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: bpr, Seed: seed})
}

func randVec(seed int64, n int) []float64 {
	rnd := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rnd.NormFloat64()
	}
	return v
}

func residual(a *bcrs.Matrix, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	blas.Sub(r, b, r)
	return blas.Nrm2(r) / blas.Nrm2(b)
}

func TestCGSolves(t *testing.T) {
	a := spdMatrix(1, 60, 6)
	b := randVec(2, a.N())
	x := make([]float64, a.N())
	st := CG(a, x, b, Options{Tol: 1e-10})
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	if res := residual(a, x, b); res > 1e-9 {
		t.Fatalf("CG residual %v", res)
	}
	if st.MatMuls != st.Iterations {
		t.Fatalf("CG from a zero guess should do 1 SPMV per iteration and none for the initial residual: %+v", st)
	}
}

func TestCGWarmStartReducesIterations(t *testing.T) {
	// The heart of the MRHS idea: a good initial guess means fewer
	// iterations.
	a := spdMatrix(3, 80, 8)
	b := randVec(4, a.N())
	cold := make([]float64, a.N())
	stCold := CG(a, cold, b, Options{})
	// Warm start: the exact solution slightly perturbed.
	warm := append([]float64(nil), cold...)
	rnd := rand.New(rand.NewSource(5))
	for i := range warm {
		warm[i] += 1e-4 * rnd.NormFloat64() * (1 + math.Abs(warm[i]))
	}
	stWarm := CG(a, warm, b, Options{})
	if !stWarm.Converged {
		t.Fatal("warm CG did not converge")
	}
	if stWarm.Iterations >= stCold.Iterations {
		t.Fatalf("warm start did not help: %d vs %d iterations",
			stWarm.Iterations, stCold.Iterations)
	}
}

func TestCGExactGuessConvergesImmediately(t *testing.T) {
	a := spdMatrix(6, 40, 5)
	want := randVec(7, a.N())
	b := make([]float64, a.N())
	a.MulVec(b, want)
	x := append([]float64(nil), want...)
	st := CG(a, x, b, Options{})
	if !st.Converged || st.Iterations != 0 {
		t.Fatalf("exact guess should converge with 0 iterations: %+v", st)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := spdMatrix(8, 30, 4)
	x := randVec(9, a.N())
	b := make([]float64, a.N())
	st := CG(a, x, b, Options{})
	if !st.Converged {
		t.Fatal("zero RHS must converge")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS must produce zero solution")
		}
	}
}

func TestCGMaxIterCap(t *testing.T) {
	a := spdMatrix(10, 60, 8)
	b := randVec(11, a.N())
	x := make([]float64, a.N())
	st := CG(a, x, b, Options{Tol: 1e-14, MaxIter: 2})
	if st.Converged {
		t.Fatal("2 iterations should not converge to 1e-14")
	}
	if st.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", st.Iterations)
	}
}

func TestBlockCGMatchesColumnwiseCG(t *testing.T) {
	a := spdMatrix(14, 50, 6)
	m := 5
	b := multivec.New(a.N(), m)
	rnd := rand.New(rand.NewSource(15))
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	x := multivec.New(a.N(), m)
	st := BlockCG(nil, a, x, b, Options{Tol: 1e-10})
	if !st.Converged {
		t.Fatalf("BlockCG did not converge: %+v", st.Stats)
	}
	for j := 0; j < m; j++ {
		ref := make([]float64, a.N())
		bcol := b.ColVector(j)
		CG(a, ref, bcol, Options{Tol: 1e-12})
		for i := 0; i < a.N(); i++ {
			if math.Abs(x.At(i, j)-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
				t.Fatalf("column %d differs from CG at %d: %v vs %v",
					j, i, x.At(i, j), ref[i])
			}
		}
	}
}

func TestBlockCGOneGSPMVPerIteration(t *testing.T) {
	a := spdMatrix(16, 60, 8)
	b := multivec.New(a.N(), 4)
	rnd := rand.New(rand.NewSource(17))
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	x := multivec.New(a.N(), 4)
	st := BlockCG(nil, a, x, b, Options{})
	if st.MatMuls != st.Iterations { // a zero guess: no entry multiply
		t.Fatalf("BlockCG must cost one GSPMV per iteration: %+v", st.Stats)
	}
}

func TestBlockCGFewerIterationsThanCG(t *testing.T) {
	// Block CG searches an m-times larger Krylov space per
	// iteration; it should need no more (usually fewer) iterations
	// than single-vector CG on the same matrix.
	a := spdMatrix(18, 80, 10)
	m := 8
	b := multivec.New(a.N(), m)
	rnd := rand.New(rand.NewSource(19))
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	x := multivec.New(a.N(), m)
	stBlock := BlockCG(nil, a, x, b, Options{})
	single := make([]float64, a.N())
	stSingle := CG(a, single, b.ColVector(0), Options{})
	if stBlock.Iterations > stSingle.Iterations {
		t.Fatalf("block CG took more iterations (%d) than CG (%d)",
			stBlock.Iterations, stSingle.Iterations)
	}
}

func TestBlockCGZeroColumn(t *testing.T) {
	a := spdMatrix(20, 40, 5)
	m := 3
	b := multivec.New(a.N(), m)
	rnd := rand.New(rand.NewSource(21))
	for i := 0; i < a.N(); i++ {
		b.Set(i, 0, rnd.NormFloat64())
		// Column 1 stays zero.
		b.Set(i, 2, rnd.NormFloat64())
	}
	// From a zero guess, and from a guess whose zero column is not zero:
	// its residual is zero all the same.
	for _, guess := range []float64{0, 1} {
		x := multivec.New(a.N(), m)
		for i := range x.Data {
			x.Data[i] = guess
		}
		st := BlockCG(nil, a, x, b, Options{})
		if !st.Converged {
			t.Fatalf("guess %v: BlockCG with zero column did not converge: %+v", guess, st.Stats)
		}
		for i := 0; i < a.N(); i++ {
			if x.At(i, 1) != 0 {
				t.Fatalf("guess %v: zero column must have zero solution", guess)
			}
		}
	}
}

func TestBlockCGRepeatedColumns(t *testing.T) {
	// Identical right-hand sides provoke the rank-deficiency
	// breakdown; the regularized solver must still deliver correct
	// solutions for both columns.
	a := spdMatrix(22, 40, 6)
	col := randVec(23, a.N())
	b := multivec.FromColumns(col, col)
	x := multivec.New(a.N(), 2)
	st := BlockCG(nil, a, x, b, Options{})
	ref := make([]float64, a.N())
	CG(a, ref, col, Options{Tol: 1e-10})
	for j := 0; j < 2; j++ {
		for i := 0; i < a.N(); i++ {
			if math.Abs(x.At(i, j)-ref[i]) > 1e-4*(1+math.Abs(ref[i])) {
				t.Fatalf("repeated-column solve wrong (converged=%v, res=%v)",
					st.Converged, st.Residual)
			}
		}
	}
}

func TestBlockCGWarmStart(t *testing.T) {
	a := spdMatrix(24, 60, 8)
	m := 4
	b := multivec.New(a.N(), m)
	rnd := rand.New(rand.NewSource(25))
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	cold := multivec.New(a.N(), m)
	stCold := BlockCG(nil, a, cold, b, Options{})
	warm := cold.Clone()
	for i := range warm.Data {
		warm.Data[i] *= 1 + 1e-5*rnd.NormFloat64()
	}
	stWarm := BlockCG(nil, a, warm, b, Options{})
	if stWarm.Iterations >= stCold.Iterations {
		t.Fatalf("warm block start did not help: %d vs %d",
			stWarm.Iterations, stCold.Iterations)
	}
}

func TestBlockPCGMatchesBlockCG(t *testing.T) {
	a := spdMatrix(36, 60, 8)
	m := 4
	b := multivec.New(a.N(), m)
	rnd := rand.New(rand.NewSource(37))
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	plain := multivec.New(a.N(), m)
	stPlain := BlockCG(nil, a, plain, b, Options{Tol: 1e-10})
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	pre := multivec.New(a.N(), m)
	stPre := BlockCG(nil, a, pre, b, Options{Tol: 1e-10, Precond: ic})
	if !stPre.Converged {
		t.Fatal("block PCG stalled")
	}
	for i := range plain.Data {
		if math.Abs(plain.Data[i]-pre.Data[i]) > 1e-6*(1+math.Abs(plain.Data[i])) {
			t.Fatal("block PCG solution differs from block CG")
		}
	}
	if stPre.Iterations >= stPlain.Iterations {
		t.Fatalf("IC0 did not accelerate block CG: %d vs %d",
			stPre.Iterations, stPlain.Iterations)
	}
}
