package blas

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	a := NewDense(r, c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// randSPD returns a random symmetric positive definite matrix
// A = B*B^T + n*I.
func randSPD(rng *rand.Rand, n int) *Dense {
	b := randDense(rng, n, n)
	a := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestDenseAtSet(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	a.Add(1, 2, 2)
	if a.At(1, 2) != 7 {
		t.Fatal("Add failed")
	}
}

func TestDenseOutOfRangePanics(t *testing.T) {
	a := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.At(2, 0)
}

func TestDenseMatVec(t *testing.T) {
	a := NewDense(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	y := make([]float64, 2)
	a.MatVec(y, x)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec got %v", y)
	}
}

func TestDenseMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 4, 4)
	id := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	p := a.Mul(id)
	for i := range a.Data {
		if p.Data[i] != a.Data[i] {
			t.Fatal("A*I != A")
		}
	}
}

func TestDenseMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 3, 4)
	b := randDense(rng, 4, 5)
	c := randDense(rng, 5, 2)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	for i := range left.Data {
		if !almostEqual(left.Data[i], right.Data[i], 1e-12) {
			t.Fatal("(AB)C != A(BC)")
		}
	}
}

func TestDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 3, 5)
	tt := a.Transpose().Transpose()
	for i := range a.Data {
		if tt.Data[i] != a.Data[i] {
			t.Fatal("transpose not involutive")
		}
	}
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatal("transpose wrong entry")
			}
		}
	}
}

func TestDenseIsSymmetric(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 3})
	if !a.IsSymmetric(0) {
		t.Fatal("symmetric matrix not detected")
	}
	a.Set(0, 1, 2.5)
	if a.IsSymmetric(0.1) {
		t.Fatal("asymmetric matrix passed")
	}
	r := NewDense(2, 3)
	if r.IsSymmetric(1) {
		t.Fatal("non-square matrix cannot be symmetric")
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 12; n++ {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := l.Mul(l.Transpose())
		for i := range a.Data {
			if !almostEqual(p.Data[i], a.Data[i], 1e-10) {
				t.Fatalf("n=%d: L*L^T != A at %d: %v vs %v", n, i, p.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randSPD(rng, 8)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 8)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, 8)
	a.MatVec(b, want)
	x := make([]float64, 8)
	CholeskySolve(l, x, b)
	for i := range x {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("solution mismatch at %d: %v vs %v", i, x[i], want[i])
		}
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 16; n++ {
		a := randDense(rng, n, n)
		// Make it well conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(2*n))
		}
		var f LU
		if err := f.Factor(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := NewDense(n, 1)
		for i := range want.Data {
			want.Data[i] = rng.NormFloat64()
		}
		b := a.Mul(want)
		x := NewDense(n, 1)
		f.SolveMatrixInto(x, b)
		for i := range x.Data {
			if !almostEqual(x.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("n=%d: x[%d]=%v want %v", n, i, x.Data[i], want.Data[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	var f LU
	if err := f.Factor(a); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 6, 3
	a := randSPD(rng, n)
	var f LU
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	want := randDense(rng, n, m)
	b := a.Mul(want)
	x := NewDense(n, m)
	f.SolveMatrixInto(x, b)
	for i := range x.Data {
		if !almostEqual(x.Data[i], want.Data[i], 1e-9) {
			t.Fatal("SolveMatrixInto mismatch")
		}
	}
}

// A reused factorization must forget the matrix (and the pivoting,
// and the failure) it held before, and refactoring at the same size
// must not allocate: block CG does it twice per iteration.
func TestLURefactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 5
	pivoting := randDense(rng, n, n) // needs row swaps, so piv changes
	singular := NewDense(n, n)
	b := randDense(rng, n, 3)
	a := randSPD(rng, n)
	var want LU
	if err := want.Factor(a); err != nil {
		t.Fatal(err)
	}

	var f LU
	if err := f.Factor(pivoting); err != nil {
		t.Fatal(err)
	}
	if err := f.Factor(singular); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	x := NewDense(n, 3)
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		f.SolveMatrixInto(x, b)
	})
	if allocs != 0 {
		t.Errorf("Factor + SolveMatrixInto at a reused size allocate %v times", allocs)
	}
	fresh := NewDense(n, 3)
	want.SolveMatrixInto(fresh, b)
	for i := range x.Data {
		if x.Data[i] != fresh.Data[i] {
			t.Fatalf("reused factorization solves element %d to %v, a fresh one to %v", i, x.Data[i], fresh.Data[i])
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	w, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range w {
		if !almostEqual(w[i], want[i], 1e-12) {
			t.Fatalf("eigenvalues %v, want %v", w, want)
		}
	}
}

func TestEigenSymReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 1; n <= 10; n++ {
		a := randSPD(rng, n)
		w, v, err := EigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Check A*v_j = w_j*v_j for each eigenpair.
		for j := 0; j < n; j++ {
			col := make([]float64, n)
			for i := 0; i < n; i++ {
				col[i] = v.At(i, j)
			}
			av := make([]float64, n)
			a.MatVec(av, col)
			for i := 0; i < n; i++ {
				if !almostEqual(av[i], w[j]*col[i], 1e-8) {
					t.Fatalf("n=%d eigenpair %d violated: %v vs %v", n, j, av[i], w[j]*col[i])
				}
			}
		}
		// Eigenvectors orthonormal.
		for j := 0; j < n; j++ {
			for k := j; k < n; k++ {
				var s float64
				for i := 0; i < n; i++ {
					s += v.At(i, j) * v.At(i, k)
				}
				want := 0.0
				if j == k {
					want = 1
				}
				if !almostEqual(s, want, 1e-10) {
					t.Fatalf("eigenvectors not orthonormal: v%d.v%d = %v", j, k, s)
				}
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 5, 0, 1})
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestSymSqrtApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 7)
	z := make([]float64, 7)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	y, err := SymSqrtApply(a, z)
	if err != nil {
		t.Fatal(err)
	}
	// Applying sqrt twice must equal A*z.
	y2, err := SymSqrtApply(a, y)
	if err != nil {
		t.Fatal(err)
	}
	az := make([]float64, 7)
	a.MatVec(az, z)
	for i := range az {
		if !almostEqual(y2[i], az[i], 1e-8) {
			t.Fatalf("sqrt(A)^2 z != A z at %d: %v vs %v", i, y2[i], az[i])
		}
	}
}

func TestExtremeEigSym(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{2, 1, 1, 2}) // eigenvalues 1 and 3
	lo, hi, err := ExtremeEigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lo, 1, 1e-12) || !almostEqual(hi, 3, 1e-12) {
		t.Fatalf("extremes (%v, %v), want (1, 3)", lo, hi)
	}
}

func TestMat3Ops(t *testing.T) {
	m := Mat3{1, 2, 3, 4, 5, 6, 7, 8, 9}
	v := Vec3{1, 0, -1}
	got := m.MulV(v)
	want := Vec3{-2, -2, -2}
	if got != want {
		t.Fatalf("MulV = %v, want %v", got, want)
	}
	if m.Transpose3().Transpose3() != m {
		t.Fatal("Transpose3 not involutive")
	}
	if Ident3().MulV(v) != v {
		t.Fatal("I*v != v")
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add wrong")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale wrong")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEqual((Vec3{3, 4, 0}).Norm(), 5, 1e-15) {
		t.Fatal("Norm wrong")
	}
}

func TestAxialTensorDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		d := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		n := d.Norm()
		if n == 0 {
			continue
		}
		d = d.Scale(1 / n)
		xa, ya := 2+rng.Float64(), 1+rng.Float64()
		m := AxialTensor(xa, ya, d)
		// Along d the tensor acts as xa.
		md := m.MulV(d)
		for i := 0; i < 3; i++ {
			if !almostEqual(md[i], xa*d[i], 1e-12) {
				t.Fatalf("axial action wrong: %v vs %v", md[i], xa*d[i])
			}
		}
		// Transverse vectors are scaled by ya.
		perp := Vec3{-d[1], d[0], 0}
		if perp.Norm() < 1e-8 {
			perp = Vec3{0, -d[2], d[1]}
		}
		mp := m.MulV(perp)
		for i := 0; i < 3; i++ {
			if !almostEqual(mp[i], ya*perp[i], 1e-12) {
				t.Fatalf("transverse action wrong")
			}
		}
		if m != m.Transpose3() {
			t.Fatal("axial tensor must be symmetric")
		}
	}
}

func TestOuterTrace(t *testing.T) {
	d := Vec3{1 / math.Sqrt(3), 1 / math.Sqrt(3), 1 / math.Sqrt(3)}
	o := Outer(d)
	tr := o[0] + o[4] + o[8]
	if !almostEqual(tr, 1, 1e-14) {
		t.Fatalf("trace of unit outer product = %v, want 1", tr)
	}
}
