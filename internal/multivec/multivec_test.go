package multivec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
)

func randMV(rng *rand.Rand, n, m int) *MultiVec {
	v := New(n, m)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	return v
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRowMajorLayout(t *testing.T) {
	v := New(3, 2)
	v.Set(1, 0, 5)
	v.Set(1, 1, 7)
	// Row-major: row 1 occupies Data[2:4].
	if v.Data[2] != 5 || v.Data[3] != 7 {
		t.Fatalf("layout not row-major: %v", v.Data)
	}
	r := v.Row(1)
	if r[0] != 5 || r[1] != 7 {
		t.Fatalf("Row(1) = %v", r)
	}
}

func TestColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := randMV(rng, 10, 4)
	col := make([]float64, 10)
	v.Col(2, col)
	w := New(10, 4)
	w.SetCol(2, col)
	for i := 0; i < 10; i++ {
		if w.At(i, 2) != v.At(i, 2) {
			t.Fatal("Col/SetCol round trip failed")
		}
	}
}

func TestFromColumns(t *testing.T) {
	c0 := []float64{1, 2, 3}
	c1 := []float64{4, 5, 6}
	v := FromColumns(c0, c1)
	if v.N != 3 || v.M != 2 {
		t.Fatalf("dims %dx%d", v.N, v.M)
	}
	if v.At(1, 0) != 2 || v.At(2, 1) != 6 {
		t.Fatal("FromColumns wrong entries")
	}
}

func TestFromVectorAliases(t *testing.T) {
	x := []float64{1, 2, 3}
	v := FromVector(x)
	v.Set(1, 0, 9)
	if x[1] != 9 {
		t.Fatal("FromVector must alias the input")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(2, 2)
	v.Set(0, 0, 1)
	c := v.Clone()
	c.Set(0, 0, 2)
	if v.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSubAddScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMV(rng, 5, 3)
	d := New(5, 3)
	d.CopyFrom(a)
	d.Scale(2)
	for i := range d.Data {
		if !almostEqual(d.Data[i], 2*a.Data[i], 1e-14) {
			t.Fatal("Scale wrong")
		}
	}
	d.Zero()
	for _, x := range d.Data {
		if x != 0 {
			t.Fatal("Zero left data")
		}
	}
}

// denseOf converts a multivector to a blas.Dense for oracle checks.
func denseOf(v *MultiVec) *blas.Dense {
	d := blas.NewDense(v.N, v.M)
	for i := 0; i < v.N; i++ {
		copy(d.Row(i), v.Row(i))
	}
	return d
}

// gram returns X^T * Y in a fresh matrix.
func gram(x, y *MultiVec) *blas.Dense {
	g := blas.NewDense(x.M, y.M)
	GramInto(g, x, y)
	return g
}

func TestGramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		mx := 1 + rng.Intn(5)
		my := 1 + rng.Intn(5)
		x := randMV(rng, n, mx)
		y := randMV(rng, n, my)
		g := gram(x, y)
		ref := denseOf(x).Transpose().Mul(denseOf(y))
		for i := range g.Data {
			if !almostEqual(g.Data[i], ref.Data[i], 1e-12) {
				t.Fatal("Gram disagrees with dense X^T Y")
			}
		}
	}
}

func TestAddMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		mx := 1 + rng.Intn(5)
		mv := 1 + rng.Intn(5)
		v := randMV(rng, n, mv)
		x := randMV(rng, n, mx)
		a := blas.NewDense(mx, mv)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		ref := denseOf(v)
		xa := denseOf(x).Mul(a)
		v.AddMul(x, a)
		for i := 0; i < n; i++ {
			for j := 0; j < mv; j++ {
				want := ref.At(i, j) + xa.At(i, j)
				if !almostEqual(v.At(i, j), want, 1e-12) {
					t.Fatal("AddMul disagrees with dense")
				}
			}
		}
	}
}

func TestSetMulAddMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 12, 4
	r := randMV(rng, n, m)
	p := randMV(rng, n, m)
	b := blas.NewDense(m, m)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	v := New(n, m)
	v.SetMulAdd(r, p, b)
	pb := denseOf(p).Mul(b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			want := r.At(i, j) + pb.At(i, j)
			if !almostEqual(v.At(i, j), want, 1e-12) {
				t.Fatal("SetMulAdd disagrees with dense")
			}
		}
	}
}

func TestGramSymmetricProperty(t *testing.T) {
	// X^T X must be symmetric positive semidefinite.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := 1 + rng.Intn(6)
		x := randMV(rng, n, m)
		g := gram(x, x)
		if !g.IsSymmetric(1e-10) {
			return false
		}
		// Diagonal entries are squared column norms: nonnegative.
		for i := 0; i < m; i++ {
			if g.At(i, i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	v := New(3, 2)
	w := New(4, 2)
	for name, fn := range map[string]func(){
		"CopyFrom": func() { v.CopyFrom(w) },
		"Gram":     func() { GramInto(blas.NewDense(2, 2), v, w) },
		"Col":      func() { v.Col(0, make([]float64, 2)) },
		"SetCol":   func() { v.SetCol(5, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
