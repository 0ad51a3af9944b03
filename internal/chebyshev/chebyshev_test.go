package chebyshev

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/rng"
)

func TestCoefficientsReproduceFunction(t *testing.T) {
	c := Coefficients(math.Sqrt, 0.5, 4, 24)
	for _, x := range []float64{0.5, 0.8, 1.7, 3.2, 4} {
		got := Eval(c, 0.5, 4, x)
		if math.Abs(got-math.Sqrt(x)) > 1e-8 {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, math.Sqrt(x))
		}
	}
}

func TestCoefficientsDecay(t *testing.T) {
	c := Coefficients(math.Sqrt, 1, 10, 40)
	if math.Abs(c[40]) > 1e-10*math.Abs(c[0]) {
		t.Fatalf("high-order coefficient %v did not decay", c[40])
	}
}

func TestEvalLinearFunctionExact(t *testing.T) {
	// A degree-1 polynomial is represented exactly by any order >= 1.
	f := func(x float64) float64 { return 3*x - 2 }
	c := Coefficients(f, -1, 5, 6)
	for _, x := range []float64{-1, 0, 2, 5} {
		if got := Eval(c, -1, 5, x); math.Abs(got-f(x)) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, f(x))
		}
	}
}

// randSPDMatrix returns a small SPD BCRS matrix and its spectrum
// bracket.
func randSPDMatrix(seed int64, nb int) (*bcrs.Matrix, float64, float64) {
	a := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 4, Seed: uint64(seed)})
	lo, hi := a.GershgorinInterval()
	if lo <= 0 {
		lo = 1e-6
	}
	return a, lo, hi
}

func TestGershgorinBracketsSpectrum(t *testing.T) {
	a, _, _ := randSPDMatrix(1, 12)
	lo, hi := a.GershgorinInterval()
	emin, emax, err := blas.ExtremeEigSym(a.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if emin < lo-1e-10 || emax > hi+1e-10 {
		t.Fatalf("Gershgorin [%v, %v] does not contain spectrum [%v, %v]", lo, hi, emin, emax)
	}
}

func TestApplyMatchesDenseSqrt(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a, lo, hi := randSPDMatrix(seed, 10)
		op, err := NewSqrt(a, lo, hi, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, a.N())
		rng.Substream(uint64(seed), 1).FillNormal(z)
		y := make([]float64, a.N())
		op.Apply(y, z)
		ref, err := blas.SymSqrtApply(a.Dense(), z)
		if err != nil {
			t.Fatal(err)
		}
		num := 0.0
		den := 0.0
		for i := range y {
			num += (y[i] - ref[i]) * (y[i] - ref[i])
			den += ref[i] * ref[i]
		}
		if rel := math.Sqrt(num / den); rel > 1e-6 {
			t.Fatalf("seed %d: Chebyshev sqrt relative error %v", seed, rel)
		}
	}
}

func TestApplySquaredIsMatrix(t *testing.T) {
	// S(A) approximates sqrt(A): applying twice must reproduce A*z.
	a, lo, hi := randSPDMatrix(5, 15)
	op, err := NewSqrt(a, lo, hi, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, a.N())
	rng.New(9).FillNormal(z)
	y1 := make([]float64, a.N())
	op.Apply(y1, z)
	y2 := make([]float64, a.N())
	op.Apply(y2, y1)
	az := make([]float64, a.N())
	a.MulVec(az, z)
	var num, den float64
	for i := range az {
		num += (y2[i] - az[i]) * (y2[i] - az[i])
		den += az[i] * az[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-5 {
		t.Fatalf("S(A)^2 z != A z: relative error %v", rel)
	}
}

func TestApplyBlockMatchesColumnwise(t *testing.T) {
	a, lo, hi := randSPDMatrix(6, 12)
	op, err := NewSqrt(a, lo, hi, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := 7
	z := multivec.New(a.N(), m)
	rng.New(11).FillNormal(z.Data)
	y := multivec.New(a.N(), m)
	op.ApplyBlock(y, z)
	for j := 0; j < m; j++ {
		zc := z.ColVector(j)
		yc := make([]float64, a.N())
		op.Apply(yc, zc)
		for i := range yc {
			if math.Abs(y.At(i, j)-yc[i]) > 1e-10*(1+math.Abs(yc[i])) {
				t.Fatalf("block apply column %d differs at %d", j, i)
			}
		}
	}
}

func TestAdaptiveTruncation(t *testing.T) {
	a, lo, hi := randSPDMatrix(7, 12)
	full, err := NewSqrt(a, lo, hi, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := NewSqrt(a, lo, hi, 60, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Order() >= full.Order() {
		t.Fatalf("truncation did not shorten the series: %d vs %d", trunc.Order(), full.Order())
	}
	// Truncated result still accurate.
	z := make([]float64, a.N())
	rng.New(13).FillNormal(z)
	yf := make([]float64, a.N())
	yt := make([]float64, a.N())
	full.Apply(yf, z)
	trunc.Apply(yt, z)
	var num, den float64
	for i := range yf {
		num += (yf[i] - yt[i]) * (yf[i] - yt[i])
		den += yf[i] * yf[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-6 {
		t.Fatalf("truncated series error %v", rel)
	}
}

func TestNewSqrtAuto(t *testing.T) {
	a, lo, _ := randSPDMatrix(8, 10)
	op, err := NewSqrtAuto(a, a, lo, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	lmin, lmax := op.Interval()
	emin, emax, err := blas.ExtremeEigSym(a.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if emin < lmin-1e-10 || emax > lmax+1e-10 {
		t.Fatalf("auto interval [%v, %v] misses spectrum [%v, %v]", lmin, lmax, emin, emax)
	}
}

func TestNewSqrtRejectsBadInterval(t *testing.T) {
	a, _, _ := randSPDMatrix(9, 6)
	if _, err := NewSqrt(a, 0, 1, 10, 0); err == nil {
		t.Fatal("lmin=0 must fail")
	}
	if _, err := NewSqrt(a, 2, 1, 10, 0); err == nil {
		t.Fatal("lmin>lmax must fail")
	}
	// Non-finite bounds are errors too, not NaN coefficients.
	for _, b := range [][2]float64{{1, math.Inf(1)}, {1, math.NaN()}, {math.NaN(), 2}, {math.Inf(1), math.Inf(1)}, {math.Inf(-1), 2}} {
		if _, err := NewSqrt(a, b[0], b[1], 10, 0); err == nil {
			t.Fatalf("interval [%v, %v] must fail", b[0], b[1])
		}
	}
}

// TestCoefficientsFromTableMatchDirectSums: the cosines Coefficients
// now reads from a table kept per order are the ones it used to
// evaluate on every call, so the coefficients keep their bits — on the
// first call at an order, which fills the table, and on the next.
func TestCoefficientsFromTableMatchDirectSums(t *testing.T) {
	for _, order := range []int{0, 1, 7, 30, 31} {
		np := order + 1
		a, b := 1208.0, 3.13e6
		want := make([]float64, np)
		for j := range want {
			var s float64
			for k := 0; k < np; k++ {
				x := 0.5*(b-a)*math.Cos(math.Pi*(float64(k)+0.5)/float64(np)) + 0.5*(b+a)
				s += math.Sqrt(x) * math.Cos(math.Pi*float64(j)*(float64(k)+0.5)/float64(np))
			}
			want[j] = 2 * s / float64(np)
		}
		for call := 0; call < 2; call++ {
			got := Coefficients(math.Sqrt, a, b, order)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("order %d call %d: c[%d] = %x, direct sum %x", order, call, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

func TestBrownianCovariance(t *testing.T) {
	// The statistical contract: f = S(R)z with z ~ N(0, I) must have
	// covariance ~ R. Estimate E[f f^T] by Monte Carlo on a tiny
	// matrix and compare entrywise.
	a, lo, hi := randSPDMatrix(10, 3) // 9x9 scalar
	op, err := NewSqrt(a, lo, hi, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	const samples = 60000
	cov := blas.NewDense(n, n)
	z := make([]float64, n)
	f := make([]float64, n)
	s := rng.New(17)
	for it := 0; it < samples; it++ {
		s.FillNormal(z)
		op.Apply(f, z)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cov.Add(i, j, f[i]*f[j])
			}
		}
	}
	d := a.Dense()
	scale := d.MaxAbs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := cov.At(i, j) / samples
			want := d.At(i, j)
			if math.Abs(got-want) > 0.05*scale {
				t.Fatalf("covariance (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestOrderCountsMultiplications(t *testing.T) {
	a, lo, hi := randSPDMatrix(11, 8)
	op, err := NewSqrt(a, lo, hi, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Order() != 25 {
		t.Fatalf("Order = %d, want 25", op.Order())
	}
}

func TestApplyDeterministic(t *testing.T) {
	a, lo, hi := randSPDMatrix(12, 10)
	op, err := NewSqrt(a, lo, hi, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, a.N())
	rnd := rand.New(rand.NewSource(3))
	for i := range z {
		z[i] = rnd.NormFloat64()
	}
	y1 := make([]float64, a.N())
	y2 := make([]float64, a.N())
	op.Apply(y1, z)
	op.Apply(y2, z)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("Apply not deterministic")
		}
	}
}
