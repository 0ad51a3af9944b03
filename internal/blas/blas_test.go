package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestScal(t *testing.T) {
	x := []float64{1, -2, 3}
	Scal(-2, x)
	want := []float64{-2, 4, -6}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Scal got %v", x)
		}
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v", got)
	}
}

func TestNrm2Overflow(t *testing.T) {
	big := math.MaxFloat64 / 4
	got := Nrm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Nrm2 overflowed: %v", got)
	}
	if !almostEqual(got, big*math.Sqrt2, 1e-14) {
		t.Fatalf("Nrm2 = %v, want %v", got, big*math.Sqrt2)
	}
}

func TestSubAdd(t *testing.T) {
	x := []float64{5, 7}
	y := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, x, y)
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("Sub got %v", d)
	}
	Add(d, d, y)
	if d[0] != 5 || d[1] != 7 {
		t.Fatalf("Add got %v", d)
	}
}

func TestNrm2MatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		// Keep magnitudes moderate for naive comparison.
		for i := range xs {
			xs[i] = math.Mod(xs[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		var s float64
		for _, v := range xs {
			s += v * v
		}
		return almostEqual(Nrm2(xs), math.Sqrt(s), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if !almostEqual(Dot(x, y), Dot(y, x), 1e-15) {
			t.Fatalf("Dot not symmetric")
		}
	}
}
