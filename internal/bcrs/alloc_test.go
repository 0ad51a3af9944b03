package bcrs

import (
	"testing"

	"repro/internal/multivec"
	"repro/internal/rng"
)

// TestSymMulDoesNotAllocate pins the serial multiply paths at zero
// heap allocations once warm: every CG iteration of every solve goes
// through one of them, so a closure or a boxed key per call is garbage
// at the rate of the inner loop.
func TestSymMulDoesNotAllocate(t *testing.T) {
	a := Random(RandomOptions{NB: 150, BlocksPerRow: 8, Seed: 21})
	a.SetThreads(1)
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mul func()) {
		mul() // warm: counter handles, scratch
		if n := testing.AllocsPerRun(20, mul); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	for _, m := range []int{1, 16} {
		x := multivec.New(a.N(), m)
		rng.New(22).FillNormal(x.Data)
		y := multivec.New(a.N(), m)
		check("SymMatrix.Mul", func() { s.Mul(y, x) })
		check("Matrix.Mul", func() { a.Mul(y, x) })
	}
	x := make([]float64, a.N())
	rng.New(23).FillNormal(x)
	y := make([]float64, a.N())
	check("SymMatrix.MulVec", func() { s.MulVec(y, x) })
	check("Matrix.MulVec", func() { a.MulVec(y, x) })
}
