package bcrs

import (
	"testing"

	"repro/internal/multivec"
	"repro/internal/rng"
)

// TestSymMulDoesNotAllocate pins the multiply paths at zero heap
// allocations once warm, serial and split over the pool: every CG
// iteration of every solve goes through one of them, so a closure, a
// job or a boxed key per call is garbage at the rate of the inner loop.
func TestSymMulDoesNotAllocate(t *testing.T) {
	// 2.7 MB at m = 1: the general multiply splits on three threads.
	a := Random(RandomOptions{NB: 4000, BlocksPerRow: 8, Seed: 21})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		usePool(t, threads)
		check := func(name string, mul func()) {
			mul() // warm: counter handles, scratch, partition
			if n := testing.AllocsPerRun(20, mul); n != 0 {
				t.Errorf("threads=%d: %s allocates %v times per call, want 0", threads, name, n)
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
		check("Matrix.MulVec", func() { a.MulVec(y, x) })
	}
}
