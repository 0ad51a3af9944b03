package bcrs_test

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// TestMulVecSIMDMatchesGoOnResistanceMatrix: on the matrix the stepper
// multiplies by — hydro-assembled, handed over through NewMatrix —
// MulVec gives the same bits with the m = 1 assembly kernel and
// without, serially and split over three threads' row ranges.
func TestMulVecSIMDMatchesGoOnResistanceMatrix(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 300, Phi: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := hydro.Build(sys, hydro.Options{Phi: 0.4})
	x := make([]float64, a.N())
	rng.New(8).FillNormal(x)
	mulVec := func(simd bool) []float64 {
		defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
		cpufeat.AVX2 = cpufeat.AVX2 && simd
		y := make([]float64, a.N())
		a.MulVec(y, x)
		return y
	}
	want := mulVec(false)
	for _, threads := range []int{1, 3} {
		parallel.SetThreads(threads)
		a.SetThreads(threads)
		got := mulVec(true)
		parallel.SetThreads(1)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("threads=%d: y[%d] = %v with the assembly kernel, %v without", threads, i, got[i], want[i])
			}
		}
	}
}
