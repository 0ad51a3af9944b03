package bcrs_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// TestThreadedMatchesSerial: a multiply splits its block rows over
// the pool and every range writes its own rows with the serial
// kernel, so Mul and MulVec are bitwise the one-thread product at
// every pool size and width — on the resistance matrix the stepper
// multiplies by and on the random one the server does. This is what
// lets served and distributed solves ignore the thread count.
func TestThreadedMatchesSerial(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 300, Phi: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetThreads(parallel.Threads())
	for name, a := range map[string]*bcrs.Matrix{
		"hydro":  hydro.Build(sys, hydro.Options{Phi: 0.4}),
		"random": bcrs.Random(bcrs.RandomOptions{NB: 500, BlocksPerRow: 12, Seed: 4}),
	} {
		for _, m := range []int{1, 2, 4, 5, 8, 16, 32, 48} {
			x := multivec.New(a.N(), m)
			rng.New(uint64(m)).FillNormal(x.Data)
			product := func() (y, yv []float64) {
				mv := multivec.New(a.N(), m)
				a.Mul(mv, x)
				yv = make([]float64, a.N())
				a.MulVec(yv, x.ColVector(0))
				return mv.Data, yv
			}
			parallel.SetThreads(1)
			want, wantV := product()
			for _, threads := range []int{2, 3, 4} {
				parallel.SetThreads(threads)
				got, gotV := product()
				where := fmt.Sprintf("%s m=%d threads=%d", name, m, threads)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: Mul y[%d] = %v, serial %v", where, i, got[i], want[i])
					}
				}
				for i := range wantV {
					if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
						t.Fatalf("%s: MulVec y[%d] = %v, serial %v", where, i, gotV[i], wantV[i])
					}
				}
			}
		}
	}
}

// TestMulVecSIMDMatchesGoOnResistanceMatrix: on the matrix the stepper
// multiplies by — hydro-assembled, handed over through NewMatrix —
// MulVec gives the same bits with the m = 1 assembly kernel and
// without, serially and split over a three-thread pool's row ranges.
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
	defer parallel.SetThreads(parallel.Threads())
	want := mulVec(false)
	for _, threads := range []int{1, 3} {
		parallel.SetThreads(threads)
		got := mulVec(true)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("threads=%d: y[%d] = %v with the assembly kernel, %v without", threads, i, got[i], want[i])
			}
		}
	}
}
