package bcrs_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// resistance is the N = 3000 resistance matrix (phi = 0.4), built
// once: the smallest SD system whose m = 1 multiply, 2.2 MB, streams
// enough to split over a pool of two or more.
var resistance = sync.OnceValue(func() *bcrs.Matrix {
	sys, err := particles.New(particles.Options{N: 3000, Phi: 0.4, Seed: 3})
	if err != nil {
		panic(err)
	}
	return hydro.Build(sys, hydro.Options{Phi: 0.4})
})

// split runs fn and fails t unless it dispatched a job on the pool.
func split(t *testing.T, where string, fn func()) {
	t.Helper()
	jobs := obs.Default.Counter("parallel_jobs_total")
	before := jobs.Value()
	fn()
	if jobs.Value() == before {
		t.Fatalf("%s: the multiply ran inline", where)
	}
}

// TestThreadedMatchesSerial: a multiply splits its block rows over
// the pool and every range writes its own rows with the serial
// kernel, so Mul and MulVec are bitwise the one-thread product at
// every pool size and width — on the resistance matrix the stepper
// multiplies by and on the served shape (NB = 6000, 24 blocks a row).
// Both stream enough to split at every width. This is what lets
// served and distributed solves ignore the thread count.
func TestThreadedMatchesSerial(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	for name, a := range map[string]*bcrs.Matrix{
		"hydro":  resistance(),
		"random": bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 4}),
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
				where := fmt.Sprintf("%s m=%d threads=%d", name, m, threads)
				var got, gotV []float64
				split(t, where, func() { got, gotV = product() })
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
	a := resistance()
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
		var got []float64
		if threads == 1 {
			got = mulVec(true)
		} else {
			split(t, "threads=3", func() { got = mulVec(true) })
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("threads=%d: y[%d] = %v with the assembly kernel, %v without", threads, i, got[i], want[i])
			}
		}
	}
}
