package chebyshev

import (
	"testing"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/solver"
)

// TestApplyBlockExactAcrossThreadCounts: every pooled loop in the
// Chebyshev recurrence writes disjoint ranges, and the preconditioned
// square root's own passes are serial around the threaded multiply, so
// either Brownian-force block must be bitwise-identical whatever the
// pool size.
func TestApplyBlockExactAcrossThreadCounts(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 1500, BlocksPerRow: 8, Seed: 3})
	lo, hi := a.GershgorinInterval()
	if lo <= 0 {
		lo = 1e-3
	}
	op, err := NewSqrt(a, lo, hi, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	z := multivec.New(a.N(), m)
	rng.New(5).FillNormal(z.Data)

	ic, err := solver.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	for name, apply := range map[string]func(y *multivec.MultiVec){
		"series": func(y *multivec.MultiVec) { op.ApplyBlock(y, z) },
		"lanczos": func(y *multivec.MultiVec) {
			if _, err := PrecondSqrt(a, ic, y, z, 0, 0); err != nil {
				t.Fatal(err)
			}
		},
	} {
		run := func() []float64 {
			y := multivec.New(a.N(), m)
			apply(y)
			return y.Data
		}
		want := run() // serial pool
		for _, threads := range []int{2, 4} {
			parallel.SetThreads(threads)
			a.SetThreads(threads)
			got := run()
			parallel.SetThreads(1)
			a.SetThreads(1)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, threads=%d: y[%d] = %x, serial %x", name, threads, i, got[i], want[i])
				}
			}
		}
	}
}
