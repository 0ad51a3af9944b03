package chebyshev

import (
	"fmt"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/solver"
)

// TestApplyBlockExactAcrossThreadCounts: every pooled loop in the
// Chebyshev recurrence writes disjoint ranges, and the preconditioned
// roots' vector passes are multivec's lane sweeps — dot products summed
// in fixed row chunks added in chunk order whichever thread runs a
// chunk, an elementwise update — so every Brownian-force block, and the
// inverse root's, must be bitwise-identical whatever the pool size. At
// NB = 1500 the roots' passes run inline around the threaded multiply;
// at NB = 6000 and m = 4 (n*m = 72 000) their reductions sum four row
// chunks over the pool and their update splits its rows.
func TestApplyBlockExactAcrossThreadCounts(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	const m = 4
	for _, nb := range []int{1500, 6000} {
		a := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 8, Seed: 3})
		lo, hi := a.GershgorinInterval()
		if lo <= 0 {
			lo = 1e-3
		}
		op, err := NewSqrt(a, lo, hi, 20, 0)
		if err != nil {
			t.Fatal(err)
		}
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
			"inverse lanczos": func(y *multivec.MultiVec) {
				if _, err := PrecondInvSqrt(a, ic, y, z, 0, 0); err != nil {
					t.Fatal(err)
				}
			},
		} {
			name := fmt.Sprintf("NB=%d %s", nb, name)
			run := func() []float64 {
				y := multivec.New(a.N(), m)
				apply(y)
				return y.Data
			}
			parallel.SetThreads(1)
			want := run()
			for _, threads := range []int{2, 4} {
				parallel.SetThreads(threads)
				got := run()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, threads=%d: y[%d] = %x, serial %x", name, threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}
