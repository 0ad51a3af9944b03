package chebyshev

import (
	"fmt"
	"testing"

	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
	"repro/internal/solver"
)

// TestApplyBlockExactAcrossThreadCounts: every pooled loop in the
// Chebyshev recurrence writes disjoint ranges, and the preconditioned
// roots' vector passes are multivec's lane sweeps — dot products summed
// in fixed row chunks added in chunk order whichever thread runs a
// chunk, an elementwise update — so every Brownian-force block, the
// series' and the inverse root's, must be bitwise-identical whatever
// the pool size. At
// NB = 3000 the roots' passes run inline around the split multiply; at
// NB = 6000 and m = 4 their reductions sum four row chunks inline and
// their update splits its rows over the pool. Every pooled run must
// have split something. The matrices
// are SD resistance matrices at phi = 0.4, on which IC(0) leaves the
// roots at a tolerance of 1e-8 ten or more steps to run, so the
// pool-split recurrence is compared over that many updates.
func TestApplyBlockExactAcrossThreadCounts(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	const m, tol, minSteps = 4, 1e-8, 10
	for _, nb := range []int{3000, 6000} {
		sys, err := particles.New(particles.Options{N: nb, Phi: 0.4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		a := hydro.Build(sys, hydro.Options{Phi: 0.4})
		lo, hi := a.GershgorinInterval()
		if lo <= 0 {
			lo = 1e-3
		}
		op, err := NewSqrt(a, lo, hi, 20)
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
			"series": func(y *multivec.MultiVec) { op.ApplyBlock(nil, y, z) },
			"inverse lanczos": func(y *multivec.MultiVec) {
				st, err := PrecondInvSqrt(nil, a, ic, y, z, 0, tol)
				if err != nil {
					t.Fatal(err)
				}
				if st.Iterations < minSteps {
					t.Fatalf("NB=%d: the root stopped after %d steps, want at least %d", nb, st.Iterations, minSteps)
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
				jobs := obs.Default.Counter("parallel_jobs_total")
				before := jobs.Value()
				got := run()
				if jobs.Value() == before {
					t.Fatalf("%s, threads=%d: nothing split over the pool", name, threads)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, threads=%d: y[%d] = %x, serial %x", name, threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}
