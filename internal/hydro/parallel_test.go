package hydro

import (
	"testing"

	"repro/internal/bcrs"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// TestBuildExactAcrossThreadCounts: assembly evaluates pair tensors
// and writes block rows in parallel, each into its own slots and in a
// fixed summation order, so the assembled matrix — probed here through
// a matrix-vector product — must be bitwise-identical for any pool
// size, from a fresh assembler and from one that reuses its list. At
// N = 800 the candidate pass streams enough to split, and must.
func TestBuildExactAcrossThreadCounts(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 800, Phi: 0.45, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Phi: 0.45}

	probe := func(a *bcrs.Matrix) ([]float64, int) {
		x := make([]float64, a.N())
		for i := range x {
			x[i] = float64(i%17) - 8
		}
		y := make([]float64, a.N())
		a.MulVec(y, x)
		return y, a.NNZB()
	}

	builds := map[string]func() *bcrs.Matrix{
		"fresh": func() *bcrs.Matrix { return Build(sys, opt) },
		"reused": func() *bcrs.Matrix {
			as := NewAssembler(sys, opt)
			as.Build(sys.Pos)
			return as.Build(sys.Pos)
		},
	}
	defer parallel.SetThreads(parallel.Threads())
	for name, build := range builds {
		parallel.SetThreads(1)
		wantY, wantNNZB := probe(build())
		for _, threads := range []int{2, 4} {
			parallel.SetThreads(threads)
			jobs := obs.Default.Counter("parallel_jobs_total")
			before := jobs.Value()
			gotY, gotNNZB := probe(build())
			if jobs.Value() == before {
				t.Fatalf("%s threads=%d: assembly split nothing over the pool", name, threads)
			}
			parallel.SetThreads(1)
			if gotNNZB != wantNNZB {
				t.Fatalf("%s threads=%d: nnzb %d, serial %d", name, threads, gotNNZB, wantNNZB)
			}
			for i := range wantY {
				if gotY[i] != wantY[i] {
					t.Fatalf("%s threads=%d: (A*x)[%d] = %x, serial %x", name, threads, i, gotY[i], wantY[i])
				}
			}
		}
	}
}
