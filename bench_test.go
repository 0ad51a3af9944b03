// Package repro_test holds the ablation benchmarks for the design
// choices called out in DESIGN.md — measurements nothing else in the
// tree takes. The paper's tables and figures come from cmd/experiments
// and the regression ladder from bench/; neither is mirrored here.
//
// Benchmarks use scaled-down systems so `go test -bench=. -benchmem`
// finishes in minutes on a laptop.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/chebyshev"
	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/particles"
	"repro/internal/rng"
	"repro/internal/sd"
	"repro/internal/solver"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixSys  *particles.System // 1500 particles, phi=0.5
	fixMat  *bcrs.Matrix      // its resistance matrix (mat2-like density)
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(buildFixtures)
}

func buildFixtures() {
	var err error
	fixSys, err = particles.New(particles.Options{N: 1500, Phi: 0.5, Seed: 11})
	if err != nil {
		panic(err)
	}
	fixMat = hydro.Build(fixSys, hydro.Options{Phi: 0.5, CutoffXi: 2.5})
}

// ---- Ablations (DESIGN.md section 5) ----

// BenchmarkAblationVectorLayout compares the row-major GSPMV against
// the column-major equivalent (m independent SPMV passes over the
// matrix) — the choice of Section IV-A1.
func BenchmarkAblationVectorLayout(b *testing.B) {
	fixtures(b)
	const m = 8
	b.Run("row-major-gspmv", func(b *testing.B) {
		x := multivec.New(fixMat.N(), m)
		rng.New(6).FillNormal(x.Data)
		y := multivec.New(fixMat.N(), m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fixMat.Mul(y, x)
		}
	})
	b.Run("column-major-spmvs", func(b *testing.B) {
		xs := make([][]float64, m)
		ys := make([][]float64, m)
		for j := range xs {
			xs[j] = make([]float64, fixMat.N())
			rng.New(uint64(7 + j)).FillNormal(xs[j])
			ys[j] = make([]float64, fixMat.N())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < m; j++ {
				fixMat.MulVec(ys[j], xs[j])
			}
		}
	})
}

// BenchmarkAblationKernelDispatch compares the specialized unrolled
// kernels against the generic fallback.
func BenchmarkAblationKernelDispatch(b *testing.B) {
	fixtures(b)
	for _, m := range []int{8, 16} {
		x := multivec.New(fixMat.N(), m)
		rng.New(8).FillNormal(x.Data)
		y := multivec.New(fixMat.N(), m)
		b.Run(fmt.Sprintf("specialized/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fixMat.Mul(y, x)
			}
		})
		b.Run(fmt.Sprintf("generic/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fixMat.MulGenericKernel(y, x)
			}
		})
	}
}

// BenchmarkAblationBlockCG compares the block solve against m
// independent CG solves for the augmented system.
func BenchmarkAblationBlockCG(b *testing.B) {
	fixtures(b)
	const m = 8
	bm := multivec.New(fixMat.N(), m)
	rng.New(9).FillNormal(bm.Data)
	opts := solver.Options{Tol: 1e-6}
	b.Run("block-cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := multivec.New(fixMat.N(), m)
			st := solver.BlockCG(fixMat, x, bm, opts)
			if !st.Converged {
				b.Fatal("block CG stalled")
			}
		}
	})
	b.Run("separate-cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < m; j++ {
				x := make([]float64, fixMat.N())
				st := solver.CG(fixMat, x, bm.ColVector(j), opts)
				if !st.Converged {
					b.Fatal("CG stalled")
				}
			}
		}
	})
}

// BenchmarkAblationWarmSecondSolve measures the paper's Section II-C
// optimization: warm-starting the midpoint corrector solve with the
// predictor solution versus solving it cold.
func BenchmarkAblationWarmSecondSolve(b *testing.B) {
	fixtures(b)
	// One representative pair: solve R u = f, then solve the
	// perturbed-system corrector warm vs cold.
	f := make([]float64, fixMat.N())
	s, err := chebyshev.NewSqrtAuto(fixMat, fixMat, hydro.MinFarField(fixSys, hydro.Options{Phi: 0.5}), 30, 0)
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, fixMat.N())
	rng.New(10).FillNormal(z)
	s.Apply(f, z)
	u := make([]float64, fixMat.N())
	if st := solver.CG(fixMat, u, f, solver.Options{}); !st.Converged {
		b.Fatal("setup solve stalled")
	}
	half := fixSys.Clone()
	half.DisplacedFrom(fixSys, u, 1)
	aHalf := hydro.Build(half, hydro.Options{Phi: 0.5, CutoffXi: 2.5})

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := append([]float64(nil), u...)
			if st := solver.CG(aHalf, x, f, solver.Options{}); !st.Converged {
				b.Fatal("warm solve stalled")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := make([]float64, fixMat.N())
			if st := solver.CG(aHalf, x, f, solver.Options{}); !st.Converged {
				b.Fatal("cold solve stalled")
			}
		}
	})
}

// BenchmarkAblationThreadPartition compares nnz-balanced against
// naive row-balanced thread blocking on a density-skewed matrix.
func BenchmarkAblationThreadPartition(b *testing.B) {
	// Skewed matrix: first tenth of the rows hold most non-zeros.
	nb := 6000
	bd := bcrs.NewBuilder(nb)
	s := rng.New(11)
	blk := func() (m [9]float64) {
		for i := range m {
			m[i] = s.Normal()
		}
		return
	}
	for i := 0; i < nb; i++ {
		bd.AddBlock(i, i, blk())
		deg := 2
		if i < nb/10 {
			deg = 40
		}
		for d := 0; d < deg; d++ {
			bd.AddBlock(i, (i+1+s.Intn(nb-1))%nb, blk())
		}
	}
	a := bd.Build()
	x := multivec.New(a.N(), 8)
	rng.New(12).FillNormal(x.Data)
	y := multivec.New(a.N(), 8)
	b.Run("nnz-balanced", func(b *testing.B) {
		a.SetThreads(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Mul(y, x)
		}
	})
	b.Run("row-balanced", func(b *testing.B) {
		a.SetThreadsRowBalanced(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Mul(y, x)
		}
	})
}

// BenchmarkAblationSymmetricStorage quantifies the symmetry the paper
// chose not to exploit: half the matrix traffic per multiply, at the
// cost of a scatter that blocks easy threading.
func BenchmarkAblationSymmetricStorage(b *testing.B) {
	fixtures(b)
	s, err := bcrs.NewSym(fixMat)
	if err != nil {
		b.Fatal(err)
	}
	const m = 8
	x := multivec.New(fixMat.N(), m)
	rng.New(13).FillNormal(x.Data)
	y := multivec.New(fixMat.N(), m)
	b.Run("full-storage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fixMat.Mul(y, x)
		}
	})
	b.Run("symmetric-storage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Mul(y, x)
		}
	})
}

// BenchmarkIC0 prices the reused preconditioner on the system bench/
// steps (N = 1000, phi = 0.4): one application against the multiply it
// rides beside in every PCG iteration (the budget is 2x), the block
// application the augmented solve uses at m = 16 against 16 lone ones
// (the triangular solve's own r(m)), and what a window pays to build
// the factor, in fresh and in reused storage. The iteration counts it
// buys are ext-techniques' table. The three kernels with an m = 1 or
// triangular assembly path run a second time as "-go", with the switch
// their tests use cleared, so every scalar-to-SIMD ratio DESIGN quotes
// is two lines of one run.
func BenchmarkIC0(b *testing.B) {
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := hydro.Build(sys, hydro.Options{Phi: 0.4})
	ic, err := solver.NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	const m = 16
	r, z := make([]float64, a.N()), make([]float64, a.N())
	rng.New(16).FillNormal(r)
	rb, zb := multivec.New(a.N(), m), multivec.New(a.N(), m)
	rng.New(17).FillNormal(rb.Data)
	for _, k := range []struct {
		name string
		op   func()
		asm  bool // has an assembly path that reads cpufeat.AVX2 per call
	}{
		{"mulvec", func() { a.MulVec(z, r) }, true},
		{"apply", func() { ic.Apply(z, r) }, true},
		{"mul-m16", func() { a.Mul(zb, rb) }, false},
		{"apply-block-m16", func() { ic.ApplyBlock(zb, rb) }, true},
	} {
		loop := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.op()
			}
		}
		b.Run(k.name, loop)
		if k.asm {
			b.Run(k.name+"-go", func(b *testing.B) {
				defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
				cpufeat.AVX2 = false
				loop(b)
			})
		}
	}
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.NewIC0(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refactor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ic.Refactor(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNeighborList measures the Verlet-list amortization
// of matrix assembly across drifting configurations.
func BenchmarkAblationNeighborList(b *testing.B) {
	fixtures(b)
	opt := hydro.Options{Phi: 0.5}.WithDefaults()
	drift := func(s *particles.System, step int) {
		u := make([]float64, 3*s.N)
		rng.New(uint64(step)).FillNormal(u)
		s.Displace(u, 0.01) // tiny drift, well inside the skin
	}
	b.Run("rebuild-every-step", func(b *testing.B) {
		sys := fixSys.Clone()
		for i := 0; i < b.N; i++ {
			drift(sys, i)
			hydro.Build(sys, opt)
		}
	})
	b.Run("verlet-list", func(b *testing.B) {
		sys := fixSys.Clone()
		as := hydro.NewAssembler(sys, opt)
		for i := 0; i < b.N; i++ {
			drift(sys, i)
			as.Build(sys.Pos)
		}
	})
}

// BenchmarkConfBuild measures resistance-matrix assembly at the
// repository benchmark's SD system (N = 1000, phi = 0.4, seed 1, E. coli
// radii), the three numbers the docs quote. warm: one Build on a warmed
// sd.Conf chain, handed back with Recycle as the steppers do — the
// step's Construct phase, twice per time step; with -benchmem, allocs/op
// 1 (the matrix header). cold: a fresh chain's first Build, the
// candidate search included. particles-new: the packing itself.
func BenchmarkConfBuild(b *testing.B) {
	popt := particles.Options{N: 1000, Phi: 0.4, Seed: 1}
	sys, err := particles.New(popt)
	if err != nil {
		b.Fatal(err)
	}
	opt := hydro.Options{Phi: 0.4}
	b.Run("warm", func(b *testing.B) {
		c := sd.NewConf(sys, opt, 1)
		c.Recycle(c.Build())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Recycle(c.Build())
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			confBuildSink = sd.NewConf(sys, opt, 1).Build()
		}
	})
	b.Run("particles-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := particles.New(popt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var confBuildSink *bcrs.Matrix
