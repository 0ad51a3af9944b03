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
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/chebyshev"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/parallel"
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

// ablationWidths are the widths the kernel ablations run at: m = 1's
// own kernel, the masked tails alone (2-5) and after an 8-column pass
// (12), and the m % 8 = 0 row kernels.
var ablationWidths = []int{1, 2, 3, 4, 5, 8, 12, 16, 32}

// BenchmarkAblationKernelDispatch compares the kernels a general
// multiply can run at each of ablationWidths: the one Mul dispatches,
// the same with cpufeat.AVX512 cleared ("-avx2": the ymm row kernel
// where AVX-512 would take over, the same kernel otherwise), and the
// generic Go loop. "hydro" is the 1500-particle resistance matrix,
// "served" the serve workloads' NB = 6000 random matrix (24 blocks per
// row).
func BenchmarkAblationKernelDispatch(b *testing.B) {
	fixtures(b)
	served := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	for _, a := range []struct {
		name string
		mat  *bcrs.Matrix
	}{{"hydro", fixMat}, {"served", served}} {
		for _, m := range ablationWidths {
			x := multivec.New(a.mat.N(), m)
			rng.New(8).FillNormal(x.Data)
			y := multivec.New(a.mat.N(), m)
			mul := func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.mat.Mul(y, x)
				}
			}
			b.Run(fmt.Sprintf("%s/specialized/m=%d", a.name, m), mul)
			b.Run(fmt.Sprintf("%s/specialized-avx2/m=%d", a.name, m), func(b *testing.B) {
				defer func(saved bool) { cpufeat.AVX512 = saved }(cpufeat.AVX512)
				cpufeat.AVX512 = false
				mul(b)
			})
			b.Run(fmt.Sprintf("%s/generic/m=%d", a.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.mat.MulGenericKernel(y, x)
				}
			})
		}
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
			st := solver.BlockCG(nil, fixMat, x, bm, opts)
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
	z := make([]float64, fixMat.N())
	rng.New(10).FillNormal(z)
	floor := slices.Min(hydro.FarFieldCoefficients(fixSys, hydro.Options{Phi: 0.5}))
	if _, err := chebyshev.SeriesSqrt(nil, fixMat, fixMat, floor, 30, multivec.FromVector(f), multivec.FromVector(z)); err != nil {
		b.Fatal(err)
	}
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

// BenchmarkAblationSymmetricStorage quantifies the symmetry the paper
// chose not to exploit: half the matrix traffic per multiply, at the
// cost of a scatter that blocks easy threading. At each of
// ablationWidths it runs the general multiply, the half-storage one
// Mul dispatches and the half storage's generic Go loop.
func BenchmarkAblationSymmetricStorage(b *testing.B) {
	fixtures(b)
	s, err := bcrs.NewSym(fixMat)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range ablationWidths {
		x := multivec.New(fixMat.N(), m)
		rng.New(13).FillNormal(x.Data)
		y := multivec.New(fixMat.N(), m)
		for _, k := range []struct {
			name string
			mul  func(y, x *multivec.MultiVec)
		}{{"full-storage", fixMat.Mul}, {"symmetric-storage", s.Mul}, {"symmetric-generic", s.MulGenericKernel}} {
			b.Run(fmt.Sprintf("%s/m=%d", k.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.mul(y, x)
				}
			})
		}
	}
}

// BenchmarkWidthSweep times the multiply at every m = 1..33 on the
// matrix of bench/'s gspmv_* workloads (NB = 12000, 24 blocks per row,
// bandwidth 1200), on pools of 1 and 2 threads, in general and in half
// storage. Each iteration runs, back to back, the multiply Mul
// dispatches at m, the same at m padded to a multiple of 8, and the
// generic Go loop (MulGenericKernel) at m; the metrics are the
// medians: "ms" and "generic-ms" at m, and "x-padded", the median
// ratio of each pair T(m) / T(padded) — pairing cancels the drift of a
// shared host. ns/op is the three together. DESIGN §9's width sweep is
// its table.
//
//	go test -run '^$' -bench WidthSweep -benchtime 20x .
func BenchmarkWidthSweep(b *testing.B) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 12000, BlocksPerRow: 24, Bandwidth: 1200, NoWrap: true, Seed: 1})
	s, err := bcrs.NewSym(a)
	if err != nil {
		b.Fatal(err)
	}
	operands := func(m int) (y, x *multivec.MultiVec) {
		x = multivec.New(a.N(), m)
		rng.New(uint64(m)).FillNormal(x.Data)
		return multivec.New(a.N(), m), x
	}
	median := func(v []float64) float64 {
		slices.Sort(v)
		return v[len(v)/2]
	}
	ms := func(t0 time.Time) float64 { return time.Since(t0).Seconds() * 1e3 }
	defer parallel.SetThreads(parallel.Threads())
	for _, threads := range []int{1, 2} {
		parallel.SetThreads(threads)
		for m := 1; m <= 33; m++ {
			y, x := operands(m)
			yp, xp := operands(8 * ((m + 7) / 8))
			for _, f := range []struct {
				name         string
				mul, generic func(y, x *multivec.MultiVec)
			}{{"general", a.Mul, a.MulGenericKernel}, {"sym", s.Mul, s.MulGenericKernel}} {
				b.Run(fmt.Sprintf("threads=%d/m=%d/%s", threads, m, f.name), func(b *testing.B) {
					var tm, tg, ratio []float64
					for i := 0; i < b.N; i++ {
						t0 := time.Now()
						f.mul(y, x)
						tm = append(tm, ms(t0))
						t0 = time.Now()
						f.mul(yp, xp)
						ratio = append(ratio, tm[i]/ms(t0))
						t0 = time.Now()
						f.generic(y, x)
						tg = append(tg, ms(t0))
					}
					b.ReportMetric(median(tm), "ms")
					b.ReportMetric(median(tg), "generic-ms")
					b.ReportMetric(median(ratio), "x-padded")
				})
			}
		}
	}
}

// BenchmarkIC0 prices the reused preconditioner on the system bench/
// steps (N = 1000, phi = 0.4): one application against the multiply it
// rides beside in every PCG iteration (the budget is 2x), the block
// application the augmented solve uses at m = 16 against 16 lone ones
// (the triangular solve's own r(m)), and what a window pays to build
// the factor, in fresh and in reused storage. The iteration counts it
// buys are ext-techniques' table. Every kernel with an assembly path
// runs a second time as "-go", with the switch its tests use cleared,
// so every scalar-to-SIMD ratio DESIGN quotes is two lines of one run.
// The m = 1 rows run on a one-thread pool, so mulvec times the kernel,
// not the pool's split of it.
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
	rv, zv := multivec.FromVector(r), multivec.FromVector(z)
	rb, zb := multivec.New(a.N(), m), multivec.New(a.N(), m)
	rng.New(17).FillNormal(rb.Data)
	for _, k := range []struct {
		name   string
		op     func()
		asm    bool // has an assembly path that reads cpufeat.AVX2 per call
		serial bool // runs on a one-thread pool
	}{
		{"mulvec", func() { a.MulVec(z, r) }, true, true},
		{"apply", func() { ic.ApplyBlock(zv, rv) }, true, true},
		{"mul-m16", func() { a.Mul(zb, rb) }, true, false},
		{"apply-block-m16", func() { ic.ApplyBlock(zb, rb) }, true, false},
	} {
		loop := func(b *testing.B) {
			if k.serial {
				defer parallel.SetThreads(parallel.Threads())
				parallel.SetThreads(1)
				b.ResetTimer()
			}
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

// BenchmarkBrownianSqrt prices and scores both Brownian square roots on
// the system bench/ steps (N = 1000, φ = 0.4) at seeds 1, 3 and 17 — the
// table in DESIGN §9, "The Brownian square root". The inverse-* rows are
// the default force: the preconditioned Lanczos inverse root
// (chebyshev.PrecondInvSqrt) through the IC(0) factor of R_0, on R_0
// ("fresh") and on R_15, fifteen default Algorithm 1 steps later
// ("stale", the oldest matrix a 16-step window factor serves), at m = 1
// and m = 16. Their rel_err is that of the force R*M^{-1}*y' the root
// stands for, the worst over 16 noise vectors against an order-150
// series for L*(L^{-1}RL^{-T})^{1/2}*z on that operator's spectrum, and
// kappa is L^{-1}RL^{-T}'s condition number. The paper's order-30 series runs on
// [far-field floor, Gershgorin]; its rel_err is the worst relative error
// of the scalar series over R's true spectrum, and kappa is R's. True
// spectra are the extreme Ritz values of 300 fully reorthogonalised
// Lanczos steps.
func BenchmarkBrownianSqrt(b *testing.B) {
	const n1, m = 1000, 16
	opt := hydro.Options{Phi: 0.4}
	for _, seed := range []uint64{1, 3, 17} {
		sys, err := particles.New(particles.Options{N: n1, Phi: 0.4, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		conf := sd.NewConf(sys.Clone(), opt, 1)
		r0 := conf.Build()
		sim := sd.New(sys.Clone(), opt, core.Config{Dt: 2, M: m, Seed: seed}, 1)
		if err := sim.RunOriginal(15); err != nil {
			b.Fatal(err)
		}
		r15 := sim.Current().Build()
		ic, err := solver.NewIC0(r0)
		if err != nil {
			b.Fatal(err)
		}
		z := multivec.New(r0.N(), m)
		rng.New(seed).FillNormal(z.Data)
		z1, y1 := z.ColVector(0), make([]float64, r0.N())
		y := multivec.New(r0.N(), m)
		u1, f1 := make([]float64, r0.N()), make([]float64, r0.N())

		for _, c := range []struct {
			name string
			r    *bcrs.Matrix
		}{{"fresh", r0}, {"stale", r15}} {
			lo, hi := ritzBounds(c.r, ic, 300)
			ref := multivec.New(r0.N(), m)
			s, err := chebyshev.NewSqrt(precondOp{c.r, ic}, lo*(1-1e-3), hi*(1+1e-3), 150)
			if err != nil {
				b.Fatal(err)
			}
			lz := multivec.New(r0.N(), m)
			ic.MulL(lz, z)
			s.ApplyBlock(nil, ref, lz)
			worst, iters := 0.0, 0
			for j := 0; j < m; j++ {
				st, err := chebyshev.PrecondInvSqrt(nil, c.r, ic, multivec.FromVector(y1), multivec.FromVector(z.ColVector(j)), 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				ic.ApplyBlock(multivec.FromVector(u1), multivec.FromVector(y1))
				c.r.MulVec(f1, u1)
				worst, iters = max(worst, relDiff(f1, ref.ColVector(j))), max(iters, st.Iterations)
			}
			report := func(b *testing.B) {
				b.ReportMetric(float64(iters), "iters")
				b.ReportMetric(worst, "rel_err")
				b.ReportMetric(hi/lo, "kappa")
			}
			b.Run(fmt.Sprintf("seed=%d/inverse-%s/m=1", seed, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					chebyshev.PrecondInvSqrt(nil, c.r, ic, multivec.FromVector(y1), multivec.FromVector(z1), 0, 0)
				}
				report(b)
			})
			b.Run(fmt.Sprintf("seed=%d/inverse-%s/m=%d", seed, c.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					chebyshev.PrecondInvSqrt(nil, c.r, ic, y, z, 0, 0)
				}
				report(b)
			})
		}

		lo, hi := ritzBounds(r0, nil, 300)
		_, top := r0.GershgorinInterval()
		floor := conf.SpectrumFloor()
		coef := chebyshev.Coefficients(math.Sqrt, floor, top, chebyshev.DefaultOrder)
		worst := 0.0
		for i := 0; i <= 100000; i++ {
			x := lo * math.Pow(hi/lo, float64(i)/100000)
			worst = max(worst, math.Abs(clenshaw(coef, floor, top, x)-math.Sqrt(x))/math.Sqrt(x))
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(chebyshev.DefaultOrder), "iters")
			b.ReportMetric(worst, "rel_err")
			b.ReportMetric(hi/lo, "kappa")
			b.ReportMetric(top/hi, "gershgorin/lmax")
		}
		b.Run(fmt.Sprintf("seed=%d/series/m=1", seed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chebyshev.SeriesSqrt(nil, r0, r0, floor, chebyshev.DefaultOrder, multivec.FromVector(y1), multivec.FromVector(z1)); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("seed=%d/series/m=%d", seed, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chebyshev.SeriesSqrt(nil, r0, r0, floor, chebyshev.DefaultOrder, y, z); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}

// precondOp multiplies by R*M^{-1}, which is similar to L^{-1}RL^{-T}:
// a polynomial p in it satisfies p(RM^{-1})*L = L*p(L^{-1}RL^{-T}).
type precondOp struct {
	r  *bcrs.Matrix
	ic *solver.IC0
}

func (p precondOp) N() int { return p.r.N() }

func (p precondOp) Mul(y, x *multivec.MultiVec) {
	t := multivec.New(x.N, x.M)
	p.ic.ApplyBlock(t, x)
	p.r.Mul(y, t)
}

// ritzBounds returns the extreme Ritz values of k Lanczos steps, fully
// reorthogonalised, on L^{-1}AL^{-T} (on A when ic is nil), carried in
// the M^{-1}-inner product as chebyshev.PrecondInvSqrt carries it.
func ritzBounds(a *bcrs.Matrix, ic *solver.IC0, k int) (lo, hi float64) {
	n := a.N()
	minv := func(s, q []float64) {
		if ic == nil {
			copy(s, q)
		} else {
			ic.ApplyBlock(multivec.FromVector(s), multivec.FromVector(q))
		}
	}
	dot := func(x, y []float64) (d float64) {
		for i := range x {
			d += x[i] * y[i]
		}
		return d
	}
	var qs, ss [][]float64
	var alpha, beta []float64
	u := make([]float64, n)
	rng.New(99).FillNormal(u)
	for j := 0; ; j++ {
		s := make([]float64, n)
		minv(s, u)
		nrm := math.Sqrt(dot(u, s))
		if j > 0 {
			beta = append(beta, nrm)
		}
		if j == k {
			break
		}
		q := make([]float64, n)
		for i := range q {
			q[i], s[i] = u[i]/nrm, s[i]/nrm
		}
		qs, ss = append(qs, q), append(ss, s)
		a.MulVec(u, s)
		alpha = append(alpha, dot(s, u))
		for pass := 0; pass < 2; pass++ {
			for t := range qs {
				c := dot(ss[t], u)
				for i := range u {
					u[i] -= c * qs[t][i]
				}
			}
		}
	}
	beta = beta[:k-1]
	// Sturm counts: how many eigenvalues of the tridiagonal lie below x.
	below := func(x float64) int {
		c, d := 0, 1.0
		for i, al := range alpha {
			off := 0.0
			if i > 0 {
				off = beta[i-1] * beta[i-1] / d
			}
			if d = al - x - off; d == 0 {
				d = -1e-300
			}
			if d < 0 {
				c++
			}
		}
		return c
	}
	bisect := func(count int) float64 {
		l, h := 0.0, 0.0
		for i, al := range alpha {
			r := 0.0
			if i > 0 {
				r += beta[i-1]
			}
			if i < len(beta) {
				r += beta[i]
			}
			l, h = min(l, al-r), max(h, al+r)
		}
		for it := 0; it < 200; it++ {
			mid := (l + h) / 2
			if below(mid) >= count {
				h = mid
			} else {
				l = mid
			}
		}
		return h
	}
	return bisect(1), bisect(k)
}

// clenshaw evaluates the Chebyshev series c on [a, b] at x: the
// scalar form of the series the paper's square root applies.
func clenshaw(c []float64, a, b, x float64) float64 {
	t := (2*x - (b + a)) / (b - a)
	var d, dd float64
	for j := len(c) - 1; j >= 1; j-- {
		d, dd = 2*t*d-dd+c[j], d
	}
	return t*d - dd + c[0]/2
}

func relDiff(y, ref []float64) float64 {
	var num, den float64
	for i := range y {
		num += (y[i] - ref[i]) * (y[i] - ref[i])
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}

// BenchmarkAblationNeighborList measures the Verlet-list amortization
// of matrix assembly across drifting configurations.
func BenchmarkAblationNeighborList(b *testing.B) {
	fixtures(b)
	opt := hydro.Options{Phi: 0.5}.WithDefaults()
	drift := func(s *particles.System, step int) {
		u := make([]float64, 3*s.N)
		rng.New(uint64(step)).FillNormal(u)
		s.DisplacedFrom(s, u, 0.01) // tiny drift, well inside the skin
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
// radii), the numbers the docs quote. warm: one Build on a warmed
// sd.Conf chain, handed back with Recycle as the steppers do — the
// step's Construct phase, twice per time step; with -benchmem, allocs/op
// 1 (the matrix header). warm-pool2: the same on a two-thread pool, the
// one-versus-two-thread comparison of the build. cold: a fresh chain's
// first Build, the candidate search included. particles-new: the
// packing itself.
func BenchmarkConfBuild(b *testing.B) {
	popt := particles.Options{N: 1000, Phi: 0.4, Seed: 1}
	sys, err := particles.New(popt)
	if err != nil {
		b.Fatal(err)
	}
	opt := hydro.Options{Phi: 0.4}
	warm := func(threads int) func(*testing.B) {
		return func(b *testing.B) {
			defer parallel.SetThreads(parallel.Threads())
			c := sd.NewConf(sys, opt, threads)
			c.Recycle(c.Build())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Recycle(c.Build())
			}
		}
	}
	b.Run("warm", warm(1))
	b.Run("warm-pool2", warm(2))
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

// BenchmarkPoolSplit is the probe the pool's split floor comes from
// (DESIGN §9, "Threads"): the m = 1 multiply on the SD systems at
// N = 1000 and 5000, and the two row-split vector sweeps, Scale and
// ColDirection, at n × w = 3000 × 8, 18 000 × 4 and 18 000 × 32, each on
// a one-thread and a two-thread pool, and an empty two-part dispatch on
// the two-thread pool — what a split costs before any work. SetBytes is
// what the op streams, so MB/s is its streaming rate. Compare trees with
// -count and alternating runs: single runs on a shared two-core host
// swing.
func BenchmarkPoolSplit(b *testing.B) {
	defer parallel.SetThreads(parallel.Threads())
	b.Run("dispatch/pool2", func(b *testing.B) {
		parallel.SetThreads(2)
		task := func(int) {}
		for i := 0; i < b.N; i++ {
			parallel.Default().DoOp("", 2, 1<<40, task)
		}
	})
	for _, n := range []int{1000, 5000} {
		sys, err := particles.New(particles.Options{N: n, Phi: 0.4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		a := hydro.Build(sys, hydro.Options{Phi: 0.4})
		x, y := make([]float64, a.N()), make([]float64, a.N())
		rng.New(1).FillNormal(x)
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("mulvec-N%d/pool%d", n, threads), func(b *testing.B) {
				parallel.SetThreads(threads)
				b.SetBytes(a.TrafficBytes(1))
				for i := 0; i < b.N; i++ {
					a.MulVec(y, x)
				}
			})
		}
	}
	for _, s := range [][2]int{{3000, 8}, {18000, 4}, {18000, 32}} {
		n, w := s[0], s[1]
		p, z := multivec.New(n, w), multivec.New(n, w)
		rng.New(2).FillNormal(z.Data)
		beta := make([]float64, w)
		for j := range beta {
			beta[j] = 0.5
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("scale-%dx%d/pool%d", n, w, threads), func(b *testing.B) {
				parallel.SetThreads(threads)
				b.SetBytes(int64(2 * n * w * 8))
				for i := 0; i < b.N; i++ {
					z.Scale(1)
				}
			})
			b.Run(fmt.Sprintf("coldirection-%dx%d/pool%d", n, w, threads), func(b *testing.B) {
				parallel.SetThreads(threads)
				b.SetBytes(int64(3 * n * w * 8))
				for i := 0; i < b.N; i++ {
					multivec.ColDirection(p, z, beta)
				}
			})
		}
	}
}
