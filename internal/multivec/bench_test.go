package multivec

import (
	"fmt"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// benchN is the SD benchmark's shape: 1000 particles, 3 rows each.
const benchN = 3000

var benchWidths = []int{4, 8, 16, 32}

func benchOperands(n, m int) (*MultiVec, *MultiVec, *blas.Dense) {
	x := New(n, m)
	y := New(n, m)
	for i := range x.Data {
		x.Data[i] = float64(i%7) + 0.5
		y.Data[i] = float64(i%5) + 0.25
	}
	a := blas.NewDense(m, m)
	for i := range a.Data {
		a.Data[i] = 0.01 * float64(i+1)
	}
	return x, y, a
}

// benchKernel times op at every width and reports its rate; flops is
// the op's count at width m.
func benchKernel(b *testing.B, flops func(m int) int, op func(x, y, v *MultiVec, a *blas.Dense, g *blas.Dense)) {
	for _, m := range benchWidths {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			x, y, a := benchOperands(benchN, m)
			v, g := New(benchN, m), blas.NewDense(m, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(x, y, v, a, g)
			}
			b.ReportMetric(float64(flops(m))*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func smallProductFlops(m int) int { return 2 * benchN * m * m }

// The block-CG small operations: their cost relative to GSPMV decides
// how much of the kernel win survives (see EXPERIMENTS.md).
func BenchmarkGram(b *testing.B) {
	benchKernel(b, smallProductFlops, func(x, y, _ *MultiVec, _, g *blas.Dense) { GramInto(g, x, y) })
}

func BenchmarkAddMul(b *testing.B) {
	benchKernel(b, smallProductFlops, func(x, _, v *MultiVec, a, _ *blas.Dense) { v.AddMul(x, a) })
}

func BenchmarkSetMulAdd(b *testing.B) {
	benchKernel(b, smallProductFlops, func(x, y, v *MultiVec, a, _ *blas.Dense) { v.SetMulAdd(x, y, a) })
}

// BenchmarkColumnSweeps times MultiCG's four column sweeps and the
// Lanczos root's update at the served shape (n = 18000 rows: NB = 6000
// blocks of 3) and at the SD benchmark's (n = 3000), all w lanes live,
// on a pool of one and of two threads — the rows of DESIGN §9's
// "Threads" table; w = 1 is a lone CG's or Lanczos column's pass, rows
// in the ymm lanes. "-go" runs the Go loops (simd cleared) on the same
// split; ColThreeTerm and ColResidual above w = 1 have no other.
func BenchmarkColumnSweeps(b *testing.B) {
	for _, n := range []int{18000, benchN} {
		for _, w := range []int{1, 4, 8, 16, 32} {
			x, r, p, ap := New(n, w), New(n, w), New(n, w), New(n, w)
			for i := range x.Data {
				x.Data[i] = float64(i%7) + 0.5
				r.Data[i] = float64(i%5) + 0.25
				p.Data[i] = float64(i%3) - 0.75
				ap.Data[i] = float64(i%11) + 0.125
			}
			s1, s2 := make([]float64, w), make([]float64, w)
			for j := range s1 {
				s1[j] = 1e-3 * float64(j+1)
			}
			sweeps := []struct {
				name string
				op   func()
			}{
				{"ColDots", func() { ColDots(s2, p, ap) }},
				{"ColUpdate", func() { ColUpdate(x, r, p, ap, s1, s2) }},
				{"ColDirection", func() { ColDirection(p, r, s1) }},
				{"ColThreeTerm", func() { ColThreeTerm(x, r, p, s1, s1, s1) }},
				{"ColResidual", func() { ColResidual(x, r, ap, s1, s2) }},
			}
			for _, threads := range []int{1, 2} {
				for _, sw := range sweeps {
					for _, mode := range []string{"", "-go"} {
						name := fmt.Sprintf("n=%d/w=%d/threads=%d/%s%s", n, w, threads, sw.name, mode)
						b.Run(name, func(b *testing.B) {
							defer parallel.SetThreads(parallel.Threads())
							parallel.SetThreads(threads)
							if mode != "" {
								defer func(saved bool) { simd = saved }(simd)
								simd = false
							}
							for i := 0; i < b.N; i++ {
								sw.op()
							}
						})
					}
				}
			}
		}
	}
}
