package multivec

import (
	"fmt"
	"testing"

	"repro/internal/blas"
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

func BenchmarkColNorms(b *testing.B) {
	norms := make([]float64, benchWidths[len(benchWidths)-1])
	benchKernel(b, func(m int) int { return 2 * benchN * m }, func(x, _, _ *MultiVec, _, _ *blas.Dense) {
		x.ColNormsInto(norms[:x.M])
	})
}
