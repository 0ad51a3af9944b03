package chebyshev

import (
	"testing"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// BenchmarkApplyBlockVsColumns measures Algorithm 2's step-2 payoff:
// one block Chebyshev evaluation (GSPMV recurrence) versus m
// single-vector evaluations.
func BenchmarkApplyBlockVsColumns(b *testing.B) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 4000, BlocksPerRow: 20, Seed: 1})
	lo, hi := a.GershgorinInterval()
	if lo <= 0 {
		lo = 1e-3
	}
	op, err := NewSqrt(a, lo, hi, 30)
	if err != nil {
		b.Fatal(err)
	}
	const m = 8
	z := multivec.New(a.N(), m)
	rng.New(2).FillNormal(z.Data)
	y := multivec.New(a.N(), m)

	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.ApplyBlock(nil, y, z)
		}
	})
	b.Run("columns", func(b *testing.B) {
		zc := make([]float64, a.N())
		yc := make([]float64, a.N())
		for i := 0; i < b.N; i++ {
			for j := 0; j < m; j++ {
				z.Col(j, zc)
				op.ApplyBlock(nil, multivec.FromVector(yc), multivec.FromVector(zc))
			}
		}
	})
}
