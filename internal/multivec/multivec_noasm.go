//go:build !amd64

package multivec

// Non-amd64 builds have no SIMD fast path; the generic Go loops serve
// every shape.
var simd = false

func mulAddSIMD(dst, src, x, a []float64, lo, hi, m int) {
	panic("multivec: mulAddSIMD without SIMD support")
}

func gramSIMD(g, x, y []float64, lo, hi, m int) {
	panic("multivec: gramSIMD without SIMD support")
}

func colSumSqSIMD(sums, v []float64, lo, hi, m int) {
	panic("multivec: colSumSqSIMD without SIMD support")
}

func chebStepSIMD(y, t, cur, prev []float64, alpha, beta, c float64) {
	panic("multivec: chebStepSIMD without SIMD support")
}
