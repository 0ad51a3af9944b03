//go:build amd64

package multivec

import "repro/internal/cpufeat"

// Implemented in multivec_amd64.s.
func mulAddAVX2(dst, src, x, a *float64, nrows, m int)
func gramAVX2(acc, x, y *float64, nrows, m int)
func colSumSqAVX2(sums, v *float64, nrows, m int)
func chebStepAVX2(y, t, cur, prev *float64, n int, alpha, beta, c float64)

// simd enables the AVX2 row-range kernels. Tests may clear it to
// force the generic Go loops, which are the oracle.
var simd = cpufeat.AVX2

// gramBlockElems is how many elements of each operand one gramAVX2
// call sweeps: the kernel passes over its rows (m/4)^2 times, so two
// operand blocks of this size (2 x 8 KiB) must sit in L1.
const gramBlockElems = 1024

// mulAddSIMD computes dst = src + x*a over rows [lo, hi).
func mulAddSIMD(dst, src, x, a []float64, lo, hi, m int) {
	if lo >= hi {
		return
	}
	a = a[:m*m]
	mulAddAVX2(&dst[lo*m : hi*m][0], &src[lo*m : hi*m][0], &x[lo*m : hi*m][0], &a[0], hi-lo, m)
}

// gramSIMD accumulates rows [lo, hi) of x^T*y into g.
func gramSIMD(g, x, y []float64, lo, hi, m int) {
	g = g[:m*m]
	step := max(gramBlockElems/m, 1)
	for ; lo < hi; lo += step {
		end := min(lo+step, hi)
		gramAVX2(&g[0], &x[lo*m : end*m][0], &y[lo*m : end*m][0], end-lo, m)
	}
}

// colSumSqSIMD accumulates the column sums of squares of rows
// [lo, hi) of v into sums.
func colSumSqSIMD(sums, v []float64, lo, hi, m int) {
	if lo >= hi {
		return
	}
	sums = sums[:m]
	colSumSqAVX2(&sums[0], &v[lo*m : hi*m][0], hi-lo, m)
}

// chebStepSIMD is ChebyshevStep on non-empty arrays of one length.
func chebStepSIMD(y, t, cur, prev []float64, alpha, beta, c float64) {
	chebStepAVX2(&y[0], &t[0], &cur[0], &prev[0], len(y), alpha, beta, c)
}
