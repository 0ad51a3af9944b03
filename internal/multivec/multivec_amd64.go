//go:build amd64

package multivec

import "repro/internal/cpufeat"

// Implemented in multivec_amd64.s.
func mulAddAVX2(dst, src, x, a *float64, nrows, m int)
func gramAVX2(acc, x, y *float64, nrows, m int)
func chebStepAVX2(y, t, cur, prev *float64, n int, alpha, beta, c float64)
func colDotsAVX2(dst, x, y *float64, nrows, w int)
func colUpdateAVX2(x, r, p, ap, alpha, rr *float64, nrows, w int)
func colDirectionAVX2(p, z, beta *float64, nrows, w int)

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

// chebStepSIMD is ChebyshevStep on non-empty arrays of one length.
func chebStepSIMD(y, t, cur, prev []float64, alpha, beta, c float64) {
	chebStepAVX2(&y[0], &t[0], &cur[0], &prev[0], len(y), alpha, beta, c)
}

// The lane sweeps below run every lane of rows [lo, hi), lo < hi, of
// n-by-w blocks whose scalar slices are w long (laneShape).

// rowBase returns the address of row lo of v after checking that row
// hi-1 is inside it.
func rowBase(v *MultiVec, lo, hi int) *float64 {
	_ = v.Data[hi*v.M-1]
	return &v.Data[lo*v.M]
}

func colDotsSIMD(dst []float64, x, y *MultiVec, lo, hi int) {
	colDotsAVX2(&dst[0], rowBase(x, lo, hi), rowBase(y, lo, hi), hi-lo, x.M)
}

func colUpdateSIMD(x, r, p, ap *MultiVec, alpha, rr []float64, lo, hi int) {
	colUpdateAVX2(rowBase(x, lo, hi), rowBase(r, lo, hi), rowBase(p, lo, hi), rowBase(ap, lo, hi),
		&alpha[0], &rr[0], hi-lo, x.M)
}

func colDirectionSIMD(p, z *MultiVec, beta []float64, lo, hi int) {
	colDirectionAVX2(rowBase(p, lo, hi), rowBase(z, lo, hi), &beta[0], hi-lo, p.M)
}
