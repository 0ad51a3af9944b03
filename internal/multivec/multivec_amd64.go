//go:build amd64

package multivec

import "repro/internal/cpufeat"

// Implemented in multivec_amd64.s. The lane kernels take a lane
// reduction's partials (phases runs of w) in the sweep's own scratch;
// noescape keeps a caller's arguments off the heap.

//go:noescape
func mulAddAVX2(dst, src, x, a *float64, nrows, m int)

//go:noescape
func gramAVX2(acc, x, y *float64, nrows, m int)

//go:noescape
func chebStepAVX2(y, t, cur, prev *float64, n int, alpha, beta, c float64)

//go:noescape
func colDotsAVX2(acc, x, y *float64, nrows, w int)

//go:noescape
func colUpdateAVX2(x, r, p, ap, alpha, acc *float64, nrows, w int)

//go:noescape
func colDirectionAVX2(p, z, beta *float64, nrows, w int)

//go:noescape
func colDots1AVX2(acc, x, y *float64, n int)

//go:noescape
func colUpdate1AVX2(x, r, p, ap, acc *float64, n int, alpha float64)

//go:noescape
func colResidual1AVX2(r, b, ax, accB, accR *float64, n int)

//go:noescape
func colDirection1AVX2(p, z *float64, n int, beta float64)

//go:noescape
func colThreeTerm1AVX2(u, q, prev *float64, n int, alpha, gi, h float64)

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
// n-by-w blocks whose scalar slices are w long (laneShape) and whose
// partials are phases runs of w (sweep.rows); a block one lane wide
// takes the w = 1 kernel.

// rowBase returns the address of row lo of v after checking that row
// hi-1 is inside it.
func rowBase(v *MultiVec, lo, hi int) *float64 {
	_ = v.Data[hi*v.M-1]
	return &v.Data[lo*v.M]
}

// partials returns the address of acc after checking that it holds a
// lane reduction's partials for w lanes.
func partials(acc []float64, w int) *float64 {
	_ = acc[phases*w-1]
	return &acc[0]
}

func colDotsSIMD(acc []float64, x, y *MultiVec, lo, hi int) {
	a, xb, yb := partials(acc, x.M), rowBase(x, lo, hi), rowBase(y, lo, hi)
	if x.M == 1 {
		colDots1AVX2(a, xb, yb, hi-lo)
		return
	}
	colDotsAVX2(a, xb, yb, hi-lo, x.M)
}

func colUpdateSIMD(x, r, p, ap *MultiVec, alpha, acc []float64, lo, hi int) {
	xb, rb, pb, ab := rowBase(x, lo, hi), rowBase(r, lo, hi), rowBase(p, lo, hi), rowBase(ap, lo, hi)
	if x.M == 1 {
		colUpdate1AVX2(xb, rb, pb, ab, partials(acc, 1), hi-lo, alpha[0])
		return
	}
	colUpdateAVX2(xb, rb, pb, ab, &alpha[0], partials(acc, x.M), hi-lo, x.M)
}

func colDirectionSIMD(p, z *MultiVec, beta []float64, lo, hi int) {
	pb, zb := rowBase(p, lo, hi), rowBase(z, lo, hi)
	if p.M == 1 {
		colDirection1AVX2(pb, zb, hi-lo, beta[0])
		return
	}
	colDirectionAVX2(pb, zb, &beta[0], hi-lo, p.M)
}

// colResidualSIMD and colThreeTermSIMD run one-lane blocks only.

func colResidualSIMD(r, b, ax *MultiVec, sb, sr []float64, lo, hi int) {
	colResidual1AVX2(rowBase(r, lo, hi), rowBase(b, lo, hi), rowBase(ax, lo, hi),
		partials(sb, 1), partials(sr, 1), hi-lo)
}

func colThreeTermSIMD(u, q, prev *MultiVec, alpha, g, h float64, lo, hi int) {
	colThreeTerm1AVX2(rowBase(u, lo, hi), rowBase(q, lo, hi), rowBase(prev, lo, hi), hi-lo, alpha, g, h)
}
