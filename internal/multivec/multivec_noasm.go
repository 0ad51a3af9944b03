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

func chebStepSIMD(y, t, cur, prev []float64, alpha, beta, c float64) {
	panic("multivec: chebStepSIMD without SIMD support")
}

func colDotsSIMD(acc []float64, x, y *MultiVec, lo, hi int) {
	panic("multivec: colDotsSIMD without SIMD support")
}

func colUpdateSIMD(x, r, p, ap *MultiVec, alpha, acc []float64, lo, hi int) {
	panic("multivec: colUpdateSIMD without SIMD support")
}

func colDirectionSIMD(p, z *MultiVec, beta []float64, lo, hi int) {
	panic("multivec: colDirectionSIMD without SIMD support")
}

func colResidualSIMD(r, b, ax *MultiVec, sb, sr []float64, lo, hi int) {
	panic("multivec: colResidualSIMD without SIMD support")
}

func colThreeTermSIMD(u, q, prev *MultiVec, alpha, g, h float64, lo, hi int) {
	panic("multivec: colThreeTermSIMD without SIMD support")
}
