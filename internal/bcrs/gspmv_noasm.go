//go:build !amd64

package bcrs

// Non-amd64 builds have no SIMD fast path: cpufeat reports no AVX2
// and no FMA, so the pure-Go kernels run at every m.

func gspmvSIMD(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	panic("bcrs: gspmvSIMD without SIMD support")
}

func symGspmvSIMD(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	panic("bcrs: symGspmvSIMD without SIMD support")
}

func spmv1SIMD(rowPtr, colIdx []int32, vals, x, y []float64, lo, hi int) {
	panic("bcrs: spmv1SIMD without SIMD support")
}
