//go:build amd64

package chebyshev

import "repro/internal/cpufeat"

// Implemented in lanczos_amd64.s: combineColumn's rows [lo, hi) of a
// one-column y, eight rows to two ymm, bitwise its Go loop.
//
//go:noescape
func combine1AVX2(y *float64, ps *[]float64, cy, cd, accY, accD *float64, k, lo, hi int)

// combineSIMD runs combineColumn on rows [lo, hi) of a one-column y
// with k basis vectors in assembly, and reports whether it did.
func combineSIMD(y []float64, ps [][]float64, cy, cd, ys, ds []float64, k, lo, hi int) bool {
	if !cpufeat.AVX2 || k == 0 || lo >= hi {
		return false
	}
	_, _, _ = y[hi-1], cy[k-1], cd[k-1]
	_, _ = ys[phases-1], ds[phases-1]
	for _, p := range ps[:k] {
		_ = p[hi-1]
	}
	combine1AVX2(&y[0], &ps[0], &cy[0], &cd[0], &ys[0], &ds[0], k, lo, hi)
	return true
}
