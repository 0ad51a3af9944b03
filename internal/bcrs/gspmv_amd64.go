//go:build amd64

package bcrs

import "repro/internal/cpufeat"

// The GSPMV kernels have an AVX2 + FMA fast path (gspmv_amd64.s) that
// vectorizes across the right-hand sides: 4 columns per ymm lane
// group (8 per zmm with AVX-512), each lane running the scalar
// kernels' exact operation order, fused steps included, so the SIMD
// result is bitwise-identical to the pure-Go kernels. The last m % 8
// columns run under a lane mask, so every m takes the row kernel. This
// is the paper's own implementation strategy — its generated basic
// kernels vectorize the m dimension with SSE/AVX intrinsics (Section
// IV-A) — and it is what moves the compute bound F in the r(m) model
// from scalar to SIMD throughput.

// Implemented in gspmv_amd64.s. Their operation order has two fused
// steps (math.FMA in Go), so, like the symmetric kernels below, they
// need FMA3 besides AVX2, and Mul takes them where cpufeat.FMA is set.
func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)
func gspmvRowAVX512(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)

// Implemented in gspmv_amd64.s: the m = 1 multiply. It checks no index:
// NewMatrix and Builder admit only in-range ones, spmv1SIMD the rows.
func spmv1AVX2(rowPtr, colIdx *int32, vals, x, y *float64, lo, hi int)

// Implemented in sym_amd64.s. The symmetric kernels' operation order
// is an FMA chain (math.FMA in Go), and matching it bitwise needs FMA3,
// so Mul takes them where cpufeat.FMA is set.
func symGspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)
func symGspmvRowAVX512(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)
func symSpmv1AVX2(rowPtr, colIdx *int32, vals, x, y, part *float64, lo, hi int)

// gspmvSIMD runs the row kernel over [lo, hi): the AVX-512 one when
// cpufeat.AVX512 is set (read here, so clearing it forces the AVX2
// kernel), else the AVX2 one. m must be at least 2.
func gspmvSIMD(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	row := gspmvRowAVX2
	if cpufeat.AVX512 {
		row = gspmvRowAVX512
	}
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		yrow := &y[i*BlockDim*m]
		if k1 == k0 {
			clear(y[i*BlockDim*m : (i+1)*BlockDim*m])
			continue
		}
		row(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], yrow, m)
	}
}

// spmv1SIMD runs the AVX2 m = 1 kernel over the non-empty row range
// [lo, hi) of a matrix with at least one block.
func spmv1SIMD(rowPtr, colIdx []int32, vals, x, y []float64, lo, hi int) {
	_, _ = rowPtr[hi], y[3*hi-1]
	spmv1AVX2(&rowPtr[0], &colIdx[0], &vals[0], &x[0], &y[0], lo, hi)
}

// symGspmvSIMD runs the symmetric assembly kernels over [lo, hi),
// honoring the mulRange contract (accumulate into pre-zeroed y rows,
// out-of-range scatter into part): symSpmv1AVX2 at m = 1, else, per
// row, the AVX-512 row kernel on columns [0, m&^7) when cpufeat.AVX512
// is set (read here, as gspmvSIMD does) and the AVX2 one on the rest.
// Per column the chain does not depend on which kernel ran it.
func symGspmvSIMD(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	if lo >= hi || len(colIdx) == 0 {
		return // accumulate semantics: no block, nothing to add
	}
	var pp *float64
	if len(part) > 0 {
		pp = &part[0]
	}
	if m == 1 {
		_, _ = rowPtr[hi], y[3*hi-1]
		symSpmv1AVX2(&rowPtr[0], &colIdx[0], &vals[0], &x[0], &y[0], pp, lo, hi)
		return
	}
	wide := 0
	if cpufeat.AVX512 {
		wide = m &^ 7
	}
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		if k1 == k0 {
			continue // accumulate semantics: empty rows contribute nothing
		}
		if wide > 0 {
			symGspmvRowAVX512(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], &y[0], pp, i, hi, m, 0, wide)
		}
		if wide < m {
			symGspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], &y[0], pp, i, hi, m, wide, m)
		}
	}
}
