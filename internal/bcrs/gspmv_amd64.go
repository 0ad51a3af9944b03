//go:build amd64

package bcrs

import "repro/internal/cpufeat"

// The GSPMV kernels have an AVX2 fast path (gspmv_amd64.s) that
// vectorizes across the right-hand sides: 4 columns per ymm lane
// group (8 per zmm with AVX-512), each lane running the scalar
// kernels' exact operation order, so the SIMD result is
// bitwise-identical to the pure-Go kernels. The last m % 8 columns run
// under a lane mask, so every m takes the row kernel. This is the
// paper's own implementation strategy — its generated basic kernels
// vectorize the m dimension with SSE/AVX intrinsics (Section IV-A) —
// and it is what moves the compute bound F in the r(m) model from
// scalar to SIMD throughput.

// Implemented in gspmv_amd64.s.
func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)
func gspmvRowAVX512(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)

// Implemented in gspmv_amd64.s: the m = 1 multiply. It checks no index:
// NewMatrix and Builder admit only in-range ones, spmv1SIMD the rows.
func spmv1AVX2(rowPtr, colIdx *int32, vals, x, y *float64, lo, hi int)

// Implemented in sym_amd64.s.
func symGspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)
func symSpmv1AVX2(rowPtr, colIdx *int32, vals, x, y, part *float64, lo, hi int)

// symSIMDWidth is the symmetric assembly's column granularity: 1 —
// every m, m = 1 by its own kernel — when AVX2 and FMA3 are available,
// else 0. The symmetric kernels' operation order is an FMA chain
// (math.FMA in Go), and matching it bitwise in asm needs FMA3. Tests
// may clear it to force the pure-Go kernels.
var symSIMDWidth = detectSymSIMD()

func detectSymSIMD() int {
	if !cpufeat.FMA {
		return 0
	}
	return 1
}

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

// symGspmvSIMD runs the AVX2 symmetric kernels over [lo, hi), honoring
// the mulRange contract (accumulate into pre-zeroed y rows,
// out-of-range scatter into part): symSpmv1AVX2 at m = 1, else the row
// kernel. The row kernel takes a column window [c0, c1) of the
// m-column rows; it is always the whole row here.
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
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		if k1 == k0 {
			continue // accumulate semantics: empty rows contribute nothing
		}
		symGspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], &y[0], pp, i, hi, m, 0, m)
	}
}
