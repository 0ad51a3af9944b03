//go:build amd64

package bcrs

import "repro/internal/cpufeat"

// The wide-m GSPMV kernels have an AVX2 fast path (gspmv_amd64.s)
// that vectorizes across the right-hand sides: 4 columns per ymm
// lane group, each lane running the scalar kernels' exact operation
// order, so the SIMD result is bitwise-identical to the pure-Go
// kernels. This is the paper's own implementation strategy — its
// generated basic kernels vectorize the m dimension with SSE/AVX
// intrinsics (Section IV-A) — and it is what moves the compute bound
// F in the r(m) model from scalar to SIMD throughput.

// Implemented in gspmv_amd64.s.
func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)

// Implemented in gspmv_amd64.s: the m = 1 multiply. It checks no index:
// NewMatrix and Builder admit only in-range ones, spmv1SIMD the rows.
func spmv1AVX2(rowPtr, colIdx *int32, vals, x, y *float64, lo, hi int)

// Implemented in sym_amd64.s.
func symGspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)

// simdWidth is 8 (columns per inner-kernel call) when the host and
// OS support AVX2, else 0. Tests may clear it to force the pure-Go
// kernels.
var simdWidth = detectSIMD()

// symSIMDWidth is the symmetric kernel's column-group granularity: 2
// when AVX2 and FMA3 are available. The asm kernel runs 4-wide ymm
// groups with a 2-wide xmm tail, so it serves every even column count
// — full-width m = 2 included — while the symmetric body's three live
// vector sets (accumulators, x row i, x row j) keep it narrower than
// the general kernel's 8. The scalar DAG is FMA-based, so the asm
// path additionally needs the FMA extension. Tests may clear this to
// force the pure-Go kernels.
var symSIMDWidth = detectSymSIMD()

func detectSymSIMD() int {
	// The symmetric kernels' operation order is an FMA chain
	// (math.FMA in Go); matching it bitwise in asm needs FMA3.
	if !cpufeat.FMA {
		return 0
	}
	return 2
}

func detectSIMD() int {
	if !cpufeat.AVX2 {
		return 0
	}
	return 8
}

// gspmvSIMD runs the AVX2 row kernel over [lo, hi). m must be a
// positive multiple of 8.
func gspmvSIMD(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		yrow := &y[i*BlockDim*m]
		if k1 == k0 {
			clear(y[i*BlockDim*m : (i+1)*BlockDim*m])
			continue
		}
		gspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], yrow, m)
	}
}

// spmv1SIMD runs the AVX2 m = 1 kernel over the non-empty row range
// [lo, hi) of a matrix with at least one block.
func spmv1SIMD(rowPtr, colIdx []int32, vals, x, y []float64, lo, hi int) {
	_, _ = rowPtr[hi], y[3*hi-1]
	spmv1AVX2(&rowPtr[0], &colIdx[0], &vals[0], &x[0], &y[0], lo, hi)
}

// symGspmvSIMD runs the AVX2 symmetric row kernel over [lo, hi),
// honoring the mulRange contract (accumulate into pre-zeroed y rows,
// out-of-range scatter into part). m must be a positive multiple of
// symSIMDWidth. The row kernel takes a column window [c0, c1) of the
// m-column rows; it is always the whole row here.
func symGspmvSIMD(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	var pp *float64
	if len(part) > 0 {
		pp = &part[0]
	}
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		if k1 == k0 {
			continue // accumulate semantics: empty rows contribute nothing
		}
		symGspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], &y[0], pp, i, hi, m, 0, m)
	}
}
