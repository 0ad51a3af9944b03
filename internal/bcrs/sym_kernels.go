package bcrs

import "math"

// Symmetric GSPMV kernels. Each processes block rows [lo, hi) of the
// upper-triangle storage with two writes per stored block: the direct
// application A_ij*x_j accumulated into y row i, and (for j != i) the
// transposed application A_ij^T*x_i scattered into row j — into y
// itself when j < hi (the caller owns those rows) or into the
// column-bounded partial buffer part, whose block row 0 corresponds
// to block row hi, when the target lies beyond the range.
//
// y rows [lo, hi) arrive zeroed (or holding scatter from earlier rows
// of the same range); the direct accumulator therefore LOADS from y
// before the block loop and stores back after, so earlier in-range
// scatter is carried.
//
// Unlike the general kernels (whose block rows start from a plain
// product and fuse the other two steps, spmv1), the symmetric family
// defines its operation order as a fused-multiply-add chain through
// the accumulator:
//
//	acc = fma(a_r2, x2, fma(a_r1, x1, fma(a_r0, x0, acc)))
//
// math.FMA is correctly rounded on every platform (hardware FMA where
// available, exact software fallback otherwise), so this DAG is
// bitwise-deterministic across hosts, and the AVX2 path (sym_amd64.s,
// VFMADD231PD) reproduces it exactly. The fused form matters: the
// symmetric kernel applies every off-diagonal block twice, and without
// FMA its ALU work — not the halved memory traffic — becomes the bound
// at large m, which is precisely the regime the half storage targets.
// Per column the DAG is independent of m, preserving the per-column
// bitwise invariance the solvers rely on.

// symSpmv1 is the m = 1 Go kernel: the oracle symSpmv1AVX2 is tested
// against, and the path of hosts without AVX2 and FMA3.
func symSpmv1(rowPtr, colIdx []int32, vals, x, y, part []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s0, s1, s2 := y[i*BlockDim], y[i*BlockDim+1], y[i*BlockDim+2]
		xi0, xi1, xi2 := x[i*BlockDim], x[i*BlockDim+1], x[i*BlockDim+2]
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			j := int(colIdx[k])
			xj := x[j*BlockDim : j*BlockDim+BlockDim : j*BlockDim+BlockDim]
			x0, x1, x2 := xj[0], xj[1], xj[2]
			s0 = math.FMA(v[2], x2, math.FMA(v[1], x1, math.FMA(v[0], x0, s0)))
			s1 = math.FMA(v[5], x2, math.FMA(v[4], x1, math.FMA(v[3], x0, s1)))
			s2 = math.FMA(v[8], x2, math.FMA(v[7], x1, math.FMA(v[6], x0, s2)))
			if j != i {
				var dst []float64
				if j < hi {
					dst = y[j*BlockDim : j*BlockDim+BlockDim : j*BlockDim+BlockDim]
				} else {
					po := (j - hi) * BlockDim
					dst = part[po : po+BlockDim : po+BlockDim]
				}
				dst[0] = math.FMA(v[6], xi2, math.FMA(v[3], xi1, math.FMA(v[0], xi0, dst[0])))
				dst[1] = math.FMA(v[7], xi2, math.FMA(v[4], xi1, math.FMA(v[1], xi0, dst[1])))
				dst[2] = math.FMA(v[8], xi2, math.FMA(v[5], xi1, math.FMA(v[2], xi0, dst[2])))
			}
		}
		y[i*BlockDim] = s0
		y[i*BlockDim+1] = s1
		y[i*BlockDim+2] = s2
	}
}

// symGspmvGeneric is the Go kernel for every m > 1: the oracle the
// row kernel is tested against, and the path of hosts without AVX2 and
// FMA3.
func symGspmvGeneric(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	bm := BlockDim * m
	for i := lo; i < hi; i++ {
		yi := y[i*bm : (i+1)*bm : (i+1)*bm]
		xi := x[i*bm : (i+1)*bm : (i+1)*bm]
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			j := int(colIdx[k])
			xj := x[j*bm : (j+1)*bm : (j+1)*bm]
			a00, a01, a02 := v[0], v[1], v[2]
			a10, a11, a12 := v[3], v[4], v[5]
			a20, a21, a22 := v[6], v[7], v[8]
			for q := 0; q < m; q++ {
				x0, x1, x2 := xj[q], xj[m+q], xj[2*m+q]
				yi[q] = math.FMA(a02, x2, math.FMA(a01, x1, math.FMA(a00, x0, yi[q])))
				yi[m+q] = math.FMA(a12, x2, math.FMA(a11, x1, math.FMA(a10, x0, yi[m+q])))
				yi[2*m+q] = math.FMA(a22, x2, math.FMA(a21, x1, math.FMA(a20, x0, yi[2*m+q])))
			}
			if j != i {
				var dst []float64
				if j < hi {
					dst = y[j*bm : (j+1)*bm : (j+1)*bm]
				} else {
					po := (j - hi) * bm
					dst = part[po : po+bm : po+bm]
				}
				for q := 0; q < m; q++ {
					x0, x1, x2 := xi[q], xi[m+q], xi[2*m+q]
					dst[q] = math.FMA(a20, x2, math.FMA(a10, x1, math.FMA(a00, x0, dst[q])))
					dst[m+q] = math.FMA(a21, x2, math.FMA(a11, x1, math.FMA(a01, x0, dst[m+q])))
					dst[2*m+q] = math.FMA(a22, x2, math.FMA(a12, x1, math.FMA(a02, x0, dst[2*m+q])))
				}
			}
		}
	}
}
