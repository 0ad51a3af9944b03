package bcrs

import (
	"time"

	"repro/internal/cpufeat"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// MulVec computes y = A*x, the classic single-vector SPMV. len(x) and
// len(y) must equal a.N(); y must not alias x.
func (a *Matrix) MulVec(y, x []float64) {
	if len(x) != a.NCols() || len(y) != a.N() {
		panic("bcrs: MulVec dimension mismatch")
	}
	t0 := time.Now()
	if len(a.ranges) <= 1 {
		spmv1(a.rowPtr, a.colIdx, a.vals, x, y, 0, a.nb)
	} else {
		a.parallel(func(lo, hi int) {
			spmv1(a.rowPtr, a.colIdx, a.vals, x, y, lo, hi)
		})
	}
	a.recordMul(1, time.Since(t0).Seconds())
}

// Mul computes Y = A*X, the generalized SPMV with X.M simultaneous
// vectors. X and Y must have a.N() rows and equal vector counts; Y
// must not alias X. For m in {1, 2, 4, 8, 16} a fully-unrolled
// specialized kernel is dispatched; other m use the generic kernel.
func (a *Matrix) Mul(y, x *multivec.MultiVec) {
	a.mul(y, x, false)
}

// MulGenericKernel is Mul but always uses the generic (non-
// specialized) kernel regardless of m. It exists for the kernel-
// dispatch ablation benchmark.
func (a *Matrix) MulGenericKernel(y, x *multivec.MultiVec) {
	a.mul(y, x, true)
}

func (a *Matrix) mul(y, x *multivec.MultiVec, forceGeneric bool) {
	if x.N != a.NCols() || y.N != a.N() || x.M != y.M {
		panic("bcrs: Mul dimension mismatch")
	}
	t0 := time.Now()
	if len(a.ranges) <= 1 {
		a.mulRange(y, x, forceGeneric, 0, a.nb)
	} else {
		a.parallel(func(lo, hi int) { a.mulRange(y, x, forceGeneric, lo, hi) })
	}
	a.recordMul(x.M, time.Since(t0).Seconds())
}

// mulRange multiplies block rows [lo, hi) with the kernel Mul
// dispatches for x.M.
func (a *Matrix) mulRange(y, x *multivec.MultiVec, forceGeneric bool, lo, hi int) {
	m := x.M
	switch {
	case forceGeneric:
		gspmvGeneric(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, m, lo, hi)
	case simdWidth > 0 && m >= simdWidth && m%simdWidth == 0:
		// The AVX2 fast path (bitwise-identical lanes across the m
		// dimension) takes over every specialized width it divides.
		gspmvSIMD(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, m, lo, hi)
	case m == 1:
		spmv1(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	case m == 2:
		gspmv2(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	case m == 4:
		gspmv4(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	case m == 8:
		gspmv8(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	case m == 16:
		gspmv16(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	case m == 32:
		gspmv32(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, lo, hi)
	default:
		gspmvGeneric(a.rowPtr, a.colIdx, a.vals, x.Data, y.Data, m, lo, hi)
	}
}

// parallel runs fn over the thread-blocked block-row ranges,
// dispatched through the shared persistent worker pool instead of
// spawning fresh goroutines per multiply. Each range writes a
// disjoint slice of the output, so the result is bitwise-identical
// for any pool size and no synchronization beyond the final join is
// needed. Callers run a single range themselves: the closure handed
// over here is a heap allocation per multiply.
func (a *Matrix) parallel(fn func(lo, hi int)) {
	ranges := a.ranges
	parallel.Default().DoOp("bcrs_mul", len(ranges), func(i int) {
		fn(ranges[i].lo, ranges[i].hi)
	})
}

// spmv1 is the specialized m=1 kernel: a 3x3 block-row SPMV with the
// three accumulators in locals — or, with AVX2, in three lanes that run
// this loop's operation order (spmv1AVX2), to the same bits.
func spmv1(rowPtr, colIdx []int32, vals, x, y []float64, lo, hi int) {
	if cpufeat.AVX2 && lo < hi && len(colIdx) > 0 {
		spmv1SIMD(rowPtr, colIdx, vals, x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		var s0, s1, s2 float64
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			j := int(colIdx[k]) * BlockDim
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
		}
		y[i*BlockDim] = s0
		y[i*BlockDim+1] = s1
		y[i*BlockDim+2] = s2
	}
}

// gspmvGeneric is the fallback kernel for arbitrary m. Each 3x3 block
// is loaded once into locals and applied to the m row-major values of
// the three corresponding X rows.
func gspmvGeneric(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		yb := y[i*BlockDim*m : (i+1)*BlockDim*m]
		for j := range yb {
			yb[j] = 0
		}
		y0 := yb[0:m]
		y1 := yb[m : 2*m]
		y2 := yb[2*m : 3*m]
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			xo := int(colIdx[k]) * BlockDim * m
			x0 := x[xo : xo+m]
			x1 := x[xo+m : xo+2*m]
			x2 := x[xo+2*m : xo+3*m]
			a00, a01, a02 := v[0], v[1], v[2]
			a10, a11, a12 := v[3], v[4], v[5]
			a20, a21, a22 := v[6], v[7], v[8]
			for j := 0; j < m; j++ {
				xv0, xv1, xv2 := x0[j], x1[j], x2[j]
				y0[j] += a00*xv0 + a01*xv1 + a02*xv2
				y1[j] += a10*xv0 + a11*xv1 + a12*xv2
				y2[j] += a20*xv0 + a21*xv1 + a22*xv2
			}
		}
	}
}
