package bcrs

import (
	"math"
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
	a.run(y, x, 1, false)
	a.recordMul(1, time.Since(t0).Seconds())
}

// Mul computes Y = A*X, the generalized SPMV with X.M simultaneous
// vectors. X and Y must have a.N() rows and equal vector counts; Y
// must not alias X. On an AVX2 + FMA host every m runs assembly: m = 1
// the three-lane kernel, every other m a row kernel (AVX-512 where the
// host has it) whose last m % 8 columns run under a lane mask. Without
// AVX2 and FMA, m = 1 runs its Go loop and every other m the generic
// one. All of them run spmv1's fused recurrence and give the same
// bits.
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
	a.run(y.Data, x.Data, x.M, forceGeneric)
	a.recordMul(x.M, time.Since(t0).Seconds())
}

// run multiplies flat row-major data with m columns, split into the
// pool's Parts of its traffic as nnz-balanced block-row ranges. Each
// range writes a disjoint slice of the output with the kernel the
// serial path runs, so the result is bitwise-identical at every pool
// size. A multiply too small to split is the serial kernel, with
// nothing to make or recycle.
func (a *Matrix) run(y, x []float64, m int, forceGeneric bool) {
	pool := parallel.Default()
	bytes := int(a.TrafficBytes(m))
	k := pool.Parts(bytes)
	if k == 1 {
		a.mulRange(y, x, m, forceGeneric, 0, a.nb)
		return
	}
	s := a.split.Swap(nil)
	if s == nil || s.k != k {
		s = &mulSplit{a: a, k: k, ranges: balanceRows(a.rowPtr, a.nb, k)}
		s.fn = s.runRange
	}
	s.y, s.x, s.m, s.generic = y, x, m, forceGeneric
	pool.DoOp(KernelMetricPrefix, len(s.ranges), bytes, s.fn)
	s.y, s.x = nil, nil
	a.split.Store(s)
}

// mulSplit is one multiply split into k parts: its block-row ranges,
// its operands, and runRange bound once to fn — handing the pool fn
// instead of a fresh closure is what keeps a warmed multiply
// allocation-free.
type mulSplit struct {
	a       *Matrix
	k       int
	ranges  []rowRange
	y, x    []float64
	m       int
	generic bool
	fn      func(i int)
}

func (s *mulSplit) runRange(i int) {
	r := s.ranges[i]
	s.a.mulRange(s.y, s.x, s.m, s.generic, r.lo, r.hi)
}

// mulRange multiplies block rows [lo, hi) with the kernel Mul
// dispatches for m: the SIMD kernels where cpufeat.AVX2 and
// cpufeat.FMA (read per call, so clearing either forces the Go loops),
// else the Go loops.
func (a *Matrix) mulRange(y, x []float64, m int, forceGeneric bool, lo, hi int) {
	switch {
	case forceGeneric:
		gspmvGeneric(a.rowPtr, a.colIdx, a.vals, x, y, m, lo, hi)
	case m == 1:
		spmv1(a.rowPtr, a.colIdx, a.vals, x, y, lo, hi)
	case cpufeat.AVX2 && cpufeat.FMA:
		gspmvSIMD(a.rowPtr, a.colIdx, a.vals, x, y, m, lo, hi)
	default:
		gspmvGeneric(a.rowPtr, a.colIdx, a.vals, x, y, m, lo, hi)
	}
}

// spmv1 is the specialized m=1 kernel: a 3x3 block-row SPMV with the
// three accumulators in locals — or, with AVX2 and FMA, in three lanes
// that run this loop's operation order (spmv1AVX2), to the same bits.
// That order, every general kernel's at every m, is per block row r
//
//	t = a_r0*x0; t = fma(a_r1, x1, t); t = fma(a_r2, x2, t); acc += t
//
// with the product pinned by float64(…), so no compiler fuses it
// otherwise.
func spmv1(rowPtr, colIdx []int32, vals, x, y []float64, lo, hi int) {
	if cpufeat.AVX2 && cpufeat.FMA && lo < hi && len(colIdx) > 0 {
		spmv1SIMD(rowPtr, colIdx, vals, x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		var s0, s1, s2 float64
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			j := int(colIdx[k]) * BlockDim
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += math.FMA(v[2], x2, math.FMA(v[1], x1, float64(v[0]*x0)))
			s1 += math.FMA(v[5], x2, math.FMA(v[4], x1, float64(v[3]*x0)))
			s2 += math.FMA(v[8], x2, math.FMA(v[7], x1, float64(v[6]*x0)))
		}
		y[i*BlockDim] = s0
		y[i*BlockDim+1] = s1
		y[i*BlockDim+2] = s2
	}
}

// gspmvGeneric is the Go kernel for every m > 1, the oracle the row
// kernels are tested against. Each 3x3 block is loaded once into
// locals and applied to the m row-major values of the three
// corresponding X rows, each column in spmv1's recurrence.
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
				y0[j] += math.FMA(a02, xv2, math.FMA(a01, xv1, float64(a00*xv0)))
				y1[j] += math.FMA(a12, xv2, math.FMA(a11, xv1, float64(a10*xv0)))
				y2[j] += math.FMA(a22, xv2, math.FMA(a21, xv1, float64(a20*xv0)))
			}
		}
	}
}
