// Package blas provides the small dense linear-algebra kernels used
// throughout the repository: vector primitives, small dense matrices,
// Cholesky and LU factorizations, a Jacobi symmetric eigensolver, and
// 3x3 block/vector helpers for the hydrodynamic tensors.
//
// The package is deliberately dependency-free and unoptimized relative
// to the sparse kernels in internal/bcrs: it serves two roles. First,
// it supplies the m-by-m "small solves" inside the block
// conjugate-gradient method (internal/solver). Second, it is an
// independent oracle for property tests: sparse results are compared
// against dense reference computations built from these routines.
package blas

import "math"

// Dot returns the inner product of x and y. The slices must have equal
// length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow for
// large entries by scaling.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sub computes dst = x - y elementwise. All slices must have equal
// length; dst may alias x or y.
func Sub(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("blas: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Add computes dst = x + y elementwise. All slices must have equal
// length; dst may alias x or y.
func Add(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("blas: Add length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}
