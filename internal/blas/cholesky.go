package blas

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a non-positive
// pivot is encountered, i.e. the input matrix is not (numerically)
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("blas: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L*L^T for a
// symmetric positive definite matrix A. Only the lower triangle of A
// is read. The returned matrix has zeros above the diagonal. It is a
// dense reference: tests whiten forces and invert the far-field
// mobility of the full SD matrix (hydro.BuildFull) with it.
func Cholesky(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("blas: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// CholeskySolve solves A*x = b given the lower Cholesky factor L of A,
// overwriting x with the solution. b and x may alias.
func CholeskySolve(l *Dense, x, b []float64) {
	n := l.Rows
	if len(x) != n || len(b) != n {
		panic("blas: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L*y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back substitution: L^T*x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}
