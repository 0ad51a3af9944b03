package blas

import (
	"errors"
	"math"
)

// ErrSingular is returned when LU factorization meets a pivot that is
// exactly zero (to within underflow), i.e. the matrix is singular.
var ErrSingular = errors.New("blas: matrix is singular")

// LU holds an LU factorization with partial pivoting, P*A = L*U. It is
// sized for the small m-by-m systems that arise inside the block
// conjugate-gradient iteration (alpha and beta updates), where m is the
// number of right-hand sides — typically 4 to 32.
type LU struct {
	n    int
	lu   *Dense    // combined L (unit lower) and U factors
	piv  []int     // row permutation
	work []float64 // SolveMatrixInto's column scratch, 2n
}

// Factor recomputes f as the factorization of the square matrix A,
// reusing f's storage when A is no larger than any matrix it factored
// before — the block-CG iteration factors m-by-m and, once it drops a
// direction, smaller matrices every iteration and must not allocate.
// A is not modified. After an error f holds no usable factorization.
func (f *LU) Factor(a *Dense) error {
	if a.Rows != a.Cols {
		return errors.New("blas: LU.Factor requires a square matrix")
	}
	n := a.Rows
	if f.lu == nil || cap(f.piv) < n {
		f.lu, f.piv, f.work = NewDense(n, n), make([]int, n), make([]float64, 2*n)
	}
	f.n, f.piv, f.work = n, f.piv[:n], f.work[:2*n]
	f.lu.Rows, f.lu.Cols, f.lu.Data = n, n, f.lu.Data[:n*n]
	copy(f.lu.Data, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, pmax := k, math.Abs(f.lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu.At(i, k)); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return ErrSingular
		}
		if p != k {
			rp, rk := f.lu.Row(p), f.lu.Row(k)
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivot := f.lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := f.lu.At(i, k) / pivot
			f.lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := f.lu.Row(i), f.lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// solve solves A*x = b into x with caller-supplied scratch y of
// length n. b and x may alias.
func (f *LU) solve(x, b, y []float64) {
	n := f.n
	// Apply permutation into a scratch copy of b, then substitute.
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward: L*z = P*b (unit diagonal).
	for i := 0; i < n; i++ {
		row := f.lu.Row(i)
		s := y[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s
	}
	// Back: U*x = z.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}

// SolveMatrixInto solves A*X = B column by column into x, which must
// have B's shape, without allocating. It uses scratch owned by f, so
// it must not run concurrently on one factorization.
func (f *LU) SolveMatrixInto(x, b *Dense) {
	if b.Rows != f.n || x.Rows != b.Rows || x.Cols != b.Cols {
		panic("blas: LU SolveMatrix dimension mismatch")
	}
	col, y := f.work[:f.n], f.work[f.n:]
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.At(i, j)
		}
		f.solve(col, col, y)
		for i := 0; i < f.n; i++ {
			x.Set(i, j, col[i])
		}
	}
}
