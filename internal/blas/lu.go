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
	sign int       // permutation parity, +1 or -1
	work []float64 // SolveMatrixInto's column scratch, 2n
}

// LUFactor computes the factorization of a square matrix A with
// partial pivoting. A is not modified.
func LUFactor(a *Dense) (*LU, error) {
	f := new(LU)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor recomputes f as the factorization of the square matrix A,
// reusing f's storage when A has the size of the previous one — the
// block-CG iteration factors two m-by-m matrices per iteration and
// must not allocate. A is not modified. After an error f holds no
// usable factorization.
func (f *LU) Factor(a *Dense) error {
	if a.Rows != a.Cols {
		return errors.New("blas: LUFactor requires a square matrix")
	}
	n := a.Rows
	if f.lu == nil || f.n != n {
		f.n, f.lu, f.piv, f.work = n, NewDense(n, n), make([]int, n), make([]float64, 2*n)
	}
	copy(f.lu.Data, a.Data)
	f.sign = 1
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
			f.sign = -f.sign
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

// Solve solves A*x = b, writing the solution to x. b and x may alias.
func (f *LU) Solve(x, b []float64) {
	f.solve(x, b, make([]float64, f.n))
}

// solve is Solve with caller-supplied scratch y of length n.
func (f *LU) solve(x, b, y []float64) {
	n := f.n
	if len(x) != n || len(b) != n {
		panic("blas: LU Solve dimension mismatch")
	}
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

// SolveMatrix solves A*X = B column-block-wise where B is n-by-m,
// returning X as a new matrix. Used for the block-CG small systems.
func (f *LU) SolveMatrix(b *Dense) *Dense {
	x := NewDense(b.Rows, b.Cols)
	f.SolveMatrixInto(x, b)
	return x
}

// SolveMatrixInto is SolveMatrix writing into x, which must have B's
// shape, without allocating. It uses scratch owned by f, so unlike
// Solve it must not run concurrently on one factorization.
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

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
