package blas

import (
	"fmt"
	"math"
)

// Dense is a small row-major dense matrix. It is used for reference
// computations in tests and for the m-by-m systems inside block CG.
type Dense struct {
	Rows, Cols int
	// Data holds the entries row-major: element (i,j) is
	// Data[i*Cols+j].
	Data []float64
}

// NewDense allocates a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("blas: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 {
	a.check(i, j)
	return a.Data[i*a.Cols+j]
}

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) {
	a.check(i, j)
	a.Data[i*a.Cols+j] = v
}

// Adds accumulates v into element (i, j).
func (a *Dense) Add(i, j int, v float64) {
	a.check(i, j)
	a.Data[i*a.Cols+j] += v
}

func (a *Dense) check(i, j int) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("blas: index (%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
}

// Row returns a slice aliasing row i.
func (a *Dense) Row(i int) []float64 {
	if i < 0 || i >= a.Rows {
		panic("blas: row out of range")
	}
	return a.Data[i*a.Cols : (i+1)*a.Cols]
}

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.Rows, a.Cols)
	copy(b.Data, a.Data)
	return b
}

// MatVec computes y = A*x. len(x) must equal a.Cols and len(y) must
// equal a.Rows; y must not alias x.
func (a *Dense) MatVec(y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("blas: MatVec dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Mul computes C = A*B and returns C as a new matrix.
func (a *Dense) Mul(b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("blas: Mul dimension mismatch")
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns A^T as a new matrix.
func (a *Dense) Transpose() *Dense {
	t := NewDense(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Data[j*t.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return t
}

// IsSymmetric reports whether A is square and symmetric to within tol
// on each entry pair.
func (a *Dense) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := i + 1; j < a.Cols; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry of A (zero for an empty
// matrix).
func (a *Dense) MaxAbs() float64 {
	var m float64
	for _, v := range a.Data {
		if x := math.Abs(v); x > m {
			m = x
		}
	}
	return m
}
