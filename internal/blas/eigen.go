package blas

import (
	"errors"
	"math"
)

// EigenSym computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi method. It returns the eigenvalues in
// ascending order and a matrix whose columns are the corresponding
// orthonormal eigenvectors (A = V * diag(w) * V^T).
//
// Jacobi is O(n^3) per sweep and only suitable for the small matrices
// it is used on here: test oracles for the Chebyshev matrix square
// root and spectrum checks of small resistance matrices.
func EigenSym(a *Dense) (w []float64, v *Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("blas: EigenSym requires a square matrix")
	}
	n := a.Rows
	w, v = make([]float64, n), NewDense(n, n)
	if err := EigenSymInto(w, v, a.Clone()); err != nil {
		return nil, nil, err
	}
	return w, v, nil
}

// EigenSymInto is EigenSym in storage the caller owns, for a caller
// that decomposes a small matrix every iteration: the eigenvalues go to
// w, the eigenvectors to the columns of v (n-by-n, overwritten), and m
// is rotated into diagonal form in place.
func EigenSymInto(w []float64, v, m *Dense) error {
	if m.Rows != m.Cols || v.Rows != m.Rows || v.Cols != m.Rows || len(w) != m.Rows {
		return errors.New("blas: EigenSymInto requires a square matrix and matching outputs")
	}
	if !m.IsSymmetric(1e-10 * (1 + m.MaxAbs())) {
		return errors.New("blas: EigenSym requires a symmetric matrix")
	}
	n, md := m.Rows, m.Data
	clear(v.Data)
	for i := 0; i < n; i++ {
		v.Data[i*n+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm; converged when negligible.
		var off float64
		for i := 0; i < n; i++ {
			for _, x := range md[i*n+i+1 : i*n+n] {
				off += x * x
			}
		}
		if math.Sqrt(2*off) <= 1e-14*(1+m.MaxAbs())*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := md[p*n+q]
				if apq == 0 {
					continue
				}
				app, aqq := md[p*n+p], md[q*n+q]
				// Rotation angle via the stable formula.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(m, v, p, q, c, s)
			}
		}
	}
	for i := 0; i < n; i++ {
		w[i] = md[i*n+i]
	}
	sortEigen(w, v)
	return nil
}

// applyJacobiRotation applies the rotation G(p,q,theta) as
// M <- G^T M G and accumulates V <- V G.
func applyJacobiRotation(m, v *Dense, p, q int, c, s float64) {
	n, md, vd := m.Rows, m.Data, v.Data
	for k := 0; k < n; k++ {
		mkp, mkq := md[k*n+p], md[k*n+q]
		md[k*n+p] = c*mkp - s*mkq
		md[k*n+q] = s*mkp + c*mkq
	}
	rp, rq := md[p*n:p*n+n], md[q*n:q*n+n]
	for k, mpk := range rp {
		mqk := rq[k]
		rp[k] = c*mpk - s*mqk
		rq[k] = s*mpk + c*mqk
	}
	for k := 0; k < n; k++ {
		vkp, vkq := vd[k*n+p], vd[k*n+q]
		vd[k*n+p] = c*vkp - s*vkq
		vd[k*n+q] = s*vkp + c*vkq
	}
}

// sortEigen sorts eigenpairs ascending by eigenvalue, permuting the
// eigenvector columns to match.
func sortEigen(w []float64, v *Dense) {
	n := len(w)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && w[j] < w[j-1]; j-- {
			w[j], w[j-1] = w[j-1], w[j]
			for k := 0; k < v.Rows; k++ {
				a, b := v.At(k, j), v.At(k, j-1)
				v.Set(k, j, b)
				v.Set(k, j-1, a)
			}
		}
	}
}

// SymSqrtApply computes y = sqrtm(A)*z for a symmetric positive
// semidefinite matrix A via full eigendecomposition. It is the exact
// (dense) reference against which the Chebyshev polynomial
// approximation of Section II-C is validated. Tiny negative
// eigenvalues from roundoff are clamped to zero.
func SymSqrtApply(a *Dense, z []float64) ([]float64, error) {
	w, v, err := EigenSym(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	if len(z) != n {
		return nil, errors.New("blas: SymSqrtApply dimension mismatch")
	}
	// y = V * sqrt(diag(w)) * V^T * z
	t := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += v.At(i, j) * z[i]
		}
		if w[j] < 0 {
			if w[j] < -1e-8*(1+math.Abs(w[n-1])) {
				return nil, errors.New("blas: SymSqrtApply requires PSD matrix")
			}
			w[j] = 0
		}
		t[j] = math.Sqrt(w[j]) * s
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += v.At(i, j) * t[j]
		}
		y[i] = s
	}
	return y, nil
}

// ExtremeEigSym returns the smallest and largest eigenvalues of a
// symmetric matrix, via the full Jacobi decomposition. For small test
// matrices only.
func ExtremeEigSym(a *Dense) (min, max float64, err error) {
	w, _, err := EigenSym(a)
	if err != nil {
		return 0, 0, err
	}
	return w[0], w[len(w)-1], nil
}
