package solver

import (
	"errors"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// Deflation implements the second technique the paper lists for
// sequences of slowly-varying systems (Section III): "recycle
// components of the Krylov subspace from one solve to the next"
// (after Parks et al.). A basis W spanning earlier solutions is kept;
// before CG starts, the solve is corrected by the Galerkin projection
//
//	x += W (W^T A W)^{-1} W^T (b - A x),
//
// which removes the components of the error lying in span(W) — the
// directions the previous solves already explored. Building the
// projector costs one GSPMV with k vectors (A*W) per matrix, another
// natural consumer of the multiple-vector kernel.
//
// A Deflation is immutable after construction except for its
// correction scratch, so it must not be shared by concurrent
// correctors; concurrent readers of K() are fine.
type Deflation struct {
	cols [][]float64 // orthonormal basis columns (unit 2-norm)
	lu   *blas.LU    // factorization of W^T A W

	r, y, c []float64 // correction scratch (single caller at a time)
}

// K returns the number of deflation vectors retained.
func (d *Deflation) K() int { return len(d.cols) }

// NewDeflation orthonormalizes the given basis vectors (modified
// Gram-Schmidt, dropping near-dependent columns), computes A*W with a
// single GSPMV, and factors the small Galerkin matrix. It returns an
// error if no independent directions survive.
//
// The drop tolerance is relative to the largest input column norm, so
// a uniformly tiny basis (converged velocities of a near-quiescent
// system) survives intact while genuinely dependent directions are
// dropped at any scale.
func NewDeflation(a BlockOperator, basis [][]float64) (*Deflation, error) {
	n := a.N()
	var maxNorm float64
	for _, v := range basis {
		if len(v) != n {
			return nil, errors.New("solver: deflation vector length mismatch")
		}
		if nrm := blas.Nrm2(v); nrm > maxNorm {
			maxNorm = nrm
		}
	}
	drop := 1e-12 * maxNorm
	var cols [][]float64
	for _, v := range basis {
		w := append([]float64(nil), v...)
		for _, u := range cols {
			blas.Axpy(-blas.Dot(u, w), u, w)
		}
		norm := blas.Nrm2(w)
		if norm <= drop {
			deflDropped.Inc()
			continue // dependent direction
		}
		blas.Scal(1/norm, w)
		cols = append(cols, w)
	}
	if len(cols) == 0 {
		return nil, errors.New("solver: no independent deflation vectors")
	}
	w := multivec.FromColumns(cols...)
	aw := multivec.New(n, w.M)
	a.Mul(aw, w)
	g := multivec.Gram(w, aw)
	lu, err := blas.LUFactor(g)
	if err != nil {
		return nil, errors.New("solver: singular Galerkin matrix")
	}
	deflBuilds.Inc()
	k := len(cols)
	return &Deflation{cols: cols, lu: lu,
		r: make([]float64, n), y: make([]float64, k), c: make([]float64, k)}, nil
}

// Correct applies the Galerkin correction to x in place, using one
// matrix-vector product to form the residual. The matrix passed may
// differ slightly from the one the deflation was built with (the
// slowly-varying sequence); the correction remains a sensible
// approximate projection.
func (d *Deflation) Correct(a Operator, x, b []float64) {
	a.MulVec(d.r, x)
	blas.Sub(d.r, b, d.r)
	d.apply(x, d.r)
}

// CorrectZero applies the Galerkin correction to a zero initial
// guess: with x = 0 the residual is b exactly, so no matrix-vector
// product is needed and the whole projector cost stays at basis-build
// time. The arithmetic is bitwise-identical to Correct called with a
// zero x (A*0 is exactly zero).
func (d *Deflation) CorrectZero(x, b []float64) {
	d.apply(x, b)
}

// apply accumulates x += W (W^T A W)^{-1} W^T r.
func (d *Deflation) apply(x, r []float64) {
	for j, col := range d.cols {
		d.y[j] = blas.Dot(col, r)
	}
	d.lu.Solve(d.c, d.y)
	for j, col := range d.cols {
		blas.Axpy(d.c[j], col, x)
	}
	deflCorrections.Inc()
}

// RecycledCG solves A*x = b by CG after the deflation correction.
// With d == nil it degenerates to plain CG.
func RecycledCG(a Operator, x, b []float64, d *Deflation, opt Options) Stats {
	var extra int
	if d != nil {
		d.Correct(a, x, b)
		extra = 1 // the residual product inside Correct
	}
	st := CG(a, x, b, opt)
	st.MatMuls += extra
	return st
}
