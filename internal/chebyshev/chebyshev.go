// Package chebyshev computes Brownian forces f with covariance R, the
// action of a matrix square root on Gaussian noise z, in two ways.
//
// SqrtOp is the paper's (Fixman's method, Section II-C): f = S(R)*z,
// S a shifted Chebyshev polynomial approximation of sqrt on a bracket
// [lmin, lmax] of R's spectrum. S(R) is never formed: a degree-C
// polynomial costs C multiplications by R via the three-term Chebyshev
// recurrence, and on a block of noise vectors Z — the MRHS algorithm's
// step 2, F^B = S(R_0)*Z — every multiplication is a GSPMV, where
// Algorithm 2 harvests its first batch of savings. NewSqrtAuto takes
// the bracket from the Gershgorin bound (upper) and the far-field
// diagonal floor (lower). Both are rigorous, so the bracket holds every
// eigenvalue; the approximation is not uniformly good on it. On SD
// matrices the bracket spans three to four decades, and the paper's
// order 30 errs by 22-58 % at its lower end, the slow modes (DESIGN §9,
// "The Brownian square root").
//
// PrecondSqrt is the default stepper's (Chow & Saad, SISC 2014): f =
// L*sqrt(L^{-1} R L^{-T})*z with L the factor of the preconditioner
// the step's solves already use, covariance R for any L. With L an
// incomplete Cholesky factor the operator under the root has a
// condition number of a few units, and a Lanczos recurrence reaches a
// stated tolerance in four to seven multiplies, each column of a block
// stopping by its own test.
package chebyshev

import (
	"errors"
	"math"
	"sync"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// Coefficients returns the first order+1 Chebyshev series
// coefficients of f on [a, b], computed with the standard
// Chebyshev-Gauss quadrature: interpolation at the order+1 Chebyshev
// nodes. The series is
//
//	f(x) ~ c[0]/2 + sum_{j>=1} c[j] T_j(t),  t = (2x-(b+a))/(b-a).
func Coefficients(f func(float64) float64, a, b float64, order int) []float64 {
	if order < 0 {
		panic("chebyshev: negative order")
	}
	np := order + 1
	cos := cosTable(np)
	fv := make([]float64, np)
	for k := 0; k < np; k++ {
		// Chebyshev node t_k in (-1, 1), mapped to [a, b].
		fv[k] = f(0.5*(b-a)*cos[np*np+k] + 0.5*(b+a))
	}
	c := make([]float64, np)
	for j := 0; j < np; j++ {
		var s float64
		for k, w := range cos[j*np : (j+1)*np] {
			s += fv[k] * w
		}
		c[j] = 2 * s / float64(np)
	}
	return c
}

// cosTables holds, per np = order+1 ever asked for, what Coefficients
// needs of the order alone — np rows of weights cos(pi*j*(k+1/2)/np),
// then the np nodes — since a stepper asks at one order, every step.
var cosTables sync.Map

func cosTable(np int) []float64 {
	if t, ok := cosTables.Load(np); ok {
		return t.([]float64)
	}
	t := make([]float64, np*np+np)
	for k := 0; k < np; k++ {
		t[np*np+k] = math.Cos(math.Pi * (float64(k) + 0.5) / float64(np))
		for j := 0; j < np; j++ {
			t[j*np+k] = math.Cos(math.Pi * float64(j) * (float64(k) + 0.5) / float64(np))
		}
	}
	cosTables.Store(np, t)
	return t
}

// Eval evaluates the truncated series at x via the Clenshaw
// recurrence (a scalar reference used by tests and for picking
// truncation orders).
func Eval(c []float64, a, b, x float64) float64 {
	t := (2*x - (b + a)) / (b - a)
	var d, dd float64
	for j := len(c) - 1; j >= 1; j-- {
		d, dd = 2*t*d-dd+c[j], d
	}
	return t*d - dd + c[0]/2
}

// Op is the operator contract of the Chebyshev recurrence: one block
// multiply per polynomial degree. *bcrs.Matrix satisfies it, and so
// does the distributed cluster operator, which is how Brownian forces
// are evaluated across simulated nodes.
type Op interface {
	// N returns the scalar dimension.
	N() int
	// Mul computes Y = A*X for a row-major block of vectors.
	Mul(y, x *multivec.MultiVec)
}

// SqrtOp applies an approximate matrix square root of a symmetric
// positive definite operator.
type SqrtOp struct {
	a          Op
	lmin, lmax float64
	c          []float64
}

// DefaultOrder is the paper's maximum Chebyshev polynomial order
// (Section V-A): 30 sparse matrix-vector products per Brownian force
// evaluation.
const DefaultOrder = 30

// NewSqrt builds the square-root operator for the SPD matrix a whose
// spectrum lies in [lmin, lmax]. order is the polynomial degree
// (DefaultOrder if <= 0). If tol > 0, the series is truncated at the
// first tail whose coefficients all fall below tol*|c0| — the
// adaptive-order optimization.
func NewSqrt(a Op, lmin, lmax float64, order int, tol float64) (*SqrtOp, error) {
	if !(lmin > 0) || !(lmax > lmin) || math.IsInf(lmax, 1) {
		return nil, errors.New("chebyshev: need 0 < lmin < lmax < +Inf")
	}
	if order <= 0 {
		order = DefaultOrder
	}
	c := Coefficients(math.Sqrt, lmin, lmax, order)
	if tol > 0 {
		thresh := tol * math.Abs(c[0])
		cut := len(c)
		for cut > 1 && math.Abs(c[cut-1]) < thresh {
			cut--
		}
		c = c[:cut]
	}
	return &SqrtOp{a: a, lmin: lmin, lmax: lmax, c: c}, nil
}

// NewSqrtAuto is NewSqrt over op with the spectrum bracketed from a, the
// matrix op multiplies by: its Gershgorin bounds, the lower raised to floor
// (SD's minimum far-field coefficient). A NaN or infinity in a is an error.
func NewSqrtAuto(op Op, a *bcrs.Matrix, floor float64, order int, tol float64) (*SqrtOp, error) {
	lo, hi := a.GershgorinInterval()
	if lo-lo != 0 || hi-hi != 0 {
		return nil, errors.New("chebyshev: spectrum bracket not finite")
	}
	if lo > floor {
		floor = lo
	}
	if !(floor > 0) {
		return nil, errors.New("chebyshev: spectrum floor must be positive")
	}
	if hi <= floor {
		hi = floor * (1 + 1e-6)
	}
	return NewSqrt(op, floor, hi, order, tol)
}

// Order returns the number of matrix multiplications one Apply
// performs (the truncated polynomial degree).
func (s *SqrtOp) Order() int { return len(s.c) - 1 }

// Interval returns the spectral bracket the approximation was built
// on.
func (s *SqrtOp) Interval() (lmin, lmax float64) { return s.lmin, s.lmax }

// work is what one evaluation needs beyond its operands — the headers
// Apply wraps its vectors in, the three blocks the recurrence rotates
// through — pooled because a stepper builds a SqrtOp per matrix.
type work struct{ y, z, prev, cur, next multivec.MultiVec }

var workPool = sync.Pool{New: func() any { return new(work) }}

// ApplyBlock computes Y = S(A)*Z for a block of vectors using the
// three-term recurrence
//
//	T_0 = Z,  T_1 = As*Z,  T_{j+1} = 2*As*T_j - T_{j-1}
//
// with As the affine shift of A onto [-1, 1]. Each step is one GSPMV
// with Z.M vectors and one pass over the elements. Y and Z must not
// alias.
func (s *SqrtOp) ApplyBlock(y, z *multivec.MultiVec) {
	w := workPool.Get().(*work)
	s.apply(w, y, z)
	workPool.Put(w)
}

// Apply computes y = S(A)*z for a single vector (an SPMV per
// polynomial degree).
func (s *SqrtOp) Apply(y, z []float64) {
	w := workPool.Get().(*work)
	w.y, w.z = *multivec.FromVector(y), *multivec.FromVector(z)
	s.apply(w, &w.y, &w.z)
	w.y.Data, w.z.Data = nil, nil
	workPool.Put(w)
}

func (s *SqrtOp) apply(w *work, y, z *multivec.MultiVec) {
	n := s.a.N()
	if z.N != n || y.N != n || z.M != y.M {
		panic("chebyshev: ApplyBlock dimension mismatch")
	}
	alpha := 2 / (s.lmax - s.lmin)                 // scale of the affine map
	beta := -(s.lmax + s.lmin) / (s.lmax - s.lmin) // shift of the affine map

	tPrev, tCur, tNext := &w.prev, &w.cur, &w.next
	for _, t := range []*multivec.MultiVec{tPrev, tCur, tNext} {
		t.Reshape(n, z.M)
	}
	// T_0 = Z and Y = c0/2 * T_0.
	tPrev.CopyFrom(z)
	y.CopyFrom(z)
	blas.Scal(s.c[0]/2, y.Data)
	if len(s.c) == 1 {
		return
	}

	// T_1 = As*Z = alpha*A*Z + beta*Z.
	s.a.Mul(tCur, z)
	elementwise(firstTerm, y.Data, tCur.Data, z.Data, z.Data, alpha, beta, s.c[1])
	for j := 2; j < len(s.c); j++ {
		// T_{j} = 2*As*T_{j-1} - T_{j-2}.
		s.a.Mul(tNext, tCur)
		elementwise(multivec.ChebyshevStep, y.Data, tNext.Data, tCur.Data, tPrev.Data, alpha, beta, s.c[j])
		tPrev, tCur, tNext = tCur, tNext, tPrev
	}
}

// firstTerm has ChebyshevStep's shape for the degree that has no
// predecessor: t = alpha*t + beta*z, then y += c*t.
func firstTerm(y, t, z, _ []float64, alpha, beta, c float64) {
	for i, ti := range t {
		v := alpha*ti + beta*z[i]
		t[i] = v
		y[i] += c * v
	}
}

// elemGrain matches the multivec streaming grain: below ~8k scalars a
// parallel dispatch costs more than the loop.
const elemGrain = 8192

// elementwise runs one of the two passes over its arrays, split across
// the pool when they are long enough: chunks write disjoint ranges, so
// the bits are the same for any thread count. The serial call comes
// first because the closure ForOp takes is a heap allocation.
func elementwise(pass func(y, t, a, b []float64, alpha, beta, c float64), y, t, a, b []float64, alpha, beta, c float64) {
	pool := parallel.Default()
	if !pool.Parallel(len(y), elemGrain) {
		pass(y, t, a, b, alpha, beta, c)
		return
	}
	pool.ForOp("chebyshev_recurrence", len(y), elemGrain, func(lo, hi int) {
		pass(y[lo:hi], t[lo:hi], a[lo:hi], b[lo:hi], alpha, beta, c)
	})
}
