// Package chebyshev computes Brownian forces f with covariance R, the
// action of a matrix square root on Gaussian noise z, in two ways.
//
// SqrtOp is the paper's (Fixman's method, Section II-C): f = S(R)*z,
// S a shifted Chebyshev polynomial approximation of sqrt on a bracket
// [lmin, lmax] of R's spectrum. S(R) is never formed: a degree-C
// polynomial costs C multiplications by R via the three-term Chebyshev
// recurrence, and on a block of noise vectors Z — the MRHS algorithm's
// step 2, F^B = S(R_0)*Z — every multiplication is a GSPMV, where
// Algorithm 2 harvests its first batch of savings. SeriesSqrt takes
// the bracket from the Gershgorin bound (upper) and the far-field
// diagonal floor (lower). Both are rigorous, so the bracket holds every
// eigenvalue; the approximation is not uniformly good on it. On SD
// matrices the bracket spans three to four decades, and the paper's
// order 30 errs by 22-58 % at its lower end, the slow modes (DESIGN §9,
// "The Brownian square root").
//
// PrecondInvSqrt is the default stepper's (Chow & Saad, SISC 2014): it
// samples through the precision matrix, y' = L*(L^{-1} R L^{-T})^{-1/2}*z
// with L the factor of the preconditioner the step's solves already
// use, and f = R*M^{-1}*y' = L*(L^{-1} R L^{-T})^{1/2}*z is a force of
// covariance R for any L, whose velocity M^{-1}*y' needs no solve. With
// L an incomplete Cholesky factor the operator under the root has a
// condition number of a few units, and one Lanczos recurrence reaches a
// stated tolerance on f in four to eight multiplies, each column of a
// block stopping by its own test.
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
	c := make([]float64, order+1)
	coefficients(c, make([]float64, order+1), f, a, b)
	return c
}

// coefficients is Coefficients into c, of length order+1, sampling f
// into fv, of the same length.
func coefficients(c, fv []float64, f func(float64) float64, a, b float64) {
	np := len(c)
	cos := cosTable(np)
	for k := 0; k < np; k++ {
		// Chebyshev node t_k in (-1, 1), mapped to [a, b].
		fv[k] = f(0.5*(b-a)*cos[np*np+k] + 0.5*(b+a))
	}
	for j := 0; j < np; j++ {
		var s float64
		for k, w := range cos[j*np : (j+1)*np] {
			s += fv[k] * w
		}
		c[j] = 2 * s / float64(np)
	}
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
	samples    []float64 // the function samples c comes from
}

// DefaultOrder is the paper's maximum Chebyshev polynomial order
// (Section V-A): 30 sparse matrix-vector products per Brownian force
// evaluation.
const DefaultOrder = 30

// NewSqrt builds the square-root operator for the SPD matrix a whose
// spectrum lies in [lmin, lmax]. order is the polynomial degree
// (DefaultOrder if <= 0).
func NewSqrt(a Op, lmin, lmax float64, order int) (*SqrtOp, error) {
	s := new(SqrtOp)
	if err := s.reset(a, lmin, lmax, order); err != nil {
		return nil, err
	}
	return s, nil
}

// reset makes s NewSqrt's operator for its arguments, in s's own
// storage, grown as needed.
func (s *SqrtOp) reset(a Op, lmin, lmax float64, order int) error {
	if !(lmin > 0) || !(lmax > lmin) || math.IsInf(lmax, 1) {
		return errors.New("chebyshev: need 0 < lmin < lmax < +Inf")
	}
	if order <= 0 {
		order = DefaultOrder
	}
	c := resize(s.c, order+1)
	s.samples = resize(s.samples, order+1)
	coefficients(c, s.samples, math.Sqrt, lmin, lmax)
	s.a, s.lmin, s.lmax, s.c = a, lmin, lmax, c
	return nil
}

// SeriesSqrt computes Y = S(A)*Z with NewSqrt's series over op, the
// spectrum bracketed from a, the matrix op multiplies by: its Gershgorin
// bounds, the lower raised to floor (SD's minimum far-field
// coefficient). A NaN or infinity in a is an error. The series'
// operator and coefficients live in ws (nil: a fresh workspace) with
// the recurrence's blocks, so a caller that evaluates every force on its
// own workspace allocates them once. Stats.Iterations is the series'
// order.
func SeriesSqrt(ws *Workspace, op Op, a *bcrs.Matrix, floor float64, order int, y, z *multivec.MultiVec) (Stats, error) {
	if ws == nil {
		ws = new(Workspace)
	}
	lo, hi, err := bracket(a, floor)
	if err == nil {
		err = ws.series.reset(op, lo, hi, order)
	}
	if err == nil {
		err = ws.series.ApplyBlock(ws, y, z)
	}
	ws.series.a = nil // the workspace must not pin the step's operator
	if err != nil {
		return Stats{}, err
	}
	return Stats{Iterations: ws.series.Order()}, nil
}

// bracket returns SeriesSqrt's spectrum bracket for a and floor.
func bracket(a *bcrs.Matrix, floor float64) (lo, hi float64, err error) {
	lo, hi = a.GershgorinInterval()
	if lo-lo != 0 || hi-hi != 0 {
		return 0, 0, errors.New("chebyshev: spectrum bracket not finite")
	}
	if lo > floor {
		floor = lo
	}
	if !(floor > 0) {
		return 0, 0, errors.New("chebyshev: spectrum floor must be positive")
	}
	if hi <= floor {
		hi = floor * (1 + 1e-6)
	}
	return floor, hi, nil
}

// Order returns the number of matrix multiplications one evaluation
// performs (the polynomial degree).
func (s *SqrtOp) Order() int { return len(s.c) - 1 }

// Workspace is the square roots' storage beyond their operands, grown on
// first use and kept, so a caller that evaluates every force on its own
// allocates it once. A zero Workspace is ready, and a nil one means a
// fresh one for the call. It serves one evaluation at a time.
type Workspace struct {
	work    work
	lanczos lanczos
	series  SqrtOp // SeriesSqrt's operator, its coefficients kept
}

// work is the series' storage: its three rotating blocks, inBracket's
// sums, and a split pass's operands with the row function bound once.
type work struct {
	prev, cur, next multivec.MultiVec
	zz, za          []float64 // inBracket's per-column sums

	pass              func(y, t, a, b []float64, alpha, beta, c float64)
	y, t, a, b        []float64
	alpha, beta, coef float64
	rowsFn            func(lo, hi int)
}

// ApplyBlock computes Y = S(A)*Z for a block of vectors using the
// three-term recurrence
//
//	T_0 = Z,  T_1 = As*Z,  T_{j+1} = 2*As*T_j - T_{j-1}
//
// with As the affine shift of A onto [-1, 1]. Each step is one GSPMV
// with Z.M vectors and one pass over the elements. Y and Z must not
// alias. The blocks are ws's (nil: a fresh workspace).
//
// The last multiply, A*T_{d-1}, gives each column's Rayleigh quotient
// t^T A t / t^T t of t = T_{d-1}, which no operator with its spectrum in
// the bracket puts below lmin: a quotient that is below it (past
// rounding) or not finite fails the evaluation with ErrNotSPD, and Y is
// then undefined. It is the last multiply's because T_j amplifies the
// component of an eigenvalue below lmin geometrically, where z's own
// quotient sees only a gross defect: a 60 × 60 matrix with one diagonal
// entry at -50 keeps z's quotient above its floor, and the second
// multiply's is already below it. A column too small for its squares
// not to underflow — a zero one — is not checked.
func (s *SqrtOp) ApplyBlock(ws *Workspace, y, z *multivec.MultiVec) error {
	if ws == nil {
		ws = new(Workspace)
	}
	return s.apply(&ws.work, y, z)
}

// rayleighSlack is how far, relative to lmax, a Rayleigh quotient may
// fall below lmin by rounding alone: the two dot products and the
// multiply each err by a few units in n*eps of |A|*|z|^2.
const rayleighSlack = 1e-10

func (s *SqrtOp) apply(w *work, y, z *multivec.MultiVec) error {
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
		return nil
	}

	// T_1 = As*Z = alpha*A*Z + beta*Z.
	s.a.Mul(tCur, z)
	last := len(s.c) - 1
	if last == 1 && !s.inBracket(w, z, tCur) {
		return ErrNotSPD
	}
	w.elementwise(firstTerm, y.Data, tCur.Data, z.Data, z.Data, alpha, beta, s.c[1])
	for j := 2; j < len(s.c); j++ {
		// T_{j} = 2*As*T_{j-1} - T_{j-2}.
		s.a.Mul(tNext, tCur)
		if j == last && !s.inBracket(w, tCur, tNext) {
			return ErrNotSPD
		}
		w.elementwise(multivec.ChebyshevStep, y.Data, tNext.Data, tCur.Data, tPrev.Data, alpha, beta, s.c[j])
		tPrev, tCur, tNext = tCur, tNext, tPrev
	}
	return nil
}

// inBracket reports whether every nonzero column of z has a finite
// Rayleigh quotient z^T (AZ) / z^T z no lower than lmin, az being A*Z:
// two column dot products, in one pass over the block.
func (s *SqrtOp) inBracket(w *work, z, az *multivec.MultiVec) bool {
	m := z.M
	w.zz, w.za = resize(w.zz, m), resize(w.za, m)
	zz, za := w.zz, w.za
	clear(zz)
	clear(za)
	for e := 0; e < len(z.Data); e += m {
		zr, ar := z.Data[e:e+m], az.Data[e:e+m]
		for j, v := range zr {
			zz[j] += v * v
			za[j] += v * ar[j]
		}
	}
	for j := range zz {
		if zz[j] < 0x1p-900 {
			continue // zero, or so small that the products underflowed
		}
		if q := za[j] / zz[j]; !(q >= s.lmin-rayleighSlack*s.lmax) || math.IsInf(q, 0) {
			return false
		}
	}
	return true
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

// elementwise runs one of the two passes over its arrays, split across
// the pool when the six streams it reads and writes pay for a split:
// chunks write disjoint ranges, so the bits are the same for any thread
// count. The pool runs w.rows, bound once, over the operands left in w,
// so no call allocates.
func (w *work) elementwise(pass func(y, t, a, b []float64, alpha, beta, c float64), y, t, a, b []float64, alpha, beta, c float64) {
	if w.rowsFn == nil {
		w.rowsFn = w.rows
	}
	w.pass, w.y, w.t, w.a, w.b, w.alpha, w.beta, w.coef = pass, y, t, a, b, alpha, beta, c
	parallel.Default().ForOp("chebyshev_recurrence", len(y), 48*len(y), w.rowsFn)
}

// rows runs the split pass on rows [lo, hi) of its operands.
func (w *work) rows(lo, hi int) {
	w.pass(w.y[lo:hi], w.t[lo:hi], w.a[lo:hi], w.b[lo:hi], w.alpha, w.beta, w.coef)
}
