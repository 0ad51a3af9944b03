package chebyshev

import (
	"errors"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// Factor is a preconditioner that is the product M = L*L^T of a factor
// the square root can also multiply by: ApplyBlock computes M^{-1}
// times a block (m = 1 is a vector), MulL computes L times a block.
// *solver.IC0 satisfies it.
type Factor interface {
	ApplyBlock(z, r *multivec.MultiVec)
	MulL(y, x *multivec.MultiVec)
}

// DefaultTol is PrecondInvSqrt's stopping tolerance when none is given:
// the largest relative error a Brownian force may carry.
const DefaultTol = 1e-3

// ErrNotSPD is returned by PrecondInvSqrt when the operator, seen
// through the factor, is not symmetric positive definite — a Rayleigh
// quotient or an eigenvalue of the Lanczos matrix that is not positive,
// a negative M^{-1}-norm — or when any scalar of the recurrence is not
// a finite number.
var ErrNotSPD = errors.New("chebyshev: operator not positive definite or not finite")

// Stats describes one square-root evaluation.
type Stats struct {
	// Iterations is the number of multiplies by the operator: the order
	// of the series, or the Lanczos steps of the slowest column.
	Iterations int
	// Unconverged counts the columns whose Lanczos recurrence reached
	// the iteration cap before the tolerance.
	Unconverged int
}

// PrecondInvSqrt computes, column by column, Y = L*X^{-1/2}*Z with
// X = L^{-1} A L^{-T}, M = L*L^T the factor's preconditioner and A the
// SPD operator a multiplies by, and stops when the Brownian force Y
// samples is accurate. It samples through the precision matrix (Chow &
// Saad, "Preconditioned Krylov subspace methods for sampling
// multivariate Gaussian distributions", SISC 2014): the force is
// F = A*M^{-1}*Y = L*X^{1/2}*Z, and Cov(F) = L*X*L^T = A for any
// invertible L, so a column of F is a Brownian force of covariance A;
// with L an incomplete Cholesky factor of A, X has a condition number
// of a few units instead of A's thousands. U = M^{-1}*Y solves A*U = F
// to rounding, so the velocity of that force costs one ApplyBlock and,
// for F, one multiply, where a solve would cost a Krylov run.
//
// The root is evaluated by the Lanczos process on X, carried in the
// variables q = L*v, where X's inner product is the M^{-1}-inner
// product: q_1 = L*z/|z|, s_j = M^{-1} q_j, u = A*s_j,
// alpha_j = s_j^T u, u -= alpha_j q_j + beta_{j-1} q_{j-1},
// beta_j = sqrt(u^T M^{-1} u), q_{j+1} = u/beta_j. After k steps the
// column is |z|*Q_k*T_k^{-1/2}*e_1, T_k the tridiagonal matrix of the
// alphas and betas, from an eigendecomposition of T_k.
//
// The stop bounds the error of the force, not of Y. By the Lanczos
// relation A*M^{-1}*Q_k*c = Q_k*T_k*c + beta_k*c_k*q_{k+1} with
// c = T_k^{-1/2}*e_1*|z|, the force of step k is the root iterate
// Q_k*T_k^{1/2}*e_1*|z| plus a tail beta_k*c_k*q_{k+1}, which is c_k
// times the next unnormalised basis vector. A column's root iterate is
// checked first, and its check passes, once, at the first k >= 2 at
// which it moved by at most tol relative to its length in the 2-norm
// (tol <= 0 means DefaultTol). The move is read in coefficient space
// first, where it is free but measures the M^{-1}-norm — on SD matrices
// 1.5 to 10 times smaller than the 2-norm move, so it cannot pass a
// column by itself — and only a column that passes there pays for the
// 2-norm over the basis. From then on the column stops at the first
// step whose tail has a 2-norm — one dot product over the updated basis
// vector — of at most tol relative to the root iterate's. The force is
// then within the root's error plus tol; against dense oracles it stays
// within tol (DESIGN §9, "The direct velocity"). A column that reaches
// maxIter steps first stops there, counted in Stats.Unconverged.
//
// The m columns run in lockstep: each step is one width-m multiply by
// a (the GSPMV), one ApplyBlock and column dot products, and every
// column's bits are those of the same call on that column alone: the
// dot products (multivec.ColDots) and the squared 2-norms behind the
// root's and the tail's checks (combine's, tails') all sum in
// multivec's one lane-reduction order — eight partials per row chunk,
// combined by one fixed tree — at every m.
// Y and Z must not alias. The storage is ws's (nil: a fresh one).
func PrecondInvSqrt(ws *Workspace, a Op, f Factor, y, z *multivec.MultiVec, maxIter int, tol float64) (Stats, error) {
	n, m := a.N(), z.M
	if z.N != n || y.N != n || y.M != m {
		panic("chebyshev: PrecondInvSqrt dimension mismatch")
	}
	if maxIter <= 0 {
		maxIter = DefaultOrder
	}
	if !(tol > 0) {
		tol = DefaultTol
	}
	if ws == nil {
		ws = new(Workspace)
	}
	w := &ws.lanczos
	w.reset(n, m)

	// The basis is kept unnormalised, p_t = gamma_t * q_t with gamma_t
	// its M^{-1}-norm, so no pass rescales a block; r = M^{-1} p_i.
	p0 := w.basis(0)
	f.MulL(p0, z)
	f.ApplyBlock(&w.r, p0)
	var st Stats
	for i := 0; ; i++ {
		// p_{i+1} starts as A r_i = gamma_i * u. Two lane passes then give
		// gamma_i^2 = p_i^T r_i (|z|^2 at i = 0, beta_{i-1}^2 after) and
		// gamma_i^2 alpha_i = r_i^T A r_i.
		next := w.basis(i + 1)
		a.Mul(next, &w.r)
		st.Iterations++
		multivec.ColDots(w.pr, &w.p[i], &w.r)
		multivec.ColDots(w.rw, &w.r, next)
		w.check = w.check[:0]
		for j := range w.cols {
			c := &w.cols[j]
			if c.done {
				continue
			}
			bb, g := w.pr[j], math.Sqrt(w.pr[j])
			if !(bb >= 0) || math.IsInf(bb, 0) {
				return Stats{}, ErrNotSPD
			}
			if g <= invariantTol*c.scale {
				// z = 0 at the first step, an invariant subspace after: the
				// column is exact as it stands.
				c.done = true
				continue
			}
			if i > 0 {
				c.beta = append(c.beta, g)
			}
			c.gamma = append(c.gamma, g)
			al := w.rw[j] / bb
			if !(al > 0) || math.IsInf(al, 0) {
				return Stats{}, ErrNotSPD
			}
			c.alpha = append(c.alpha, al)
			moved, ok := w.coefficients(c)
			if !ok {
				return Stats{}, ErrNotSPD
			}
			if i > 0 && moved <= tol && !c.rootOK {
				w.check = append(w.check, j)
			}
		}
		if err := w.combine(y, w.check); err != nil {
			return Stats{}, err
		}
		for _, j := range w.check {
			// A passing column still owes its tail, which the update below
			// makes; its root is not checked again.
			w.cols[j].rootOK = w.cols[j].moved <= tol
		}
		active := 0
		for j := range w.cols {
			c := &w.cols[j]
			if !c.done && !c.rootOK && i+1 == maxIter {
				c.done = true
				st.Unconverged++
			}
			w.alpha[j], w.g[j], w.h[j] = 0, 0, 0
			if !c.done {
				active++
				w.alpha[j], w.g[j] = c.alpha[i], 1/c.gamma[i]
				if i > 0 {
					w.h[j] = c.beta[i-1] / c.gamma[i-1]
				}
			}
		}
		if active == 0 {
			break
		}
		// p_{i+1} = (A r_i - alpha_i p_i)/gamma_i - (beta_{i-1}/gamma_{i-1}) p_{i-1}:
		// the residual u - alpha_i q_i - beta_{i-1} q_{i-1} itself, so its
		// M^{-1}-norm is beta_i.
		prev := &w.p[max(i-1, 0)] // h is 0 at i = 0
		multivec.ColThreeTerm(next, &w.p[i], prev, w.alpha, w.g, w.h)
		stopped, err := w.tails(next, tol, i+1 == maxIter, &st)
		if err != nil {
			return Stats{}, err
		}
		if active -= stopped; active == 0 {
			break
		}
		f.ApplyBlock(&w.r, next)
	}
	// Every column is written once, from its inverse-root coefficients:
	// what the checks wrote was the root's iterate.
	w.check = w.check[:0]
	for j := range w.cols {
		c := &w.cols[j]
		c.coef, c.inv, c.prev = c.inv, c.coef, c.prev[:0]
		w.check = append(w.check, j)
	}
	if err := w.combine(y, w.check); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// tails settles the columns whose root iterate has passed its check: u
// holds each one's next unnormalised basis vector, so its force's tail
// is the last inverse-root coefficient times u's column. A column stops
// when the tail's 2-norm is at most tol relative to the root iterate's,
// or unconverged at the cap; tails returns how many stopped. The
// 2-norms are one lane pass over u, taken only in a step with such a
// column.
func (w *lanczos) tails(u *multivec.MultiVec, tol float64, capped bool, st *Stats) (int, error) {
	settling := false
	for j := range w.cols {
		settling = settling || (!w.cols[j].done && w.cols[j].rootOK)
	}
	if !settling {
		return 0, nil
	}
	multivec.ColDots(w.uu, u, u)
	stopped := 0
	for j := range w.cols {
		c := &w.cols[j]
		if c.done || !c.rootOK {
			continue
		}
		tail := math.Abs(c.inv[len(c.inv)-1]) * math.Sqrt(w.uu[j])
		if !(tail < math.Inf(1)) {
			return 0, ErrNotSPD
		}
		pass := tail <= tol*c.norm
		if pass || capped {
			if !pass {
				st.Unconverged++
			}
			c.done = true
			stopped++
		}
	}
	return stopped, nil
}

// invariantTol is the beta, relative to the largest alpha, below which
// the Krylov space is taken to be invariant: the next basis vector
// would be rounding error divided by a rounding-sized norm.
const invariantTol = 1e-13

// column is one column's recurrence: the tridiagonal matrix so far, the
// norms of its basis vectors, and its coefficient vectors.
type column struct {
	scale       float64   // the largest alpha
	alpha, beta []float64 // T_k's diagonal and off-diagonal
	gamma       []float64 // |p_t|_{M^{-1}}: |z|, then beta_0, beta_1, ...
	coef, prev  []float64 // |z|*sqrt(T_k)*e_1 at this step and the last
	inv         []float64 // |z|*T_k^{-1/2}*e_1
	moved       float64   // the 2-norm move of the last checked step
	norm        float64   // the 2-norm of the last checked iterate
	done        bool
	rootOK      bool // the root's check passed
}

// lanczos is the Lanczos recurrence's storage: the basis blocks, M^{-1}
// of the newest, the per-column scalars and the eigenproblems' scratch.
type lanczos struct {
	p              []multivec.MultiVec // p_0, p_1, ...: the basis, unnormalised
	r              multivec.MultiVec   // M^{-1} p_i
	pr, rw, uu     []float64           // per column: p_i^T r_i, r_i^T A r_i; the tails' |u|^2
	alpha          []float64           // per column: alpha_i
	g, h           []float64           // per column: the update's 1/gamma_i, beta_{i-1}/gamma_{i-1}
	cols           []column
	check          []int       // columns the next combine writes
	listed         []bool      // combine's columns, by index
	sums           []float64   // combine's per-column |y|^2 and |move|^2
	cy, cd         []float64   // combine's scaled coefficients, t*m+j
	sy, sd         []float64   // one column's of them
	ps             [][]float64 // combine's view of the basis
	t, v           blas.Dense  // T_k scaled, its eigenvectors
	ev, tBuf, vBuf []float64   // T_k's eigenvalues; t's and v's storage
}

func (w *lanczos) reset(n, m int) {
	w.r.Reshape(n, m)
	w.pr, w.rw, w.uu = resize(w.pr, m), resize(w.rw, m), resize(w.uu, m)
	w.alpha, w.g, w.h = resize(w.alpha, m), resize(w.g, m), resize(w.h, m)
	w.cols = resize(w.cols, m)
	for j := range w.cols {
		c := &w.cols[j]
		c.scale, c.moved, c.norm, c.done, c.rootOK = 0, 0, 0, false, false
		c.alpha, c.beta, c.gamma = c.alpha[:0], c.beta[:0], c.gamma[:0]
		c.coef, c.prev, c.inv = c.coef[:0], c.prev[:0], c.inv[:0]
	}
	w.p = w.p[:0]
}

// resize returns s at length n, contents unspecified, reallocated if short.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// basis returns p_i, shaped like r, growing the basis by one block.
func (w *lanczos) basis(i int) *multivec.MultiVec {
	if i == len(w.p) {
		if i < cap(w.p) {
			w.p = w.p[:i+1]
		} else {
			w.p = append(w.p, multivec.MultiVec{})
		}
	}
	w.p[i].Reshape(w.r.N, w.r.M)
	return &w.p[i]
}

// coefficients sets c.coef to |z|*sqrt(T_k)*e_1 for the k steps c has
// taken, and c.inv to |z|*T_k^{-1/2}*e_1 from the same eigenpairs, and
// returns how far c.coef moved from the last step's, relative to its
// length: the M^{-1}-norm move of the column, since the basis is
// M^{-1}-orthonormal. ok is false when T_k has an eigenvalue
// that is not a finite positive number. T_k is decomposed scaled by its
// largest alpha, so the Jacobi sweep's absolute stopping test sees
// entries of order one.
func (w *lanczos) coefficients(c *column) (moved float64, ok bool) {
	k := len(c.alpha)
	c.scale = max(c.scale, c.alpha[k-1])
	w.tBuf, w.vBuf, w.ev = resize(w.tBuf, k*k), resize(w.vBuf, k*k), resize(w.ev, k)
	w.t = blas.Dense{Rows: k, Cols: k, Data: w.tBuf}
	w.v = blas.Dense{Rows: k, Cols: k, Data: w.vBuf}
	clear(w.tBuf)
	for i, al := range c.alpha {
		w.tBuf[i*k+i] = al / c.scale
		if i+1 < k {
			b := c.beta[i] / c.scale
			w.tBuf[i*k+i+1], w.tBuf[(i+1)*k+i] = b, b
		}
	}
	if blas.EigenSymInto(w.ev, &w.v, &w.t) != nil {
		return 0, false
	}
	for _, l := range w.ev {
		if !(l > 0) || math.IsInf(l, 0) {
			return 0, false
		}
	}
	c.prev = append(c.prev[:0], c.coef...)
	c.coef = resize(c.coef, k)
	g := c.gamma[0] * math.Sqrt(c.scale)
	var norm, diff float64
	for r := range c.coef {
		var s float64
		for t, l := range w.ev {
			s += w.vBuf[r*k+t] * math.Sqrt(l) * w.vBuf[t]
		}
		s *= g
		c.coef[r] = s
		d := s
		if r < len(c.prev) {
			d -= c.prev[r]
		}
		norm += s * s
		diff += d * d
	}
	if !(norm < math.Inf(1)) {
		return 0, false
	}
	c.inv = resize(c.inv, k)
	gi := c.gamma[0] / math.Sqrt(c.scale)
	for r := range c.inv {
		var s float64
		for t, l := range w.ev {
			s += w.vBuf[r*k+t] / math.Sqrt(l) * w.vBuf[t]
		}
		c.inv[r] = s * gi
	}
	return math.Sqrt(diff / norm), true
}

// combine writes, for each column j listed, column j of y as
// sum_t coef_j[t]/gamma_j[t] * p_t — the column's result at its current
// step — and sets its moved to the 2-norm of the step's change,
// sum_t (coef_j[t] - prev_j[t])/gamma_j[t] * p_t, relative to |y_j|.
// Each row's sum over the basis runs in increasing t; the squared
// norms over the rows are multivec's lane reductions in its order
// (reduceRows, phases, laneSum), so a column has the bits it would have
// alone.
func (w *lanczos) combine(y *multivec.MultiVec, cols []int) error {
	if len(cols) == 0 {
		return nil
	}
	n, m, kmax := y.N, y.M, 0
	for _, j := range cols {
		kmax = max(kmax, len(w.cols[j].coef))
	}
	// sums holds chunk c's partials: partial p of column j's |y|^2 at
	// (2c*phases+p)*m+j, of its |move|^2 at ((2c+1)*phases+p)*m+j.
	chunks := max(1, n/reduceRows)
	w.sums = resize(w.sums, 2*chunks*phases*m)
	w.cy, w.cd = resize(w.cy, kmax*m), resize(w.cd, kmax*m)
	clear(w.sums)
	clear(w.cy)
	clear(w.cd)
	w.listed = resize(w.listed, m)
	clear(w.listed)
	// The basis is unnormalised, so the coefficients are divided by its
	// norms instead: cy[t*m+j] for the result, cd[t*m+j] for the change,
	// zero past a column's steps and in columns not listed. A zero term
	// changes no sum: a sum that starts at +0 is never -0.
	for _, j := range cols {
		c := &w.cols[j]
		w.listed[j] = true
		for t, ct := range c.coef {
			d := ct
			if t < len(c.prev) {
				d -= c.prev[t]
			}
			w.cy[t*m+j], w.cd[t*m+j] = ct/c.gamma[t], d/c.gamma[t]
		}
	}
	w.ps = w.ps[:0]
	for t := range w.p[:kmax] {
		w.ps = append(w.ps, w.p[t].Data)
	}
	g4 := m &^ 3
	for c := range chunks {
		lo, hi := n*c/chunks, n*(c+1)/chunks
		ys, ds := w.sums[2*c*phases*m:], w.sums[(2*c+1)*phases*m:]
		if g4 > 0 {
			w.combineFours(y, ys, ds, g4, lo, hi)
		}
		for _, j := range cols {
			if j >= g4 {
				w.combineColumn(y, ys[j:], ds[j:], j, lo, hi)
			}
		}
	}
	for _, j := range cols {
		c := &w.cols[j]
		var yy, dd float64
		for ch := range chunks {
			yy += laneSum(w.sums[2*ch*phases*m:], m, j)
			dd += laneSum(w.sums[(2*ch+1)*phases*m:], m, j)
		}
		if !(yy < math.Inf(1)) || !(dd < math.Inf(1)) {
			return ErrNotSPD
		}
		c.moved, c.norm = 0, math.Sqrt(yy)
		if yy > 0 {
			c.moved = math.Sqrt(dd / yy)
		}
	}
	return nil
}

// combineFours is combine's first g4 columns on rows [lo, hi): four
// columns at a time, their sums in registers, in one sweep over the
// rows; row lo+i adds its squares into partial i%phases of ys and ds.
func (w *lanczos) combineFours(y *multivec.MultiVec, ys, ds []float64, g4, lo, hi int) {
	m := y.M
	for i := lo; i < hi; i++ {
		ph := (i - lo) % phases * m
		for j := 0; j < g4; j += 4 {
			lj := w.listed[j : j+4 : j+4]
			if !(lj[0] || lj[1] || lj[2] || lj[3]) {
				continue
			}
			var s0, s1, s2, s3, d0, d1, d2, d3 float64
			for t, p := range w.ps {
				v := p[i*m+j : i*m+j+4 : i*m+j+4]
				a := w.cy[t*m+j : t*m+j+4 : t*m+j+4]
				b := w.cd[t*m+j : t*m+j+4 : t*m+j+4]
				s0 += float64(a[0] * v[0])
				d0 += float64(b[0] * v[0])
				s1 += float64(a[1] * v[1])
				d1 += float64(b[1] * v[1])
				s2 += float64(a[2] * v[2])
				d2 += float64(b[2] * v[2])
				s3 += float64(a[3] * v[3])
				d3 += float64(b[3] * v[3])
			}
			yr := y.Data[i*m+j : i*m+j+4 : i*m+j+4]
			if lj[0] {
				yr[0] = s0
			}
			if lj[1] {
				yr[1] = s1
			}
			if lj[2] {
				yr[2] = s2
			}
			if lj[3] {
				yr[3] = s3
			}
			py, pd := ys[ph+j:ph+j+4:ph+j+4], ds[ph+j:ph+j+4:ph+j+4]
			py[0], py[1], py[2], py[3] = py[0]+float64(s0*s0), py[1]+float64(s1*s1), py[2]+float64(s2*s2), py[3]+float64(s3*s3)
			pd[0], pd[1], pd[2], pd[3] = pd[0]+float64(d0*d0), pd[1]+float64(d1*d1), pd[2]+float64(d2*d2), pd[3]+float64(d3*d3)
		}
	}
}

// combineColumn is combine's column j on rows [lo, hi), four rows at a
// time: row lo+i adds its squares into ys[(i%phases)*m] and
// ds[(i%phases)*m]. A one-column y runs in assembly where there is
// AVX2 (combineSIMD), eight rows at a time with the same bits.
func (w *lanczos) combineColumn(y *multivec.MultiVec, ys, ds []float64, j, lo, hi int) {
	m := y.M
	k := len(w.cols[j].coef)
	w.sy, w.sd = resize(w.sy, k), resize(w.sd, k)
	for t := range w.sy {
		w.sy[t], w.sd[t] = w.cy[t*m+j], w.cd[t*m+j]
	}
	sy, sd, ps := w.sy, w.sd[:k], w.ps[:k]
	if m == 1 && combineSIMD(y.Data, ps, sy, sd, ys, ds, k, lo, hi) {
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		e := i*m + j
		var s0, s1, s2, s3, d0, d1, d2, d3 float64
		for t, ct := range sy {
			v := ps[t][e : e+3*m+1 : e+3*m+1]
			dt := sd[t]
			v0, v1, v2, v3 := v[0], v[m], v[2*m], v[3*m]
			s0 += float64(ct * v0)
			d0 += float64(dt * v0)
			s1 += float64(ct * v1)
			d1 += float64(dt * v1)
			s2 += float64(ct * v2)
			d2 += float64(dt * v2)
			s3 += float64(ct * v3)
			d3 += float64(dt * v3)
		}
		yr := y.Data[e : e+3*m+1 : e+3*m+1]
		yr[0], yr[m], yr[2*m], yr[3*m] = s0, s1, s2, s3
		ph := (i - lo) % phases * m // rows i..i+3 take partials ph/m..ph/m+3
		py, pd := ys[ph:ph+3*m+1:ph+3*m+1], ds[ph:ph+3*m+1:ph+3*m+1]
		py[0], py[m], py[2*m], py[3*m] = py[0]+float64(s0*s0), py[m]+float64(s1*s1), py[2*m]+float64(s2*s2), py[3*m]+float64(s3*s3)
		pd[0], pd[m], pd[2*m], pd[3*m] = pd[0]+float64(d0*d0), pd[m]+float64(d1*d1), pd[2*m]+float64(d2*d2), pd[3*m]+float64(d3*d3)
	}
	for ; i < hi; i++ {
		e := i*m + j
		var s, d float64
		for t, ct := range sy {
			v := ps[t][e]
			s += float64(ct * v)
			d += float64(sd[t] * v)
		}
		y.Data[e] = s
		ph := (i - lo) % phases * m
		ys[ph] += float64(s * s)
		ds[ph] += float64(d * d)
	}
}

// reduceRows and phases are multivec's lane-reduction order (its
// package comment): the rows in max(1, n/reduceRows) chunks, row lo+i
// of chunk [lo, hi) adding into partial i%phases.
const (
	reduceRows = 4096
	phases     = 8
)

// laneSum is multivec's tree over the eight partials of column j,
// partial p at a[p*m+j].
func laneSum(a []float64, m, j int) float64 {
	return ((a[j] + a[4*m+j]) + (a[2*m+j] + a[6*m+j])) + ((a[m+j] + a[5*m+j]) + (a[3*m+j] + a[7*m+j]))
}
