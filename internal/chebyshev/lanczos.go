package chebyshev

import (
	"errors"
	"math"
	"sync"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// Factor is a preconditioner that is the product M = L*L^T of a factor
// the square root can also multiply by: Apply and ApplyBlock compute
// M^{-1} times a vector or a block, MulL computes L times a block.
// *solver.IC0 satisfies it.
type Factor interface {
	Apply(z, r []float64)
	ApplyBlock(z, r *multivec.MultiVec)
	MulL(y, x *multivec.MultiVec)
}

// DefaultTol is PrecondSqrt's stopping tolerance when none is given:
// the largest relative error a Brownian force may carry.
const DefaultTol = 1e-3

// ErrNotSPD is returned by PrecondSqrt when the operator, seen through
// the factor, is not symmetric positive definite — a Rayleigh quotient
// or an eigenvalue of the Lanczos matrix that is not positive, a
// negative M^{-1}-norm — or when any scalar of the recurrence is not a
// finite number.
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

// PrecondSqrt computes, column by column, Y = L*f(L^{-1} A L^{-T})*Z
// with f the square root, M = L*L^T the factor's preconditioner and A
// the SPD operator a multiplies by (Chow & Saad, "Preconditioned Krylov
// subspace methods for sampling multivariate Gaussian distributions",
// SISC 2014). Cov(Y) = L*(L^{-1} A L^{-T})*L^T = A for any invertible L,
// so a column is a Brownian force of covariance A, and with L an
// incomplete Cholesky factor of A the operator under the square root
// has a condition number of a few units instead of A's thousands.
//
// f is evaluated by the Lanczos process on X = L^{-1} A L^{-T}, carried
// in the variables q = L*v, where X's inner product is the
// M^{-1}-inner product: q_1 = L*z/|z|, s_j = M^{-1} q_j, u = A*s_j,
// alpha_j = s_j^T u, u -= alpha_j q_j + beta_{j-1} q_{j-1},
// beta_j = sqrt(u^T M^{-1} u), q_{j+1} = u/beta_j. After k steps the
// column is |z|*Q_k*sqrt(T_k)*e_1, T_k the tridiagonal matrix of the
// alphas and betas, from an eigendecomposition of T_k. A column stops
// at the first k >= 2 at which the iterate moved by at most tol relative
// to its length in the 2-norm, or at maxIter steps, which
// Stats.Unconverged counts; tol <= 0 means DefaultTol. The move is read
// in coefficient space first, where it is free but measures the
// M^{-1}-norm — on SD matrices 1.5 to 10 times smaller than the 2-norm
// move, so it cannot stop a column by itself — and only a column that
// passes there pays for the 2-norm over the basis, which also writes its
// result.
//
// The m columns run in lockstep: each step is one width-m multiply by
// a (the GSPMV), one ApplyBlock and column dot products, and every
// column's bits are those of the same call on that column alone.
// Y and Z must not alias.
func PrecondSqrt(a Op, f Factor, y, z *multivec.MultiVec, maxIter int, tol float64) (Stats, error) {
	n, m := a.N(), z.M
	if z.N != n || y.N != n || y.M != m {
		panic("chebyshev: PrecondSqrt dimension mismatch")
	}
	if maxIter <= 0 {
		maxIter = DefaultOrder
	}
	if !(tol > 0) {
		tol = DefaultTol
	}
	w := lanczosPool.Get().(*lanczos)
	defer lanczosPool.Put(w)
	w.reset(n, m)

	// The basis is kept unnormalised, p_t = gamma_t * q_t with gamma_t
	// its M^{-1}-norm, so no pass rescales a block; r = M^{-1} p_i.
	p0 := w.basis(0)
	f.MulL(p0, z)
	w.precondition(f, &w.r, p0)
	var st Stats
	for i := 0; ; i++ {
		// p_{i+1} starts as A r_i = gamma_i * u. One pass then gives
		// gamma_i^2 = p_i^T r_i (|z|^2 at i = 0, beta_{i-1}^2 after) and
		// gamma_i^2 alpha_i = r_i^T A r_i.
		next := w.basis(i + 1)
		a.Mul(next, &w.r)
		st.Iterations++
		w.colDots2(w.pr, w.rw, &w.p[i], &w.r, next)
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
			if i > 0 && moved <= tol {
				w.check = append(w.check, j)
			}
		}
		if err := w.combine(y, w.check); err != nil {
			return Stats{}, err
		}
		for _, j := range w.check {
			c := &w.cols[j]
			c.done = c.moved <= tol
		}
		active := 0
		for j := range w.cols {
			c := &w.cols[j]
			if !c.done && i+1 == maxIter {
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
		lanczosUpdate(next, &w.p[i], prev, w.alpha, w.g, w.h)
		w.precondition(f, &w.r, next)
	}
	// Columns that stopped without a passing check — the cap, an
	// invariant subspace, a zero z — are written with what they have.
	w.check = w.check[:0]
	for j := range w.cols {
		if !w.cols[j].written {
			w.check = append(w.check, j)
		}
	}
	if err := w.combine(y, w.check); err != nil {
		return Stats{}, err
	}
	return st, nil
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
	moved       float64   // the 2-norm move of the last checked step
	done        bool
	written     bool // y's column holds this column's coef
}

// lanczos is one evaluation's storage beyond its operands, pooled like
// the series' work: the basis blocks, M^{-1} of the newest, the
// per-column scalars and the scratch of the small eigenproblems.
type lanczos struct {
	p              []multivec.MultiVec // p_0, p_1, ...: the basis, unnormalised
	r              multivec.MultiVec   // M^{-1} p_i
	pr, rw, alpha  []float64           // per column: colDots2's products, alpha_i
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

var lanczosPool = sync.Pool{New: func() any { return new(lanczos) }}

func (w *lanczos) reset(n, m int) {
	w.r.Reshape(n, m)
	w.pr, w.rw = resize(w.pr, m), resize(w.rw, m)
	w.alpha = resize(w.alpha, m)
	w.g = resize(w.g, m)
	w.h = resize(w.h, m)
	if cap(w.cols) < m {
		w.cols = make([]column, m)
	}
	w.cols = w.cols[:m]
	for j := range w.cols {
		c := &w.cols[j]
		c.scale, c.moved, c.done, c.written = 0, 0, false, false
		c.alpha, c.beta, c.gamma = c.alpha[:0], c.beta[:0], c.gamma[:0]
		c.coef, c.prev = c.coef[:0], c.prev[:0]
	}
	w.p = w.p[:0]
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

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

// precondition sets z = M^{-1} r, through the single-vector sweeps when
// the block is one column (Apply and ApplyBlock agree bit for bit on a
// column; Apply is the faster of the two there).
func (w *lanczos) precondition(f Factor, z, r *multivec.MultiVec) {
	if z.M == 1 {
		f.Apply(z.Data, r.Data)
		return
	}
	f.ApplyBlock(z, r)
}

// colDots2 sets pr[j] and rw[j] to the inner products of column j of p
// with r and of r with u, in one pass. Each column sums its rows four at
// a time, ((x0 y0 + x1 y1) + (x2 y2 + x3 y3)) as quad writes it, into one
// running sum: a single vector's add chain is a quarter of its length,
// a block takes four columns at a time with their sums in registers
// (the unrolled loop is quad on each of them, 1.5x faster at m = 16
// than a pass per column), and a column of a block sums in exactly the
// order it does alone.
func (w *lanczos) colDots2(pr, rw []float64, p, r, u *multivec.MultiVec) {
	n, m := r.N, r.M
	pd, rd, ud := p.Data[:n*m], r.Data[:n*m], u.Data[:n*m]
	n4, j := n&^3, 0
	for ; j+4 <= m; j += 4 {
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for i := 0; i < n4; i += 4 {
			e := i*m + j
			x0, x1, x2, x3 := pd[e:e+4:e+4], pd[e+m:e+m+4:e+m+4], pd[e+2*m:e+2*m+4:e+2*m+4], pd[e+3*m:e+3*m+4:e+3*m+4]
			y0, y1, y2, y3 := rd[e:e+4:e+4], rd[e+m:e+m+4:e+m+4], rd[e+2*m:e+2*m+4:e+2*m+4], rd[e+3*m:e+3*m+4:e+3*m+4]
			z0, z1, z2, z3 := ud[e:e+4:e+4], ud[e+m:e+m+4:e+m+4], ud[e+2*m:e+2*m+4:e+2*m+4], ud[e+3*m:e+3*m+4:e+3*m+4]
			a0 += (float64(x0[0]*y0[0]) + float64(x1[0]*y1[0])) + (float64(x2[0]*y2[0]) + float64(x3[0]*y3[0]))
			b0 += (float64(y0[0]*z0[0]) + float64(y1[0]*z1[0])) + (float64(y2[0]*z2[0]) + float64(y3[0]*z3[0]))
			a1 += (float64(x0[1]*y0[1]) + float64(x1[1]*y1[1])) + (float64(x2[1]*y2[1]) + float64(x3[1]*y3[1]))
			b1 += (float64(y0[1]*z0[1]) + float64(y1[1]*z1[1])) + (float64(y2[1]*z2[1]) + float64(y3[1]*z3[1]))
			a2 += (float64(x0[2]*y0[2]) + float64(x1[2]*y1[2])) + (float64(x2[2]*y2[2]) + float64(x3[2]*y3[2]))
			b2 += (float64(y0[2]*z0[2]) + float64(y1[2]*z1[2])) + (float64(y2[2]*z2[2]) + float64(y3[2]*z3[2]))
			a3 += (float64(x0[3]*y0[3]) + float64(x1[3]*y1[3])) + (float64(x2[3]*y2[3]) + float64(x3[3]*y3[3]))
			b3 += (float64(y0[3]*z0[3]) + float64(y1[3]*z1[3])) + (float64(y2[3]*z2[3]) + float64(y3[3]*z3[3]))
		}
		for i := n4; i < n; i++ {
			x, y, z := pd[i*m+j:i*m+j+4], rd[i*m+j:i*m+j+4], ud[i*m+j:i*m+j+4]
			a0, b0 = a0+float64(x[0]*y[0]), b0+float64(y[0]*z[0])
			a1, b1 = a1+float64(x[1]*y[1]), b1+float64(y[1]*z[1])
			a2, b2 = a2+float64(x[2]*y[2]), b2+float64(y[2]*z[2])
			a3, b3 = a3+float64(x[3]*y[3]), b3+float64(y[3]*z[3])
		}
		pr[j], pr[j+1], pr[j+2], pr[j+3] = a0, a1, a2, a3
		rw[j], rw[j+1], rw[j+2], rw[j+3] = b0, b1, b2, b3
	}
	for ; j < m; j++ {
		var a, b float64
		for i := 0; i < n4; i += 4 {
			a, b = a+quad(pd, rd, i*m+j, m), b+quad(rd, ud, i*m+j, m)
		}
		for e := n4*m + j; e < n*m; e += m {
			a, b = a+float64(pd[e]*rd[e]), b+float64(rd[e]*ud[e])
		}
		pr[j], rw[j] = a, b
	}
}

// quad is the sum over four rows of a column, e the first row's index
// and m the row length: (x0 y0 + x1 y1) + (x2 y2 + x3 y3).
func quad(x, y []float64, e, m int) float64 {
	return (float64(x[e]*y[e]) + float64(x[e+m]*y[e+m])) + (float64(x[e+2*m]*y[e+2*m]) + float64(x[e+3*m]*y[e+3*m]))
}

// coefficients sets c.coef to |z|*sqrt(T_k)*e_1 for the k steps c has
// taken and returns how far it moved from the last step's, relative to
// its length: the M^{-1}-norm move of the column, since the basis is
// M^{-1}-orthonormal. ok is false when T_k has an eigenvalue that is
// not a finite positive number. T_k is decomposed scaled by its largest
// alpha, so the Jacobi sweep's absolute stopping test sees entries of
// order one.
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
	c.coef, c.written = resize(c.coef, k), false
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
	return math.Sqrt(diff / norm), true
}

// combine writes, for each column j listed, column j of y as
// sum_t coef_j[t]/gamma_j[t] * p_t — the column's result at its current
// step — and sets its moved to the 2-norm of the step's change,
// sum_t (coef_j[t] - prev_j[t])/gamma_j[t] * p_t, relative to |y_j|.
func (w *lanczos) combine(y *multivec.MultiVec, cols []int) error {
	if len(cols) == 0 {
		return nil
	}
	m, kmax := y.M, 0
	for _, j := range cols {
		kmax = max(kmax, len(w.cols[j].coef))
	}
	w.sums = resize(w.sums, 2*m)
	w.cy, w.cd = resize(w.cy, kmax*m), resize(w.cd, kmax*m)
	clear(w.sums)
	clear(w.cy)
	clear(w.cd)
	if cap(w.listed) < m {
		w.listed = make([]bool, m)
	}
	w.listed = w.listed[:m]
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
	// Columns go four at a time, their sums in registers, in one sweep
	// over the rows; the last m % 4 go one at a time.
	g4 := m &^ 3
	for i := 0; i < y.N && g4 > 0; i++ {
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
			ys, ds := w.sums[j:j+4:j+4], w.sums[m+j:m+j+4:m+j+4]
			ys[0], ys[1], ys[2], ys[3] = ys[0]+float64(s0*s0), ys[1]+float64(s1*s1), ys[2]+float64(s2*s2), ys[3]+float64(s3*s3)
			ds[0], ds[1], ds[2], ds[3] = ds[0]+float64(d0*d0), ds[1]+float64(d1*d1), ds[2]+float64(d2*d2), ds[3]+float64(d3*d3)
		}
	}
	for _, j := range cols {
		if j < g4 {
			continue
		}
		k := len(w.cols[j].coef)
		w.sy, w.sd = resize(w.sy, k), resize(w.sd, k)
		for t := range w.sy {
			w.sy[t], w.sd[t] = w.cy[t*m+j], w.cd[t*m+j]
		}
		sy, sd, ps := w.sy, w.sd[:k], w.ps[:k]
		var yy, dd float64
		for e := j; e < len(y.Data); e += m {
			var s, d float64
			for t, ct := range sy {
				v := ps[t][e]
				s += float64(ct * v)
				d += float64(sd[t] * v)
			}
			y.Data[e] = s
			yy += float64(s * s)
			dd += float64(d * d)
		}
		w.sums[j], w.sums[m+j] = yy, dd
	}
	for _, j := range cols {
		c := &w.cols[j]
		yy, dd := w.sums[j], w.sums[m+j]
		if !(yy < math.Inf(1)) || !(dd < math.Inf(1)) {
			return ErrNotSPD
		}
		c.moved = 0
		if yy > 0 {
			c.moved = math.Sqrt(dd / yy)
		}
		c.written = true
	}
	return nil
}

// lanczosUpdate computes, in every column j, u = (u - alpha[j]*q)*g[j]
// - h[j]*prev, four columns at a time with their scalars in registers.
func lanczosUpdate(u, q, prev *multivec.MultiVec, alpha, g, h []float64) {
	m := u.M
	ud := u.Data
	qd, pd := q.Data[:len(ud)], prev.Data[:len(ud)]
	j := 0
	for ; j+4 <= m; j += 4 {
		a0, a1, a2, a3 := alpha[j], alpha[j+1], alpha[j+2], alpha[j+3]
		g0, g1, g2, g3 := g[j], g[j+1], g[j+2], g[j+3]
		h0, h1, h2, h3 := h[j], h[j+1], h[j+2], h[j+3]
		for e := j; e < len(ud); e += m {
			x, y, z := ud[e:e+4:e+4], qd[e:e+4:e+4], pd[e:e+4:e+4]
			x[0] = float64((x[0]-float64(a0*y[0]))*g0) - float64(h0*z[0])
			x[1] = float64((x[1]-float64(a1*y[1]))*g1) - float64(h1*z[1])
			x[2] = float64((x[2]-float64(a2*y[2]))*g2) - float64(h2*z[2])
			x[3] = float64((x[3]-float64(a3*y[3]))*g3) - float64(h3*z[3])
		}
	}
	for ; j < m; j++ {
		a, gg, hh := alpha[j], g[j], h[j]
		for e := j; e < len(ud); e += m {
			ud[e] = float64((ud[e]-float64(a*qd[e]))*gg) - float64(hh*pd[e])
		}
	}
}
