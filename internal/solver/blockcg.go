package solver

import (
	"math"
	"slices"
	"time"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// BlockStats extends Stats with per-column convergence for block
// solves.
type BlockStats struct {
	Stats
	// ColumnConverged[j] reports whether right-hand side j met the
	// tolerance.
	ColumnConverged []bool
	// ColumnResiduals[j] is the final relative residual of column j.
	ColumnResiduals []float64
	// Dropped counts the search directions the rank test removed, summed
	// over the solve's tests: zero whenever the block stayed independent,
	// which is when BlockCG ran O'Leary's recurrence throughout.
	Dropped int
	// MulSeconds is the wall time spent inside the operator's
	// multiplies and VecSeconds the rest of the block solve — the
	// Gram products, block updates, norms and m-by-m solves. Their
	// ratio says whether the solve ran at the multiply's cost, which
	// is the premise of the MRHS algorithm.
	MulSeconds, VecSeconds float64
}

// rankTol is the rank test's δ. A direction whose pivot in the
// unit-diagonal Gram matrix is not above it depends on the ones kept
// before it and is dropped. The smallest pivot of a healthy SD chunk
// (N = 1000, φ = 0.4, m = 16) is 1.5e-4 unpreconditioned and 4e-3
// through IC(0); exactly dependent columns leave 6e-15 at most, so the
// threshold sits four decades or more from both.
const rankTol = 1e-10

// blockWork is BlockCG's storage in a Workspace: the block vectors,
// the m-by-m Gram and coefficient matrices, and the LU and rank-test
// scratch, allocated when the solve's shape changes, so a simulation's
// chunk after chunk of same-shaped solves allocates it once. The search
// block and its matrices narrow to r < m columns after a drop, over the
// same storage.
type blockWork struct {
	r, p, s, pNew *multivec.MultiVec
	z             *multivec.MultiVec // preconditioned solves only

	ztr, ztrNew, pts *blas.Dense
	coef, cross      *blas.Dense
	gram             *blas.Dense // the rank test's scaled copy
	lu               blas.LU
	bnorms, rn, l    []float64
	kept             []bool
	keep             []int
}

// reshape readies w for an n-by-m solve.
func (w *blockWork) reshape(n, m int, precond bool) {
	if w.r == nil || w.r.N != n || w.r.M != m {
		*w = blockWork{
			r: multivec.New(n, m), p: multivec.New(n, m),
			s: multivec.New(n, m), pNew: multivec.New(n, m),
			ztr: blas.NewDense(m, m), ztrNew: blas.NewDense(m, m), pts: blas.NewDense(m, m),
			coef: blas.NewDense(m, m), cross: blas.NewDense(m, m), gram: blas.NewDense(m, m),
			bnorms: make([]float64, m), rn: make([]float64, m), l: make([]float64, m),
			kept: make([]bool, m), keep: make([]int, 0, m),
		}
	}
	if precond && w.z == nil {
		w.z = multivec.New(n, m)
	}
}

// shape makes d, allocated m-by-m, an r-by-c matrix over its own
// storage.
func shape(d *blas.Dense, r, c int) *blas.Dense {
	d.Rows, d.Cols, d.Data = r, c, d.Data[:r*c]
	return d
}

// independent is the rank test: a diagonally pivoted Cholesky
// factorization of the symmetric part of the k-by-k Gram matrix g
// (PᵀAP or ZᵀR), scaled to unit diagonal so that a column's pivot is
// the squared sine of its angle to the columns kept before it, whatever
// its length. The factorization stops at the first pivot at or below
// rankTol, and a zero column has nothing to pivot on. It returns the
// kept columns in ascending order, or ok = false when an entry is not
// finite or a diagonal entry is negative: data that are not finite, or
// an operator or preconditioner that is not positive definite.
func (w *blockWork) independent(g *blas.Dense) (keep []int, ok bool) {
	k := g.Rows
	c, l, kept := shape(w.gram, k, k).Data, w.l[:k], w.kept[:k]
	for i := range l {
		d := g.Data[i*k+i]
		if !(d >= 0) || math.IsInf(d, 0) {
			return nil, false
		}
		l[i] = 0 // the column's scale, 1/sqrt(d), or 0 for a zero column
		if d > 0 {
			l[i] = 1 / math.Sqrt(d)
		}
		kept[i] = false
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := 0.5 * (g.Data[i*k+j] + g.Data[j*k+i]) * l[i] * l[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
			c[i*k+j] = v
		}
	}
	for {
		q, best := -1, rankTol
		for i := 0; i < k; i++ {
			if !kept[i] && c[i*k+i] > best {
				q, best = i, c[i*k+i]
			}
		}
		if q < 0 {
			break
		}
		kept[q] = true
		piv := math.Sqrt(best)
		for i := range l {
			l[i] = 0
			if !kept[i] {
				l[i] = c[i*k+q] / piv
			}
		}
		for i := 0; i < k; i++ {
			if kept[i] {
				continue // its row is never read again
			}
			for j := 0; j < k; j++ {
				c[i*k+j] -= l[i] * l[j]
			}
		}
	}
	keep = w.keep[:0]
	for i, in := range kept {
		if in {
			keep = append(keep, i)
		}
	}
	return keep, true
}

// colNorms sets dst[j] to the Euclidean norm of column j of v, for
// every column: the square root of its ColDots sum of squares.
func colNorms(dst []float64, v *multivec.MultiVec) {
	multivec.ColDots(dst, v, v)
	for j, s := range dst {
		dst[j] = math.Sqrt(s)
	}
}

// BlockCG solves A*X = B for SPD A and a block of m right-hand sides
// simultaneously, starting from the guesses in X (O'Leary's block
// conjugate gradient method, preconditioned when opt.Precond is set).
// Every iteration performs exactly one GSPMV with m vectors plus
// small m-by-m solves — this is the kernel economics the MRHS
// algorithm is built on: the augmented system of Algorithm 2, step 3,
// is solved here at little more than the cost of a single-vector CG.
// A guess block that is all ±0 starts from R = B with no multiply, so
// a cold solve of k iterations counts k multiplies and a warm one k+1.
// The preconditioner is applied to the whole block by one ApplyBlock
// per iteration. ws holds the block storage (nil: a fresh workspace);
// an iteration allocates nothing, on any pool.
//
// Convergence is per column: the iteration stops when every column's
// residual satisfies ||r_j|| <= tol*||b_j||. Each iteration's PᵀAP
// and ZᵀR pass the rank test (see independent). While no direction is
// dropped the iteration is O'Leary's, LU solves and all. A drop —
// duplicated, scaled, combined, zero or already-solved columns —
// switches the solve to Ji and Li's breakdown-free form for good: the
// search block P keeps only the r independent directions, the multiply
// runs at width r, and α = (PᵀAP)⁻¹PᵀR, β = -(PᵀAP)⁻¹(AP)ᵀZ, P ← the
// independent columns of Z, plus Pβ. X and R keep all m columns.
// Running out of MaxIter is not an error: the solve returns its
// iterate with Converged == false. A residual or Gram entry that is
// not finite ends the solve at once with Err = ErrBreakdown: the
// iteration mixes columns, so one NaN reaches all.
func BlockCG(ws *Workspace, a BlockOperator, x, b *multivec.MultiVec, opt Options) (stats BlockStats) {
	n := a.N()
	if x.N != n || b.N != n || x.M != b.M {
		panic("solver: BlockCG dimension mismatch")
	}
	m := x.M
	opt = opt.withDefaults(n)
	start := time.Now()

	stats = BlockStats{
		ColumnConverged: make([]bool, m),
		ColumnResiduals: make([]float64, m),
	}
	if ws == nil {
		ws = new(Workspace)
	}
	w := &ws.block
	w.reshape(n, m, opt.Precond != nil)
	// On return, record the vector time and the obs metrics. stats is
	// a named result, so these deferred writes reach the caller.
	defer func() {
		stats.VecSeconds = time.Since(start).Seconds() - stats.MulSeconds
		recordBlockCG(&stats)
	}()
	mul := func(y, x *multivec.MultiVec) {
		t0 := time.Now()
		a.Mul(y, x)
		stats.MulSeconds += time.Since(t0).Seconds()
		stats.MatMuls++
	}

	// R = B - A*X, or R = B when every entry of X is ±0: that is
	// B - (+0) bit for bit, and the multiply by the zero block is not
	// run or counted.
	r := w.r
	if slices.ContainsFunc(x.Data, func(v float64) bool { return v != 0 }) {
		mul(r, x)
		blas.Sub(r.Data, b.Data, r.Data)
	} else {
		r.CopyFrom(b)
	}

	bnorms := w.bnorms
	colNorms(bnorms, b)
	// Zero columns are already solved by x_j = 0, and their residual
	// is zero whatever the guess was.
	for j, bn := range bnorms {
		if bn == 0 {
			for i := j; i < len(x.Data); i += m {
				x.Data[i], r.Data[i] = 0, 0
			}
			stats.ColumnConverged[j] = true
		}
	}
	rn := w.rn
	// check refreshes the per-column residuals and reports whether the
	// solve is over: every column converged, or a residual is not finite
	// (NaN or Inf in B, in the guess or out of the operator): breakdown.
	check := func() bool {
		colNorms(rn, r)
		all := true
		worst := 0.0
		for j := range rn {
			if bnorms[j] == 0 {
				continue
			}
			rel := rn[j] / bnorms[j]
			stats.ColumnResiduals[j] = rel
			if rel <= opt.Tol {
				stats.ColumnConverged[j] = true
			} else {
				stats.ColumnConverged[j] = false
				all = false
			}
			if rel > worst || rel != rel { // a NaN sticks: nothing compares above it
				worst = rel
			}
		}
		stats.Residual = worst
		if math.IsNaN(worst) || math.IsInf(worst, 0) {
			stats.Err = ErrBreakdown
			return true
		}
		stats.Converged = all
		return all
	}
	if check() {
		return stats
	}

	// z is the preconditioned residual M^{-1} R, one ApplyBlock over
	// the block; without a preconditioner it aliases r and the extra
	// work vanishes.
	z := r
	applyPrecond := func() {}
	if opt.Precond != nil {
		z = w.z
		applyPrecond = func() { opt.Precond.ApplyBlock(z, r) }
	}
	applyPrecond()

	p, pNew, s := w.p, w.pNew, w.s
	ztr, ztrNew := w.ztr, w.ztrNew
	multivec.GramInto(ztr, z, r)
	// takeColumns sets dst to the columns keep of Z, the independent
	// ones by the rank test of ZᵀR.
	takeColumns := func(dst *multivec.MultiVec, keep []int) {
		dst.Reshape(n, m)
		dst.CopyFrom(z)
		if len(keep) < m {
			stats.Dropped += m - len(keep)
			dst.CompactColumns(keep)
		}
	}
	// A preconditioner that maps a nonzero residual to zero keeps no
	// column of ZᵀR: it is not positive definite.
	keep, ok := w.independent(ztr)
	if !ok || len(keep) == 0 {
		stats.Err = ErrBreakdown
		return stats
	}
	full := len(keep) == m // no direction dropped yet: O'Leary's form
	takeColumns(p, keep)

	for it := 0; it < opt.MaxIter; it++ {
		if opt.canceled(new(time.Time)) {
			stats.Err = ErrCanceled
			break
		}
		s.Reshape(n, p.M)
		mul(s, p) // S = A*P: the one GSPMV per iteration

		pts := shape(w.pts, p.M, p.M)
		multivec.GramInto(pts, p, s)
		keep, ok = w.independent(pts)
		if !ok || len(keep) == 0 {
			stats.Err = ErrBreakdown
			break
		}
		if len(keep) < p.M {
			stats.Dropped += p.M - len(keep)
			full = false
			p.CompactColumns(keep)
			s.CompactColumns(keep)
			pts = shape(pts, p.M, p.M)
			multivec.GramInto(pts, p, s)
		}
		if w.lu.Factor(pts) != nil {
			stats.Err = ErrBreakdown
			break
		}
		// α = (PᵀAP)⁻¹ ZᵀR in O'Leary's form, (PᵀAP)⁻¹ PᵀR in the
		// breakdown-free one; the two agree in exact arithmetic until a
		// direction is dropped.
		rhs := ztr
		if !full {
			rhs = shape(w.cross, p.M, m)
			multivec.GramInto(rhs, p, r)
		}
		alpha := shape(w.coef, p.M, m)
		w.lu.SolveMatrixInto(alpha, rhs)
		x.AddMul(p, alpha)
		// R <- R - S*alpha, fused as an AddMul with negated alpha.
		for i := range alpha.Data {
			alpha.Data[i] = -alpha.Data[i]
		}
		r.AddMul(s, alpha)
		stats.Iterations = it + 1

		if check() {
			break
		}

		applyPrecond()
		multivec.GramInto(ztrNew, z, r)
		if keep, ok = w.independent(ztrNew); !ok || len(keep) == 0 {
			stats.Err = ErrBreakdown
			break
		}
		if full = full && len(keep) == m; full {
			// O'Leary: P <- Z + P*beta, beta = (ZᵀR)_old⁻¹ (ZᵀR)_new.
			if w.lu.Factor(ztr) != nil {
				stats.Err = ErrBreakdown
				break
			}
			beta := shape(w.coef, m, m)
			w.lu.SolveMatrixInto(beta, ztrNew)
			pNew.Reshape(n, m)
			pNew.SetMulAdd(z, p, beta)
		} else {
			// Breakdown-free: P <- Z_K + P*beta with
			// beta = -(PᵀAP)⁻¹ (AP)ᵀ Z_K, PᵀAP still factored in lu.
			takeColumns(pNew, keep)
			cross := shape(w.cross, p.M, pNew.M)
			multivec.GramInto(cross, s, pNew)
			beta := shape(w.coef, p.M, pNew.M)
			w.lu.SolveMatrixInto(beta, cross)
			for i := range beta.Data {
				beta.Data[i] = -beta.Data[i]
			}
			pNew.AddMul(p, beta)
		}
		ztr, ztrNew = ztrNew, ztr
		p, pNew = pNew, p
	}
	return stats
}
