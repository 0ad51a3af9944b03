package solver

import (
	"math"
	"sync"
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
	// Fallback reports that BlockCGWithFallback had to degrade to
	// per-column CG; FallbackColumns counts the columns it rescued
	// (attempted, whether or not they then converged).
	Fallback        bool
	FallbackColumns int
	// MulSeconds is the wall time spent inside the operator's
	// multiplies and VecSeconds the rest of the block solve — the
	// Gram products, block updates, norms and m-by-m solves. Their
	// ratio says whether the solve ran at the multiply's cost, which
	// is the premise of the MRHS algorithm. A fallback's per-column
	// rescue is in neither.
	MulSeconds, VecSeconds float64
}

// blockWork is the storage of one BlockCG call: the block vectors,
// the m-by-m Gram and coefficient matrices, and the LU scratch. Calls
// draw it from a pool, so a simulation's chunk after chunk of
// same-shaped solves allocates it once; every buffer is fully
// overwritten before it is read, so reuse cannot reach a result.
type blockWork struct {
	r, p, s, pNew *multivec.MultiVec
	z             *multivec.MultiVec // preconditioned solves only
	rcol, zcol    []float64          // column-by-column preconditioning only

	ztr, ztrNew, pts *blas.Dense
	coef, ridged     *blas.Dense
	lu               blas.LU
	bnorms, rn       []float64
}

var blockWorkPool = sync.Pool{New: func() any { return new(blockWork) }}

// getBlockWork returns a workspace for an n-by-m solve.
func getBlockWork(n, m int, precond bool) *blockWork {
	w := blockWorkPool.Get().(*blockWork)
	if w.r == nil || w.r.N != n || w.r.M != m {
		*w = blockWork{
			r: multivec.New(n, m), p: multivec.New(n, m),
			s: multivec.New(n, m), pNew: multivec.New(n, m),
			ztr: blas.NewDense(m, m), ztrNew: blas.NewDense(m, m), pts: blas.NewDense(m, m),
			coef: blas.NewDense(m, m), ridged: blas.NewDense(m, m),
			bnorms: make([]float64, m), rn: make([]float64, m),
		}
	}
	if precond && w.z == nil {
		w.z = multivec.New(n, m)
	}
	return w
}

// solveSmall solves the m-by-m system G*X = H into w.coef,
// regularizing a singular G with a relative diagonal ridge. It
// reports failure only if the ridge does not help.
func (w *blockWork) solveSmall(g, h *blas.Dense) (*blas.Dense, bool) {
	if err := w.lu.Factor(g); err != nil {
		ridge := 0.0
		for i := 0; i < g.Rows; i++ {
			if v := g.At(i, i); v > ridge {
				ridge = v
			}
		}
		if ridge == 0 {
			ridge = 1
		}
		copy(w.ridged.Data, g.Data)
		for i := 0; i < g.Rows; i++ {
			w.ridged.Add(i, i, ridge*1e-13)
		}
		if err := w.lu.Factor(w.ridged); err != nil {
			return nil, false
		}
	}
	w.lu.SolveMatrixInto(w.coef, h)
	return w.coef, true
}

// BlockCG solves A*X = B for SPD A and a block of m right-hand sides
// simultaneously, starting from the guesses in X (O'Leary's block
// conjugate gradient method, preconditioned when opt.Precond is set).
// Every iteration performs exactly one GSPMV with m vectors plus
// small m-by-m solves — this is the kernel economics the MRHS
// algorithm is built on: the augmented system of Algorithm 2, step 3,
// is solved here at little more than the cost of a single-vector CG.
// An iteration allocates nothing.
//
// Convergence is per column: the iteration stops when every column's
// residual satisfies ||r_j|| <= tol*||b_j||. A numerically singular
// m-by-m system (which arises when columns converge early or become
// linearly dependent — the classic block-CG breakdown) is regularized
// with a small diagonal ridge; if it remains singular the solve
// returns with the current iterate and per-column convergence flags.
// A residual that is not finite ends the solve at once with Err =
// ErrBreakdown: the iteration mixes columns, so one NaN reaches all.
func BlockCG(a BlockOperator, x, b *multivec.MultiVec, opt Options) (stats BlockStats) {
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
	w := getBlockWork(n, m, opt.Precond != nil)
	// On return, mirror the per-column final residuals into
	// Stats.Residuals so block solves feed the same residual
	// reporting as single-vector CG, and record the obs metrics.
	// stats is a named result, so these deferred writes reach the
	// caller.
	defer func() {
		blockWorkPool.Put(w)
		stats.VecSeconds = time.Since(start).Seconds() - stats.MulSeconds
		stats.Residuals = append(stats.Residuals[:0], stats.ColumnResiduals...)
		recordBlockCG(&stats)
	}()
	mul := func(y, x *multivec.MultiVec) {
		t0 := time.Now()
		a.Mul(y, x)
		stats.MulSeconds += time.Since(t0).Seconds()
		stats.MatMuls++
	}

	// R = B - A*X.
	r := w.r
	mul(r, x)
	r.Sub(b, r)

	bnorms := w.bnorms
	b.ColNormsInto(bnorms)
	// Zero columns are already solved by x_j = 0.
	for j, bn := range bnorms {
		if bn == 0 {
			for i := j; i < len(x.Data); i += m {
				x.Data[i] = 0
			}
			stats.ColumnConverged[j] = true
		}
	}
	rn := w.rn
	// check refreshes the per-column residuals and reports whether the
	// solve is over: every column converged, or a residual is not finite
	// (NaN or Inf in B, in the guess or out of the operator): breakdown.
	check := func() bool {
		r.ColNormsInto(rn)
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

	// z is the preconditioned residual M^{-1} R; without a
	// preconditioner it aliases r and the extra work vanishes. A
	// preconditioner that can sweep a whole block does (IC0: the factor
	// is read once for all m columns); any other is applied column by
	// column through contiguous copies.
	z := r
	applyPrecond := func() {}
	if bp, ok := opt.Precond.(blockPreconditioner); ok {
		z = w.z
		applyPrecond = func() { bp.ApplyBlock(z, r) }
	} else if opt.Precond != nil {
		z = w.z
		if w.rcol == nil {
			w.rcol, w.zcol = make([]float64, n), make([]float64, n)
		}
		applyPrecond = func() {
			for j := 0; j < m; j++ {
				r.Col(j, w.rcol)
				opt.Precond.Apply(w.zcol, w.rcol)
				z.SetCol(j, w.zcol)
			}
		}
	}
	applyPrecond()

	p, pNew, s := w.p, w.pNew, w.s
	p.CopyFrom(z)
	ztr, ztrNew, pts := w.ztr, w.ztrNew, w.pts
	multivec.GramInto(ztr, z, r)

	for it := 0; it < opt.MaxIter; it++ {
		if opt.canceled() {
			stats.Err = ErrCanceled
			break
		}
		mul(s, p) // S = A*P: the one GSPMV per iteration

		multivec.GramInto(pts, p, s)
		alpha, ok := w.solveSmall(pts, ztr)
		if !ok {
			break // irrecoverable breakdown; return current iterate
		}
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
		beta, ok := w.solveSmall(ztr, ztrNew)
		if !ok {
			break
		}
		ztr, ztrNew = ztrNew, ztr
		// P <- Z + P*beta.
		pNew.SetMulAdd(z, p, beta)
		p, pNew = pNew, p
	}
	return stats
}
