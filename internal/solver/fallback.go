package solver

import (
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/obs"
)

// Fallback observability: how often the block solve needed rescuing,
// how many columns were handed to the per-RHS path, and how many of
// those the fallback actually brought under tolerance.
var (
	fallbackSolves  = obs.Default.Counter("solver_blockcg_fallback_solves_total")
	fallbackColumns = obs.Default.Counter("solver_blockcg_fallback_columns_total")
	fallbackRescued = obs.Default.Counter("solver_blockcg_fallback_rescued_total")
)

// refineSweeps bounds the iterative-refinement passes the fallback
// spends on a column after its dedicated CG solve.
const refineSweeps = 3

// blockAsOp adapts a BlockOperator to the single-vector Operator by
// viewing each vector as an n-by-1 multivector.
type blockAsOp struct{ a BlockOperator }

func (w blockAsOp) N() int { return w.a.N() }
func (w blockAsOp) MulVec(y, x []float64) {
	w.a.Mul(multivec.FromVector(y), multivec.FromVector(x))
}

// asOperator returns the single-vector view of a block operator,
// using the operator's own MulVec when it has one (*bcrs.Matrix and
// *cluster.Cluster both do).
func asOperator(a BlockOperator) Operator {
	if op, ok := a.(Operator); ok {
		return op
	}
	return blockAsOp{a}
}

// BlockCGWithFallback is BlockCG with graceful degradation: when the
// block solve returns with columns still above tolerance (block-CG
// breakdown, a stingy iteration budget, or loss of orthogonality
// after a fault-recovery replay), each unconverged column is re-solved
// by single-vector CG — warm-started from the block iterate, with a
// fresh default iteration budget — and polished by up to refineSweeps
// rounds of iterative refinement (solve A*d = b-A*x, x += x+d). The
// block path is untouched when it converges, so the fallback costs
// nothing on healthy solves.
//
// The returned stats fold the rescue work into Iterations/MatMuls and
// flag it via Fallback/FallbackColumns; per-column convergence and
// residuals reflect the post-fallback state.
func BlockCGWithFallback(a BlockOperator, x, b *multivec.MultiVec, opt Options) BlockStats {
	stats := BlockCG(a, x, b, opt)
	if stats.Converged || stats.Err != nil {
		// A canceled block solve stays canceled: spending the rescue
		// budget after the caller's deadline has passed helps nobody.
		// A broken-down one (non-finite data) has nothing to rescue.
		return stats
	}
	fallbackSolves.Inc()
	stats.Fallback = true

	n := a.N()
	op := asOperator(a)
	// A fresh per-column budget: the block solve's MaxIter is sized
	// for the block iteration economics, not for a lone CG rescue.
	fopt := opt
	fopt.MaxIter = 0
	fopt.TrackResiduals = false
	fopt = fopt.withDefaults(n)

	xcol := make([]float64, n)
	bcol := make([]float64, n)
	r := make([]float64, n)
	d := make([]float64, n)
	for j := range stats.ColumnConverged {
		if stats.ColumnConverged[j] {
			continue
		}
		if opt.canceled() {
			stats.Err = ErrCanceled
			break
		}
		stats.FallbackColumns++
		fallbackColumns.Inc()
		x.Col(j, xcol)
		b.Col(j, bcol)

		st := CG(op, xcol, bcol, fopt)
		stats.Iterations += st.Iterations
		stats.MatMuls += st.MatMuls
		rel := st.Residual
		for sweep := 0; !st.Converged && st.Err == nil && sweep < refineSweeps; sweep++ {
			// Iterative refinement: solve A*d = b - A*x from zero and
			// correct the iterate.
			op.MulVec(r, xcol)
			blas.Sub(r, bcol, r)
			blas.Fill(d, 0)
			rs := CG(op, d, r, fopt)
			stats.Iterations += rs.Iterations
			stats.MatMuls += rs.MatMuls + 1
			blas.Axpy(1, d, xcol)

			op.MulVec(r, xcol)
			blas.Sub(r, bcol, r)
			stats.MatMuls++
			if bn := blas.Nrm2(bcol); bn > 0 {
				rel = blas.Nrm2(r) / bn
			} else {
				rel = 0
			}
			st.Converged = rel <= fopt.Tol
		}
		x.SetCol(j, xcol)
		stats.ColumnResiduals[j] = rel
		if st.Converged {
			stats.ColumnConverged[j] = true
			fallbackRescued.Inc()
		}
		if st.Err != nil {
			stats.Err = st.Err
			break
		}
	}

	// Recompute the aggregate verdict from the per-column outcomes.
	stats.Converged = true
	stats.Residual = 0
	for j, ok := range stats.ColumnConverged {
		if !ok {
			stats.Converged = false
		}
		if stats.ColumnResiduals[j] > stats.Residual {
			stats.Residual = stats.ColumnResiduals[j]
		}
	}
	stats.Residuals = append(stats.Residuals[:0], stats.ColumnResiduals...)
	return stats
}
