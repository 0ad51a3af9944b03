package solver

import (
	"errors"

	"repro/internal/obs"
)

// Solver observability: every solve reports its iteration count,
// matrix-multiply count, convergence outcome, and final relative
// residual into obs.Default. The residual histograms are the data
// behind convergence summaries; the block-CG one receives one
// observation per right-hand side, so the MRHS path is covered at the
// same granularity as single-vector CG (see BlockCG).
var (
	cgSolves   = obs.Default.Counter("solver_cg_solves_total")
	cgIters    = obs.Default.Counter("solver_cg_iterations_total")
	cgMatMuls  = obs.Default.Counter("solver_cg_matmuls_total")
	cgFailures = obs.Default.Counter("solver_cg_nonconverged_total")
	cgResidual = obs.Default.Histogram("solver_cg_final_residual", obs.ResidualBuckets)

	blockSolves   = obs.Default.Counter("solver_blockcg_solves_total")
	blockIters    = obs.Default.Counter("solver_blockcg_iterations_total")
	blockMatMuls  = obs.Default.Counter("solver_blockcg_matmuls_total")
	blockRHS      = obs.Default.Counter("solver_blockcg_rhs_total")
	blockFailures = obs.Default.Counter("solver_blockcg_nonconverged_total")
	blockResidual = obs.Default.Histogram("solver_blockcg_final_residual", obs.ResidualBuckets)
	// Where a block solve's wall time went: inside the operator's
	// multiplies, or in the block-vector and m-by-m work around them.
	blockMulSeconds = obs.Default.FloatCounter("solver_blockcg_matmul_seconds_total")
	blockVecSeconds = obs.Default.FloatCounter("solver_blockcg_vector_seconds_total")

	multiSolves   = obs.Default.Counter("solver_multicg_solves_total")
	multiColumns  = obs.Default.Counter("solver_multicg_rhs_total")
	multiIters    = obs.Default.Counter("solver_multicg_iterations_total")
	multiFailures = obs.Default.Counter("solver_multicg_nonconverged_total")
	multiCanceled = obs.Default.Counter("solver_multicg_canceled_total")
	multiResidual = obs.Default.Histogram("solver_multicg_final_residual", obs.ResidualBuckets)
	// The same split as block CG's: a fused solve should cost its
	// multiplies, and the vector share says how far it is from that.
	multiMulSeconds = obs.Default.FloatCounter("solver_multicg_matmul_seconds_total")
	multiVecSeconds = obs.Default.FloatCounter("solver_multicg_vector_seconds_total")
	// Columns retired with ErrBreakdown, from CG and MultiCG alike.
	cgBreakdowns = obs.Default.Counter("solver_cg_breakdown_total")

	refineSolves   = obs.Default.Counter("solver_refine_solves_total")
	refineIters    = obs.Default.Counter("solver_refine_iterations_total")
	refineFailures = obs.Default.Counter("solver_refine_nonconverged_total")
	refineResidual = obs.Default.Histogram("solver_refine_final_residual", obs.ResidualBuckets)

	// Deflation (the Section III Krylov-recycling comparison): builds,
	// dependent directions Gram-Schmidt dropped, corrections applied.
	deflBuilds      = obs.Default.Counter("solver_deflation_builds_total")
	deflDropped     = obs.Default.Counter("solver_deflation_dropped_total")
	deflCorrections = obs.Default.Counter("solver_deflation_corrections_total")
)

// traceSolve adds one solve's outcome to the request trace carried
// by its Options context (the serve pipeline threads per-request
// traces through Ctx): the iteration count accumulates under
// cg_iterations so a trace shows exactly how much Krylov work its
// request cost, wherever in the stack the solve ran.
func traceSolve(o Options, st *Stats) {
	if tr := obs.TraceFrom(o.Ctx); tr != nil {
		tr.AddInt("cg_iterations", int64(st.Iterations))
		tr.AddInt("cg_matmuls", int64(st.MatMuls))
	}
}

func recordCG(st *Stats) {
	cgSolves.Inc()
	cgIters.Add(int64(st.Iterations))
	cgMatMuls.Add(int64(st.MatMuls))
	if !st.Converged {
		cgFailures.Inc()
	}
	if errors.Is(st.Err, ErrBreakdown) {
		cgBreakdowns.Inc() // its residual may be NaN, which a histogram sum would keep
		return
	}
	cgResidual.Observe(st.Residual)
}

func recordBlockCG(st *BlockStats) {
	blockSolves.Inc()
	blockIters.Add(int64(st.Iterations))
	blockMatMuls.Add(int64(st.MatMuls))
	blockRHS.Add(int64(len(st.ColumnResiduals)))
	blockMulSeconds.Add(st.MulSeconds)
	blockVecSeconds.Add(st.VecSeconds)
	if !st.Converged {
		blockFailures.Inc()
	}
	if errors.Is(st.Err, ErrBreakdown) {
		return // as in recordCG: its residuals are not finite
	}
	for _, r := range st.ColumnResiduals {
		blockResidual.Observe(r)
	}
}

func recordMultiCG(stats []Stats, ws *MultiCGWorkspace) {
	multiSolves.Inc()
	multiColumns.Add(int64(len(stats)))
	multiMulSeconds.Add(ws.MulSeconds)
	multiVecSeconds.Add(ws.VecSeconds)
	for i := range stats {
		st := &stats[i]
		multiIters.Add(int64(st.Iterations))
		if !st.Converged {
			multiFailures.Inc()
		}
		switch {
		case errors.Is(st.Err, ErrBreakdown):
			cgBreakdowns.Inc() // as in recordCG
			continue
		case st.Err != nil:
			multiCanceled.Inc()
		}
		multiResidual.Observe(st.Residual)
	}
}

func recordRefine(st *Stats) {
	refineSolves.Inc()
	refineIters.Add(int64(st.Iterations))
	refineResidual.Observe(st.Residual)
	if !st.Converged {
		refineFailures.Inc()
	}
}
