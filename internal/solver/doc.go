// Package solver provides the linear solvers of the Stokesian
// dynamics time step: conjugate gradients (with initial guesses —
// the mechanism the MRHS algorithm feeds), the block conjugate
// gradient method of O'Leary for the augmented multiple-right-hand-
// side systems, Cholesky-based direct solution with iterative
// refinement for small systems (the paper's Section II-C baseline),
// and two preconditioners: block Jacobi, and the block incomplete
// Cholesky factor IC0 that the SD stepper reuses for every solve of a
// window of time steps (the first technique of the paper's Section
// III). IC0 keeps its factor in flat bcrs-style arrays, so Apply is two
// sweeps at about the cost of one multiply, ApplyBlock runs them once
// for all columns of a block solve, and Refactor refills the storage
// for the next window's matrix; none of the three allocates.
//
// All iterative solvers count iterations and matrix multiplications;
// these counters are the data behind the paper's Table V and
// Figure 6.
//
// # The fused-solve contract
//
// There is one CG in this package: MultiCG solves q independent
// systems with it, and CG is the same solve at q = 1.
//
//   - Layout. The state of all q columns lives in four row-major
//     n-by-w blocks X, R, P, AP (w = KernelCeil(q); a fifth, Z, only
//     when some column has a preconditioner) owned by a
//     MultiCGWorkspace — the layout the GSPMV kernels multiply in.
//     Guesses and right-hand sides are packed once on entry, each
//     column's iterate is copied out once when it retires, and an
//     iteration is one fused multiply AP = A*P plus three column
//     sweeps of internal/multivec: ColDots (p.Ap), ColUpdate
//     (X += P*diag(alpha), R -= AP*diag(alpha) and the sums of squares
//     of the new R, in one pass) and ColDirection
//     (P = Z + P*diag(beta)). At w = 1 a block is the vector.
//   - Lane recurrence. Each column is a lane. Every lane value is the
//     textbook recurrence on that column alone — products rounded
//     before they are added, reductions summed sequentially in row
//     order — and the sweeps are serial, so a lane's bits depend on
//     neither q, w, the lane's position, nor the thread count. With
//     the GSPMV kernels' identical per-column order this makes column
//     j of MultiCG BITWISE what CG(a, x_j, b_j, opts[j]) returns:
//     iterate, iteration count, residual.
//   - Norms. A norm is the square root of the lane's sequential sum of
//     squares: ||r||^2 is the same unscaled sum r.z and p.Ap always
//     were (for an unpreconditioned column it *is* r.z, and is reused
//     as such), not a scaled 2-norm. Its range is therefore that of a
//     square: entries beyond about 1e+-154 overflow or vanish. A
//     right-hand side whose sum of squares is zero is answered x = 0;
//     one whose square overflows is a breakdown.
//   - Retirement. A column leaves at an iteration boundary — converged,
//     out of budget (MaxIter), cancelled (Ctx), broken down — in CG's
//     own order of tests. The survivors are compacted to the leading
//     lanes, in place while KernelCeil of their count holds and into
//     the narrower block (the same storage, restrided) when it drops,
//     with zero padding after them.
//   - Breakdown. When p.Ap is not a finite number > 0, or a sum of
//     squares (of b on entry, of r after any update) is not finite,
//     the column retires at once with Stats.Err = ErrBreakdown and the
//     last iterate it formed: a NaN, an Inf, or an operator that is
//     not positive definite costs that column at most the iteration it
//     is found in, and no other column anything.
//
// # Invariants and failure semantics
//
//   - Operators have no error return. When the operator is a
//     fault-armed cluster, its Mul panics with a *faults.Error; the
//     solvers deliberately do not recover it, so a failed halo
//     exchange unwinds straight through the CG iteration to the core
//     step boundary, where recovery replays from the last checkpoint.
//     A solve therefore never runs to "convergence" on poisoned data.
//   - BlockCG never panics on numerical breakdown: a singular m-by-m
//     projected system is ridge-regularized, and if that fails the
//     solve returns the current iterate with per-column convergence
//     flags. Callers must inspect BlockStats.Converged. A residual
//     that is not finite ends the solve in the iteration it appears in
//     with Err = ErrBreakdown; BlockCGWithFallback then rescues nothing.
//   - A preconditioner changes the iterates, never the stopping rule:
//     every solver stops on ||r|| <= tol*||b|| for the recurrence
//     residual of the system itself, not the preconditioned one, so a
//     stale or poor factor costs iterations and cannot pass a wrong
//     answer. NewIC0 / Refactor fail with ErrICBreakdown — on a pivot
//     block that stays indefinite through the diagonal shifts, at once
//     on one that is not finite — and never hand back a NaN factor.
//   - BlockCGWithFallback is the graceful-degradation surface: when
//     the block solve leaves columns above tolerance it re-solves
//     each by warm-started single-vector CG plus bounded iterative
//     refinement, and reports the rescue in BlockStats.Fallback /
//     FallbackColumns. It is a strict superset of BlockCG's contract
//     and costs nothing on converged solves.
//   - Warm starts are pure: solvers read the initial guess from x and
//     overwrite it in place; they never consult other state, so a
//     replayed solve with the same inputs is bitwise identical (the
//     property the chaos tests assert end-to-end).
package solver
