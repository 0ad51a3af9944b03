// Package solver provides the linear solvers of the Stokesian
// dynamics time step: conjugate gradients (with initial guesses —
// the mechanism the MRHS algorithm feeds), the block conjugate
// gradient method of O'Leary, made breakdown-free by a rank test, for
// the augmented multiple-right-hand-side systems, and the block
// incomplete Cholesky factor IC0 that the SD stepper reuses for every
// solve of a window of time steps (the first technique of the paper's
// Section III), and that the served engine takes once of its matrix.
// IC0 keeps its factor in flat bcrs-style arrays, so ApplyBlock is two
// sweeps at about the cost of one multiply, run once for all columns
// of a block, and Refactor refills the storage for the next window's
// matrix; neither allocates. The block sweeps run in assembly with the
// Go loops' bits: where the host has AVX-512 at every width m >= 2, 16
// columns a zmm pass, a last 5-8 under an opmask and a last 1-4 in a
// masked ymm, so no lane is read or written past its column; with AVX2
// alone on the leading multiple of 4, the rest in the Go loops.
//
// A Preconditioner is ApplyBlock on every column of a row-major block
// (m = 1 is a vector), column j bitwise the same call on column j
// alone, and each solver has one way to use it: BlockCG sweeps the whole block by
// one ApplyBlock per iteration, and a fused solve shares one
// preconditioner across all its columns (below).
//
// All iterative solvers count iterations and matrix multiplications;
// these counters are the data behind the paper's Table V and
// Figure 6.
//
// # The fused-solve contract
//
// There is one CG in this package: MultiCGWith solves q independent
// systems with it, and CGWith (CG on a fresh workspace) is the same
// solve at q = 1.
//
//   - Layout. The state of all q columns lives in four row-major
//     n-by-q blocks X, R, P, AP (a fifth, Z, only when the batch is
//     preconditioned) owned by the caller's Workspace — the layout the
//     GSPMV kernels multiply in. A block is exactly as wide as its live
//     columns: the kernels have a pass for every width, so there are no
//     padding lanes.
//     Guesses and right-hand sides are packed once on entry, each
//     column's iterate is copied out once when it retires, and an
//     iteration is one fused multiply AP = A*P plus three column
//     sweeps of internal/multivec: ColDots (p.Ap), ColUpdate
//     (X += P*diag(alpha), R -= AP*diag(alpha) and the sums of squares
//     of the new R, in one pass) and ColDirection
//     (P = Z + P*diag(beta)). At q = 1 a block is the vector.
//   - Zero guesses. R = B - A*X on entry, except that a column whose
//     guess is all ±0 (checked up to its first nonzero entry) takes
//     R = B: that is B - (+0), bit for bit, for an operator whose
//     product with a zero block is +0 (every bcrs kernel, the cluster
//     operator). When every guess is zero the entry multiply is not
//     run. When one is not, it runs for the batch, and the zero-guess
//     columns' lanes of its product are set to +0 first, so a NaN an
//     operator gives there never reaches them.
//     Stats.MatMuls counts a column's entry multiply only when its
//     guess is nonzero, so a cold solve of k iterations costs k
//     multiplies and a warm one k+1, batched or alone.
//   - Lane recurrence. Each column is a lane. Every lane value is the
//     textbook recurrence on that column alone — products rounded
//     before they are added, reductions summed in multivec's fixed
//     lane-reduction order (k = max(1, n/4096) row chunks, each summed
//     into eight partials, row lo+i into partial i%8, the partials by
//     one fixed tree and the chunk sums in chunk order: a plan of n
//     alone, the same at every q), the split sweeps elementwise — so a
//     lane's bits depend on neither q,
//     the lane's position, the thread count, nor whether the AVX2
//     sweeps or the Go loops ran. With the GSPMV kernels' identical
//     per-column order this makes column j of MultiCG BITWISE what
//     CG(a, x_j, b_j, opts[j]) returns: iterate, iteration count,
//     multiply count, residual.
//   - Preconditioning. A batch has one preconditioner or none: every
//     column's Options.Precond names the same one, and a batch whose
//     columns name different ones panics. Z = M^{-1} R is one
//     ApplyBlock over the whole lane block — the lanes retired since
//     the last boundary included, since the block's columns do not mix
//     — and r.z goes through ColDots. The contract of ApplyBlock makes
//     each lane's z the lone solve's; at q = 1 it runs the
//     single-vector sweeps.
//   - Norms. A norm is the square root of the lane's chunked sum of
//     squares: ||r||^2 is the same unscaled sum r.z and p.Ap always
//     were (for an unpreconditioned column it *is* r.z, and is reused
//     as such), not a scaled 2-norm. Its range is therefore that of a
//     square: entries beyond about 1e+-154 overflow or vanish. A
//     right-hand side whose sum of squares is zero is answered x = 0;
//     one whose square overflows is a breakdown.
//   - Retirement. A column leaves at an iteration boundary — converged,
//     out of budget (MaxIter), cancelled (Ctx), broken down — in CG's
//     own order of tests. The survivors are compacted into a block
//     exactly as wide as their count, in the same storage, restrided.
//   - Breakdown. When p.Ap is not a finite number > 0, or a sum of
//     squares (of b on entry, of r after any update) is not finite,
//     the column retires at once with Stats.Err = ErrBreakdown and the
//     last iterate it formed: a NaN, an Inf, or an operator that is
//     not positive definite costs that column at most the iteration it
//     is found in, and no other column anything. A NaN in the operator
//     under a zero guess shows first in p.Ap: the column ends in its
//     first iteration with none counted and x = 0.
//
// # Invariants and failure semantics
//
//   - Operators have no error return. When the operator is a
//     fault-armed cluster, its Mul panics with a *faults.Error; the
//     solvers deliberately do not recover it, so a failed halo
//     exchange unwinds straight through the CG iteration to the core
//     step boundary, where recovery replays from the last checkpoint.
//     A solve therefore never runs to "convergence" on poisoned data.
//   - One block solve. BlockCG is the only block solver, and it does
//     not break down on a rank-deficient block. Each iteration's PᵀAP
//     and ZᵀR pass a diagonally pivoted
//     Cholesky rank test on the unit-diagonal Gram matrix; a pivot at
//     or below 1e-10 drops its direction. With nothing dropped the
//     iteration is O'Leary's, bit for bit; after a drop it is Ji and
//     Li's breakdown-free form over the r < m independent directions,
//     with X and R still m wide. BlockStats.Dropped counts the drops.
//     Running out of MaxIter returns the iterate with Converged ==
//     false and Err == nil; the caller decides (core fails the chunk).
//     A residual or Gram entry that is not finite, or a negative Gram
//     diagonal (an operator or preconditioner that is not positive
//     definite), ends the solve in the iteration it appears in with
//     Err = ErrBreakdown.
//   - A preconditioner changes the iterates, never the stopping rule:
//     every solver stops on ||r|| <= tol*||b|| for the recurrence
//     residual of the system itself, not the preconditioned one, so a
//     stale or poor factor costs iterations and cannot pass a wrong
//     answer. NewIC0 / Refactor fail with ErrICBreakdown — on a pivot
//     block that stays indefinite through the diagonal shifts, at once
//     on one that is not finite — and never hand back a NaN factor.
//   - Warm starts are pure: solvers read the initial guess from x and
//     overwrite it in place; they never consult other state, so a
//     replayed solve with the same inputs is bitwise identical (the
//     property the chaos tests assert end-to-end).
package solver
