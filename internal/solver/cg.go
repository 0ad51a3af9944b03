package solver

import (
	"context"
	"errors"

	"sync"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
)

// ErrCanceled is reported in Stats.Err when a solve stops early
// because Options.Ctx was canceled or its deadline expired. The
// iterate holds the last completed iteration's state; the solve does
// not panic or discard progress.
var ErrCanceled = errors.New("solver: solve canceled")

// ErrBreakdown is reported in Stats.Err when a CG recurrence cannot
// continue: p.Ap is not a finite positive number (the operator is not
// positive definite along p) or a squared norm of b or r is not finite
// (NaN or Inf in the data, or overflow). The solve stops at once with
// the last iterate it formed in x; running to MaxIter on NaN state
// would hold a fused batch's other columns hostage.
var ErrBreakdown = errors.New("solver: CG breakdown: operator not positive definite or data not finite")

// Stats reports the outcome of an iterative solve.
type Stats struct {
	// Iterations is the number of iterations performed.
	Iterations int
	// MatMuls is the number of matrix multiplications performed
	// (for block solvers each multiplies a block of vectors).
	MatMuls int
	// Converged reports whether the residual criterion was met.
	Converged bool
	// Residual is the final relative residual norm ||b-Ax||/||b||
	// (max over columns for block solves).
	Residual float64
	// Residuals holds the relative residual after each iteration
	// when Options.TrackResiduals is set (convergence curves). Block
	// solves instead store one entry per right-hand side: the final
	// relative residual of each column.
	Residuals []float64
	// Err is ErrCanceled when the solve was stopped by Options.Ctx and
	// ErrBreakdown when the recurrence broke down; nil otherwise
	// (running out of iterations is not an error, it is reported
	// through Converged).
	Err error
}

// Options controls the iterative solvers.
type Options struct {
	// Tol is the relative residual tolerance; the paper stops when
	// ||r|| <= 1e-6 * ||b|| (Section V-B1). Defaults to 1e-6.
	Tol float64
	// MaxIter bounds the iterations. Defaults to 10*n.
	MaxIter int
	// Precond, if non-nil, turns CG into preconditioned CG.
	Precond Preconditioner
	// TrackResiduals records the per-iteration relative residual in
	// Stats.Residuals (single-vector CG only).
	TrackResiduals bool
	// Ctx, if non-nil, is checked once per iteration: when it is
	// canceled or past its deadline the solve returns early with
	// Stats.Err = ErrCanceled and the current iterate in x. This is
	// how the batching solve server enforces per-request deadlines
	// inside long iteration loops.
	Ctx context.Context
}

// canceled reports whether the solve's context has been canceled.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) withDefaults(n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
	}
	return o
}

// Preconditioner applies z = M^{-1} r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// blockPreconditioner is what BlockCG looks for in a Preconditioner:
// M^{-1} applied to every column of a block in one pass, column j
// bitwise equal to Apply on column j.
type blockPreconditioner interface {
	ApplyBlock(z, r *multivec.MultiVec)
}

// CG solves A*x = b for SPD A by (preconditioned) conjugate
// gradients, starting from the initial guess already stored in x.
// The warm start is the mechanism the MRHS algorithm exploits: a good
// guess from the augmented solve cuts the iteration count by 30-40%
// (paper Table V).
//
// CG is the fused solve of MultiCG at one column (the package comment
// has the contract), so a column of a batch equals the lone solve of
// it by construction. x is written when the solve ends, not during it.
func CG(a Operator, x, b []float64, opt Options) Stats {
	n := a.N()
	if len(x) != n || len(b) != n {
		panic("solver: CG dimension mismatch")
	}
	ws := cgWork.Get().(*MultiCGWorkspace)
	defer cgWork.Put(ws)
	stats := make([]Stats, 1)
	defer recordCG(&stats[0])
	ws.solve(vecOperator{a}, [][]float64{x}, [][]float64{b}, []Options{opt}, stats)
	return stats[0]
}

// cgWork pools the workspaces of solves whose caller brought none:
// every CG, and MultiCGWith(nil, ...).
var cgWork = sync.Pool{New: func() any { return NewMultiCGWorkspace() }}

// vecOperator presents a single-vector Operator as the n-by-1 block
// operator the fused solve multiplies through.
type vecOperator struct{ Operator }

func (v vecOperator) Mul(y, x *multivec.MultiVec) { v.MulVec(y.Data, x.Data) }

// BlockJacobi is a 3x3 block-diagonal preconditioner: each diagonal
// block of the matrix is inverted once at construction.
type BlockJacobi struct {
	inv []blas.Mat3
}

// NewBlockJacobi builds the preconditioner from the matrix's diagonal
// blocks. Singular diagonal blocks fall back to the identity.
func NewBlockJacobi(a *bcrs.Matrix) *BlockJacobi {
	d := a.DiagBlocks()
	inv := make([]blas.Mat3, len(d))
	for i, blk := range d {
		if m, ok := blk.Inv3(); ok {
			inv[i] = m
		} else {
			inv[i] = blas.Ident3()
		}
	}
	return &BlockJacobi{inv: inv}
}

// Apply computes z = M^{-1} r blockwise.
func (bj *BlockJacobi) Apply(z, r []float64) {
	if len(z) != 3*len(bj.inv) || len(r) != len(z) {
		panic("solver: BlockJacobi dimension mismatch")
	}
	for i, m := range bj.inv {
		v := m.MulV(blas.Vec3{r[3*i], r[3*i+1], r[3*i+2]})
		z[3*i], z[3*i+1], z[3*i+2] = v[0], v[1], v[2]
	}
}
