package solver

import (
	"context"
	"errors"
	"time"

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
	// (for block solvers each multiplies a block of vectors). CG and
	// MultiCG count no entry multiply for a column whose guess is all
	// ±0: its residual is b itself (the package comment). BlockCG
	// counts none when its whole guess block is.
	MatMuls int
	// Converged reports whether the residual criterion was met.
	Converged bool
	// Residual is the final relative residual norm ||b-Ax||/||b||
	// (max over columns for block solves).
	Residual float64
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
	// Precond, if non-nil, turns CG into preconditioned CG. Every
	// column of one MultiCGWith batch names the same one (or none).
	Precond Preconditioner
	// Ctx, if non-nil, is checked once per iteration: when it is
	// canceled or its deadline has passed by the clock, the solve
	// returns early with Stats.Err = ErrCanceled and the current
	// iterate in x. This is how the batching solve server enforces
	// per-request deadlines inside long iteration loops.
	Ctx context.Context
}

// canceled reports whether the solve's context has been canceled or its
// deadline has passed. Only a timer sets Ctx.Err at the deadline, and a
// CPU-bound solve on one P does not yield to it, so the deadline is
// also read against the clock: *now is the time at this iteration
// boundary, read by the first context that asks (zero until then), so
// the lanes of a batch share one read.
func (o Options) canceled(now *time.Time) bool {
	if o.Ctx == nil {
		return false
	}
	if o.Ctx.Err() != nil {
		return true
	}
	d, ok := o.Ctx.Deadline()
	if !ok {
		return false
	}
	if now.IsZero() {
		*now = time.Now()
	}
	return !now.Before(d)
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

// Preconditioner applies Z = M^{-1} R to every column of a row-major
// block in one pass (m = 1 is a vector). Column j of ApplyBlock is
// bitwise ApplyBlock on column j alone: a fused solve sweeps its whole
// lane block through it and still gives each column its lone solve's
// bits, and BlockCG preconditions through it too.
type Preconditioner interface {
	ApplyBlock(z, r *multivec.MultiVec)
}

// CG is CGWith on a fresh workspace.
func CG(a BlockOperator, x, b []float64, opt Options) Stats { return CGWith(nil, a, x, b, opt) }

// CGWith solves A*x = b for SPD A by (preconditioned) conjugate
// gradients from the guess in x, on the workspace ws (nil: a fresh one;
// a warmed one allocates nothing). The warm start is the mechanism the
// MRHS algorithm exploits: a good guess from the augmented solve cuts
// the iteration count by 30-40% (paper Table V).
//
// CGWith is MultiCGWith's fused solve at one column (the package comment
// has the contract), so a column of a batch equals its lone solve by
// construction: its multiplies are a's at width 1. x is written when
// the solve ends.
func CGWith(ws *Workspace, a BlockOperator, x, b []float64, opt Options) (st Stats) {
	n := a.N()
	if len(x) != n || len(b) != n {
		panic("solver: CG dimension mismatch")
	}
	if ws == nil {
		ws = new(Workspace)
	}
	o := &ws.one
	o.xs[0], o.bs[0], o.opts[0], o.stats[0] = x, b, opt, Stats{}
	defer func() {
		st = o.stats[0]
		o.xs[0], o.bs[0], o.opts[0] = nil, nil, Options{} // unpin the caller's
		recordCG(&st)
	}()
	ws.solve(a, o.xs[:], o.bs[:], o.opts[:], o.stats[:])
	return st
}
