package solver

import (
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// KernelSizes lists the vector counts with specialized fully-unrolled
// GSPMV kernels (internal/bcrs). The batching solve server rounds
// batch widths up to these sizes; MultiCG pads its fused multiplies
// the same way.
var KernelSizes = [...]int{1, 2, 4, 8, 16, 32}

// KernelCeil returns the smallest specialized-kernel vector count that
// is >= q, or q itself when q exceeds the largest specialized kernel
// (the generic kernel handles it).
func KernelCeil(q int) int {
	for _, k := range KernelSizes {
		if k >= q {
			return k
		}
	}
	return q
}

// MultiCG solves the q independent systems A*x_j = b_j by running one
// standard (preconditioned) CG recurrence per column while fusing the
// matrix multiplies of all still-active columns into a single GSPMV
// per iteration — the multiple-right-hand-side economics of the paper
// applied to *independent* solves, after Krasnopolsky's ensemble
// fusion (arXiv:1711.10622).
//
// Unlike BlockCG, the columns share nothing but the matrix traffic:
// each keeps its own scalar alpha/beta recurrence, converges against
// its own tolerance and iteration budget, and leaves the fused
// multiply as soon as it is done. The state of all columns lives
// interleaved, in the multiply's own layout, for the whole solve (the
// package comment has the contract), and CG is this same solve at
// q = 1, so each column's iterate is BITWISE-IDENTICAL to what
// CG(a, x_j, b_j, opts[j]) alone would produce — the property the
// serving layer's batched-vs-unbatched equivalence test pins down.
//
// opts[j] applies to column j (tolerance, iteration budget,
// preconditioner, per-request cancellation context). xs[j] supplies
// the initial guess and receives the solution.
func MultiCG(a BlockOperator, xs, bs [][]float64, opts []Options) []Stats {
	return MultiCGWith(nil, a, xs, bs, opts)
}

// MultiCGWorkspace owns the state of a fused solve — the interleaved
// blocks X, R, P, AP (and Z when a column is preconditioned) and the
// per-column scalars — so a long-lived caller (the batching server's
// dispatcher, the ensemble runner) allocates it once instead of per
// solve. A workspace serves one solve at a time; it is not safe for
// concurrent use.
type MultiCGWorkspace struct {
	// MulSeconds is the wall time the most recent solve spent inside
	// the operator's multiplies and VecSeconds the rest of it: packing,
	// the column sweeps, preconditioning, retirement.
	MulSeconds, VecSeconds float64

	x, r, p, ap, z multivec.MultiVec
	precond        bool      // some column has a preconditioner: Z is in use
	zin, zout      []float64 // one column, contiguous, for Preconditioner.Apply

	lanes   []lane
	ids     []int
	scalars []float64 // pap/bb, alpha, rr, beta: one kernel width each

	keep, outLanes []int
	outCols        [][]float64
}

// lane is the scalar state of one column of a fused solve. Lane j of
// the workspace's blocks belongs to lanes[j].
type lane struct {
	id               int // original column index (ColumnOperator identity)
	opt              Options
	st               *Stats
	rz, bnorm, rnorm float64
	// A retired lane leaves the blocks at the next iteration boundary;
	// copyOut says its iterate is still to be copied out of X then.
	retired, copyOut bool
}

// NewMultiCGWorkspace returns an empty workspace; buffers are grown on
// first use and retained across calls.
func NewMultiCGWorkspace() *MultiCGWorkspace {
	return &MultiCGWorkspace{}
}

// MultiCGWith is MultiCG solving through caller-owned scratch: ws,
// when non-nil, supplies every temporary the solve needs (a nil ws
// borrows one from the pool lone CG solves draw on). Results are
// bitwise-identical with or without a workspace.
func MultiCGWith(ws *MultiCGWorkspace, a BlockOperator, xs, bs [][]float64, opts []Options) []Stats {
	n := a.N()
	q := len(xs)
	if len(bs) != q || len(opts) != q {
		panic("solver: MultiCG slice count mismatch")
	}
	for j := 0; j < q; j++ {
		if len(xs[j]) != n || len(bs[j]) != n {
			panic("solver: MultiCG dimension mismatch")
		}
	}
	stats := make([]Stats, q)
	if q == 0 {
		return stats
	}
	if ws == nil {
		ws = cgWork.Get().(*MultiCGWorkspace)
		defer cgWork.Put(ws)
	}
	defer recordMultiCG(stats, ws)
	ws.solve(a, xs, bs, opts, stats)
	return stats
}

// finite reports whether v is neither an infinity nor a NaN.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// retire ends a lane's solve. Each lane retires exactly once; its
// request trace (if the serve layer attached one through Options.Ctx)
// receives the column's own iteration count, not the batch's.
func (l *lane) retire(copyOut bool) {
	if l.bnorm != 0 { // a zero right-hand side has no relative residual; a NaN one has NaN
		l.st.Residual = l.rnorm / l.bnorm
	}
	traceSolve(l.opt, l.st)
	l.retired, l.copyOut = true, copyOut
}

// solve is the one CG in the package: CG runs it at q = 1 through a
// vecOperator, MultiCGWith at any q. The package comment states the
// contract; the comments below only say which rule a step implements.
func (ws *MultiCGWorkspace) solve(a BlockOperator, xs, bs [][]float64, opts []Options, stats []Stats) {
	start := time.Now()
	ws.MulSeconds = 0
	defer func() {
		ws.VecSeconds = time.Since(start).Seconds() - ws.MulSeconds
		// Drop the request contexts, preconditioners and stats the lanes
		// point at: a retained workspace must not pin them.
		clear(ws.lanes[:cap(ws.lanes)])
	}()

	n, q := a.N(), len(xs)
	w := KernelCeil(q)
	x, r, p, ap, z := &ws.x, &ws.r, &ws.p, &ws.ap, &ws.z
	for _, b := range []*multivec.MultiVec{x, r, p, ap} {
		b.Reshape(n, w)
	}
	if cap(ws.scalars) < 4*w {
		ws.scalars = make([]float64, 4*w)
	}
	pap, alpha, rr, beta := ws.scalars[0:w], ws.scalars[w:2*w], ws.scalars[2*w:3*w], ws.scalars[3*w:4*w]

	lanes, ids := ws.lanes[:0], ws.ids[:0]
	ws.precond = false
	for j := 0; j < q; j++ {
		lanes = append(lanes, lane{id: j, opt: opts[j].withDefaults(n), st: &stats[j]})
		ids = append(ids, j)
		ws.precond = ws.precond || opts[j].Precond != nil
	}
	ws.lanes, ws.ids = lanes, ids

	// R = B - A*X and both norms, for every column at once.
	multivec.PackColumns(x, xs)
	ws.mul(a, ap, x, ids)
	multivec.PackColumns(r, bs)
	bb := pap // free until the first iteration
	multivec.ColResidual(r, r, ap, bb[:q], rr[:q])
	live := 0
	for j := range lanes {
		l := &lanes[j]
		l.st.MatMuls = 1
		if bb[j] == 0 {
			// Solution of A*x = 0 is x = 0.
			blas.Fill(xs[j], 0)
			l.st.Converged = true
			l.retire(false)
			continue
		}
		l.bnorm, l.rnorm = math.Sqrt(bb[j]), math.Sqrt(rr[j])
		switch {
		case !finite(bb[j]) || !finite(rr[j]):
			l.st.Err = ErrBreakdown
			l.retire(false)
		case l.rnorm <= l.opt.Tol*l.bnorm:
			l.st.Converged = true
			l.retire(false) // the guess in xs[j] is the answer
		default:
			l.rz = rr[j]
			live++
		}
	}
	if live == 0 {
		return
	}
	zsrc := r // z aliases r when no column is preconditioned
	if ws.precond {
		z.Reshape(n, w)
		clear(z.Data)
		if len(ws.zin) != n {
			ws.zin, ws.zout = make([]float64, n), make([]float64, n)
		}
		zsrc = z
		ws.precondition(rr[:q])
		for j := range lanes {
			lanes[j].rz = rr[j]
		}
	}
	p.CopyFrom(zsrc)

	for {
		// Budget and cancellation, in CG's order: the iteration-count
		// test guards the loop, the context test opens the body.
		for j := range lanes {
			l := &lanes[j]
			switch {
			case l.retired:
			case l.st.Iterations >= l.opt.MaxIter:
				l.retire(true)
			case l.opt.canceled():
				l.st.Err = ErrCanceled
				l.retire(true)
			}
		}
		if ws.flush(xs) == 0 {
			return
		}
		lanes, ids = ws.lanes, ws.ids
		q = len(lanes)

		ws.mul(a, ap, p, ids)
		multivec.ColDots(pap[:q], p, ap)
		for j := range lanes {
			l := &lanes[j]
			l.st.MatMuls++
			if pap[j] > 0 && finite(pap[j]) {
				alpha[j] = l.rz / pap[j]
				continue
			}
			// Breakdown before the update: the iterate stands as it is.
			alpha[j] = 0
			l.st.Err = ErrBreakdown
			x.Col(j, xs[l.id])
			l.retire(false)
		}
		multivec.ColUpdate(x, r, p, ap, alpha[:q], rr[:q])
		live = 0
		for j := range lanes {
			l := &lanes[j]
			if l.retired {
				continue
			}
			l.st.Iterations++
			l.rnorm = math.Sqrt(rr[j])
			if l.opt.TrackResiduals {
				l.st.Residuals = append(l.st.Residuals, l.rnorm/l.bnorm)
			}
			switch {
			case !finite(rr[j]):
				l.st.Err = ErrBreakdown
				l.retire(true)
			case l.rnorm <= l.opt.Tol*l.bnorm:
				l.st.Converged = true
				l.retire(true)
			default:
				live++
			}
		}
		if live == 0 {
			continue // to the boundary, which copies the iterates out
		}
		if ws.precond {
			ws.precondition(rr[:q])
		}
		for j := range lanes {
			l := &lanes[j]
			beta[j] = 0
			if !l.retired {
				beta[j] = rr[j] / l.rz
				l.rz = rr[j]
			}
		}
		multivec.ColDirection(p, zsrc, beta[:q])
	}
}

// mul is one fused multiply, timed.
func (ws *MultiCGWorkspace) mul(a BlockOperator, y, x *multivec.MultiVec, ids []int) {
	t0 := time.Now()
	mulColumns(a, y, x, ids)
	ws.MulSeconds += time.Since(t0).Seconds()
}

// precondition sets column j of Z to M_j^{-1} times column j of R for
// every live lane (a copy of it for a lane without a preconditioner)
// and rz[j] to their inner product r_j.z_j.
func (ws *MultiCGWorkspace) precondition(rz []float64) {
	for j := range ws.lanes {
		l := &ws.lanes[j]
		if l.retired {
			continue
		}
		if ws.r.M == 1 && l.opt.Precond != nil {
			// The block is the column: no copy out and back.
			l.opt.Precond.Apply(ws.z.Data, ws.r.Data)
			continue
		}
		ws.r.Col(j, ws.zin)
		out := ws.zin
		if l.opt.Precond != nil {
			out = ws.zout
			l.opt.Precond.Apply(out, ws.zin)
		}
		ws.z.SetCol(j, out)
	}
	multivec.ColDots(rz, &ws.r, &ws.z)
}

// flush is the iteration boundary: the iterates of the lanes retired
// since the last one are copied out of X in one pass, and the
// survivors are compacted to the leading lanes — within the same
// kernel width, or into the narrower one when KernelCeil of their
// count drops — with zero padding after them. It returns the number of
// surviving lanes.
func (ws *MultiCGWorkspace) flush(xs [][]float64) int {
	keep, outLanes, outCols := ws.keep[:0], ws.outLanes[:0], ws.outCols[:0]
	for j := range ws.lanes {
		switch l := &ws.lanes[j]; {
		case !l.retired:
			keep = append(keep, j)
		case l.copyOut:
			outLanes = append(outLanes, j)
			outCols = append(outCols, xs[l.id])
		}
	}
	if len(outCols) > 0 {
		multivec.UnpackLanes(outCols, &ws.x, outLanes)
		clear(outCols)
	}
	ws.keep, ws.outLanes, ws.outCols = keep, outLanes, outCols
	if len(keep) == len(ws.lanes) || len(keep) == 0 {
		return len(keep)
	}
	w := KernelCeil(len(keep))
	for _, b := range []*multivec.MultiVec{&ws.x, &ws.r, &ws.p} {
		b.CompactColumns(keep, w)
	}
	// AP and Z are rewritten in full before their next use.
	ws.ap.Reshape(ws.x.N, w)
	if ws.precond {
		ws.z.Reshape(ws.x.N, w)
	}
	for d, s := range keep {
		ws.lanes[d] = ws.lanes[s]
		ws.ids[d] = ws.lanes[d].id
	}
	clear(ws.lanes[len(keep):])
	ws.lanes, ws.ids = ws.lanes[:len(keep)], ws.ids[:len(keep)]
	return len(keep)
}
