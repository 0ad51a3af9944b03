package solver

import (
	"math"
	"slices"
	"time"

	"repro/internal/blas"
	"repro/internal/multivec"
)

// Workspace owns every temporary of the package's solves — a fused
// solve's blocks and per-column scalars, CGWith's batch of one, BlockCG's
// block storage — grown on first use and kept, so a long-lived caller (a
// stepper, the server's dispatcher) allocates them once. Every buffer is
// overwritten before it is read. A zero Workspace is ready, and a nil one
// means a fresh one for the call. It serves one solve at a time.
type Workspace struct {
	// MulSeconds is the wall time of the last CGWith or MultiCGWith solve
	// inside the operator's multiplies, VecSeconds the rest of it.
	MulSeconds, VecSeconds float64

	x, r, p, ap, z multivec.MultiVec
	pre            Preconditioner // the batch's, shared by every column; Z is in use when set

	lanes   []lane
	scalars []float64 // pap/bb, alpha, rr, beta: q each
	zero    []bool    // column j's guess is all ±0

	keep, outLanes []int
	outCols        [][]float64

	one struct { // CGWith's batch of one
		xs, bs [1][]float64
		opts   [1]Options
		stats  [1]Stats
	}
	block blockWork
}

// lane is the scalar state of one column of a fused solve. Lane j of
// the workspace's blocks belongs to lanes[j].
type lane struct {
	id               int // original column index: the lane's xs column
	opt              Options
	st               *Stats
	rz, bnorm, rnorm float64
	// A retired lane leaves the blocks at the next iteration boundary;
	// copyOut says its iterate is still to be copied out of X then.
	retired, copyOut bool
}

// MultiCGWith solves the q independent systems A*x_j = b_j by running one
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
// per-request cancellation context). The preconditioner is the batch's:
// every opts[j].Precond must be the same one (or nil for all), and a
// batch whose columns name different ones panics, as a dimension
// mismatch does. xs[j] supplies the initial guess and receives the
// solution.
//
// ws holds every temporary (nil: a fresh one); its history moves no bit.
func MultiCGWith(ws *Workspace, a BlockOperator, xs, bs [][]float64, opts []Options) []Stats {
	n := a.N()
	q := len(xs)
	if len(bs) != q || len(opts) != q {
		panic("solver: MultiCG slice count mismatch")
	}
	for j := 0; j < q; j++ {
		if len(xs[j]) != n || len(bs[j]) != n {
			panic("solver: MultiCG dimension mismatch")
		}
		if opts[j].Precond != opts[0].Precond {
			panic("solver: MultiCG columns name different preconditioners")
		}
	}
	stats := make([]Stats, q)
	if q == 0 {
		return stats
	}
	if ws == nil {
		ws = new(Workspace)
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

// solve is the one CG in the package: CGWith runs it at q = 1,
// MultiCGWith at any q. The package comment states the
// contract; the comments below only say which rule a step implements.
func (ws *Workspace) solve(a BlockOperator, xs, bs [][]float64, opts []Options, stats []Stats) {
	start := time.Now()
	ws.MulSeconds = 0
	defer func() {
		ws.VecSeconds = time.Since(start).Seconds() - ws.MulSeconds
		// Drop the request contexts, preconditioner and stats the lanes
		// point at: a retained workspace must not pin them.
		clear(ws.lanes[:cap(ws.lanes)])
		ws.pre = nil
	}()

	n, q := a.N(), len(xs)
	x, r, p, ap, z := &ws.x, &ws.r, &ws.p, &ws.ap, &ws.z
	for _, b := range []*multivec.MultiVec{x, r, p, ap} {
		b.Reshape(n, q)
	}
	if cap(ws.scalars) < 4*q {
		ws.scalars = make([]float64, 4*q)
	}
	pap, alpha, rr, beta := ws.scalars[0:q], ws.scalars[q:2*q], ws.scalars[2*q:3*q], ws.scalars[3*q:4*q]

	lanes := ws.lanes[:0]
	for j := 0; j < q; j++ {
		lanes = append(lanes, lane{id: j, opt: opts[j].withDefaults(n), st: &stats[j]})
	}
	ws.lanes = lanes
	ws.pre = opts[0].Precond

	// R = B - A*X and both norms, for every column at once. A column
	// whose guess is all ±0 has R = B and no multiply in its count; when
	// every guess is, the multiply is not run. (The package comment,
	// "Zero guesses".)
	if cap(ws.zero) < q {
		ws.zero = make([]bool, q)
	}
	zero := ws.zero[:q]
	for j, xj := range xs {
		zero[j] = !slices.ContainsFunc(xj, func(v float64) bool { return v != 0 })
	}
	multivec.PackColumns(x, xs)
	multivec.PackColumns(r, bs)
	bb := pap // free until the first iteration
	if slices.Contains(zero, false) {
		ws.mul(a, ap, x)
		for j, z := range zero {
			if z { // A*0 is +0, whatever a non-finite operator gave there
				for i := j; i < len(ap.Data); i += q {
					ap.Data[i] = 0
				}
			}
		}
		multivec.ColResidual(r, r, ap, bb, rr)
	} else {
		multivec.ColDots(bb, r, r)
		copy(rr, bb)
	}
	live := 0
	for j := range lanes {
		l := &lanes[j]
		if !zero[j] {
			l.st.MatMuls = 1
		}
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
	zsrc := r // z aliases r when the batch is not preconditioned
	if ws.pre != nil {
		z.Reshape(n, q)
		zsrc = z
		ws.precondition(rr)
		for j := range lanes {
			lanes[j].rz = rr[j]
		}
	}
	p.CopyFrom(zsrc)

	for {
		// Budget and cancellation, in CG's order: the iteration-count
		// test guards the loop, the context test opens the body.
		var now time.Time
		for j := range lanes {
			l := &lanes[j]
			switch {
			case l.retired:
			case l.st.Iterations >= l.opt.MaxIter:
				l.retire(true)
			case l.opt.canceled(&now):
				l.st.Err = ErrCanceled
				l.retire(true)
			}
		}
		if ws.flush(xs) == 0 {
			return
		}
		lanes = ws.lanes
		q = len(lanes)

		ws.mul(a, ap, p)
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
		if ws.pre != nil {
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
func (ws *Workspace) mul(a BlockOperator, y, x *multivec.MultiVec) {
	t0 := time.Now()
	a.Mul(y, x)
	ws.MulSeconds += time.Since(t0).Seconds()
}

// precondition sets Z = M^{-1} R over the whole lane block — one
// ApplyBlock, which runs the single-vector sweeps at width 1 — and
// rz[j] to lane j's r_j.z_j. The lanes retired since the last boundary are swept with
// the rest: ApplyBlock's columns are independent, so no lane's bits
// depend on another's.
func (ws *Workspace) precondition(rz []float64) {
	ws.pre.ApplyBlock(&ws.z, &ws.r)
	multivec.ColDots(rz, &ws.r, &ws.z)
}

// flush is the iteration boundary: the iterates of the lanes retired
// since the last one are copied out of X in one pass, and the
// survivors are compacted into a block exactly as wide as their count,
// in the same storage. It returns the number of surviving lanes.
func (ws *Workspace) flush(xs [][]float64) int {
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
	for _, b := range []*multivec.MultiVec{&ws.x, &ws.r, &ws.p} {
		b.CompactColumns(keep)
	}
	// AP and Z are rewritten in full before their next use.
	ws.ap.Reshape(ws.x.N, len(keep))
	if ws.pre != nil {
		ws.z.Reshape(ws.x.N, len(keep))
	}
	for d, s := range keep {
		ws.lanes[d] = ws.lanes[s]
	}
	clear(ws.lanes[len(keep):])
	ws.lanes = ws.lanes[:len(keep)]
	return len(keep)
}
