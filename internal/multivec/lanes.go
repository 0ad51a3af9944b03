package multivec

import (
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// Column-lane sweeps: the vector work of both Krylov recurrences on the
// q independent columns of n-by-q row-major blocks, one lane a column —
// conjugate gradients (solver.MultiCGWith, and at q = 1 solver.CG
// itself, where the block is the vector) and the preconditioned Lanczos
// root (chebyshev.PrecondInvSqrt: its inner products are ColDots, its
// update ColThreeTerm). The inner index is the column,
// so one sweep streams every operand once at memory speed whatever q
// is. A sweep's scalar slices are as long as its blocks are wide. The
// AVX2 kernels of multivec_amd64.s:
//
//   - q = 1: all five sweeps (ColDots, ColUpdate, ColResidual,
//     ColDirection, ColThreeTerm), the rows eight to two ymm, a
//     reduction's eight partials in them.
//   - q > 1: ColDots, ColUpdate and ColDirection, the lanes four to a
//     ymm and the last q%4 one at a time, in one pass over the rows, a
//     reduction's partials in the sweep's scratch. ColResidual, once
//     per solve, and ColThreeTerm run the Go loops.
//
// This file is also the package's one engine for pooled work: a lane
// reduction (ColDots, ColResidual, ColUpdate's sums of squares) is the
// eight-phase row-chunk sum of the package comment, and block CG's Gram
// product (GramInto) the same chunks summed in row order. The chunks
// are a function of n alone, so they run over the pool
// (DoOp) or inline with the same bits; the sweep's bytes decide which,
// by the pool's one split rule. ColDirection, ColThreeTerm, AddMul,
// SetMulAdd, Scale, PackColumns and UnpackLanes have no reduction: they
// cut their rows into the parts that rule gives their bytes
// (sweep.split), and every element is the same expression whichever
// thread computes it. Splitting the lanes
// instead — each thread a run of whole cache lines of every row —
// keeps the bits but measured slower than one thread at w = 16 and 32
// (DESIGN §12), so no sweep does.

// reduceRows is the row count a reduction's chunks hold: at or below
// it (every SD system of the benchmark, n = 3000) a reduction is one
// chunk.
const reduceRows = 4096

// reduceChunks is the number of row chunks a reduction over n rows sums
// separately.
func reduceChunks(n int) int { return max(1, n/reduceRows) }

// phases is how many partial sums a lane reduction keeps per lane in a
// chunk: row lo+i of chunk [lo, hi) adds into partial i%phases.
const phases = 8

// laneSum is the package comment's tree over the eight partials of lane
// j, partial p at a[p*q+j].
func laneSum(a []float64, q, j int) float64 {
	return ((a[j] + a[4*q+j]) + (a[2*q+j] + a[6*q+j])) + ((a[q+j] + a[5*q+j]) + (a[3*q+j] + a[7*q+j]))
}

// laneShape checks that the blocks share one n-by-q shape and returns
// n.
func laneShape(q int, blocks ...*MultiVec) (n int) {
	n = blocks[0].N
	for _, b := range blocks {
		if b.N != n || b.M != q {
			panic("multivec: column sweep over blocks of different shape")
		}
	}
	return n
}

// ColDots sets dst[j] to the inner product of column j of x with
// column j of y, for each of their len(dst) columns.
func ColDots(dst []float64, x, y *MultiVec) {
	q := len(dst)
	n := laneShape(q, x, y)
	if q == 0 {
		return
	}
	s := getSweep(n)
	s.v[0], s.v[1], s.out[0] = x, y, dst
	s.reduce("multivec_coldots", 1, phases, 2*laneBytes(x), s.dotsFn)
}

// ColResidual computes R = B - AX over the len(bb) columns and, in
// the same pass, the column sums of squares of B (into bb) and of the
// new R (into rr). r may alias b or ax.
func ColResidual(r, b, ax *MultiVec, bb, rr []float64) {
	q := len(bb)
	if len(rr) != q {
		panic("multivec: ColResidual scalar length mismatch")
	}
	n := laneShape(q, r, b, ax)
	if q == 0 {
		return
	}
	s := getSweep(n)
	s.v[0], s.v[1], s.v[2], s.out[0], s.out[1] = r, b, ax, bb, rr
	s.reduce("multivec_colresidual", 2, phases, 3*laneBytes(r), s.residualFn)
}

// ColUpdate is the CG iterate/residual update of the len(alpha)
// columns in one pass: X += P*diag(alpha), R -= AP*diag(alpha),
// and rr[j] = the sum of squares of the new column j of R.
func ColUpdate(x, r, p, ap *MultiVec, alpha, rr []float64) {
	q := len(alpha)
	if len(rr) != q {
		panic("multivec: ColUpdate scalar length mismatch")
	}
	n := laneShape(q, x, r, p, ap)
	if q == 0 {
		return
	}
	s := getSweep(n)
	s.v[0], s.v[1], s.v[2], s.v[3], s.s[0], s.out[0] = x, r, p, ap, alpha, rr
	s.reduce("multivec_colupdate", 1, phases, 6*laneBytes(x), s.updateFn)
}

// ColDirection is the CG direction update P = Z + P*diag(beta) of the
// len(beta) columns. z may be the residual block itself.
func ColDirection(p, z *MultiVec, beta []float64) {
	q := len(beta)
	n := laneShape(q, p, z)
	if q == 0 {
		return
	}
	s := getSweep(n)
	s.v[0], s.v[1], s.s[0] = p, z, beta
	s.split("multivec_coldirection", 3*laneBytes(p), s.directionFn)
}

// ColThreeTerm is the Lanczos three-term update of the len(alpha)
// columns: U = (U - Q*diag(alpha))*diag(g) - Prev*diag(h), each
// product rounded before its add or subtract. prev may be q. Its rows
// split over the pool as ColDirection's do.
func ColThreeTerm(u, q, prev *MultiVec, alpha, g, h []float64) {
	nq := len(alpha)
	if len(g) != nq || len(h) != nq {
		panic("multivec: ColThreeTerm scalar length mismatch")
	}
	n := laneShape(nq, u, q, prev)
	if nq == 0 {
		return
	}
	s := getSweep(n)
	s.v[0], s.v[1], s.v[2], s.s = u, q, prev, [3][]float64{alpha, g, h}
	s.split("multivec_colthreeterm", 4*laneBytes(u), s.threeTermFn)
}

// laneBytes is what one pass over block b streams. A sweep states it
// once per block it reads or writes.
func laneBytes(b *MultiVec) int { return 8 * len(b.Data) }

// sweep is one call of a pooled op — a lane sweep, a Gram product, a
// block update, a scale, a pack or an unpack: its operands, a
// reduction's partial sums, and each op's chunk or row function bound
// once — handing the pool a bound function instead of a fresh closure
// is what keeps a warmed split allocation-free (block CG, MultiCG and
// the Lanczos root call these every iteration). spareSweep holds one
// between calls with its partials; a call that finds it taken, a
// concurrent solve's, makes its own.
type sweep struct {
	n, k  int          // rows; a reduction's chunks, reduceChunks(n)
	v     [4]*MultiVec // block operands, in argument order
	s     [3][]float64 // scalar operands (AddMul's and SetMulAdd's matrix), in argument order
	out   [2][]float64 // a reduction's sums: ColDots' dst; bb, rr; rr; the Gram matrix
	run   int          // partials per output and chunk: phases*q, or q for Gram
	acc   []float64    // chunk c's partials: a run per output in use, from c*nout*run
	fac   float64      // Scale's factor
	cols  [][]float64  // PackColumns' sources, UnpackLanes' destinations
	lanes []int        // and the lanes UnpackLanes copies

	dotsFn, residualFn, updateFn, gramFn            func(c int)
	directionFn, threeTermFn, addMulFn, setMulAddFn func(lo, hi int)
	scaleFn, packFn, unpackFn                       func(lo, hi int)
}

var spareSweep atomic.Pointer[sweep]

func getSweep(n int) *sweep {
	s := spareSweep.Swap(nil)
	if s == nil {
		s = new(sweep)
		s.dotsFn, s.residualFn, s.updateFn, s.gramFn = s.dots, s.residual, s.update, s.gram
		s.directionFn, s.threeTermFn, s.addMulFn, s.setMulAddFn = s.direction, s.threeTerm, s.addMul, s.setMulAdd
		s.scaleFn, s.packFn, s.unpackFn = s.scale, s.pack, s.unpack
	}
	s.n, s.k = n, reduceChunks(n)
	return s
}

// reduce sums nout outputs of q columns with chunk: chunk c of k
// accumulates its rows into its own cleared partials, p per column
// (phases for a lane reduction, 1 for Gram), and each output is then
// the chunk sums — laneSum of its partials at p = phases — added in
// chunk order. The op's bytes decide only whether the k chunks run on
// the pool or inline.
func (s *sweep) reduce(op string, nout, p, bytes int, chunk func(c int)) {
	q := len(s.out[0])
	s.run = p * q
	if need := s.k * nout * s.run; cap(s.acc) < need {
		s.acc = make([]float64, need)
	} else {
		s.acc = s.acc[:need]
		clear(s.acc)
	}
	parallel.Default().DoOp(op, s.k, bytes, chunk)
	for i, dst := range s.out[:nout] {
		clear(dst)
		for c := range s.k {
			a := s.acc[(c*nout+i)*s.run:][:s.run]
			if p == 1 {
				for j, v := range a {
					dst[j] += v
				}
				continue
			}
			for j := range dst {
				dst[j] += laneSum(a, q, j)
			}
		}
	}
	s.release()
}

// split runs rows over the n rows, cut into the pool's Parts of the
// op's bytes.
func (s *sweep) split(op string, bytes int, rows func(lo, hi int)) {
	parallel.Default().ForOp(op, s.n, bytes, rows)
	s.release()
}

// release drops the operands — a spare must not pin a solve's blocks —
// and offers s as the spare.
func (s *sweep) release() {
	s.v, s.s, s.out = [4]*MultiVec{}, [3][]float64{}, [2][]float64{}
	s.cols, s.lanes = nil, nil
	spareSweep.Store(s)
}

// rows returns chunk c's row range and its partials, one run per
// output.
func (s *sweep) rows(c int) (lo, hi int, acc []float64) {
	lo, hi = parallel.ChunkBounds(s.n, s.k, c)
	stride := len(s.acc) / s.k
	return lo, hi, s.acc[c*stride : (c+1)*stride]
}

func (s *sweep) dots(c int) {
	lo, hi, acc := s.rows(c)
	colDotsRows(acc, s.v[0], s.v[1], lo, hi)
}

func (s *sweep) residual(c int) {
	lo, hi, acc := s.rows(c)
	colResidualRows(s.v[0], s.v[1], s.v[2], acc[:s.run], acc[s.run:], lo, hi)
}

func (s *sweep) update(c int) {
	lo, hi, acc := s.rows(c)
	colUpdateRows(s.v[0], s.v[1], s.v[2], s.v[3], s.s[0], acc, lo, hi)
}

func (s *sweep) gram(c int) {
	lo, hi, acc := s.rows(c)
	gramRange(acc, s.v[0], s.v[1], lo, hi)
}

func (s *sweep) direction(lo, hi int) { colDirectionRows(s.v[0], s.v[1], s.s[0], lo, hi) }

func (s *sweep) threeTerm(lo, hi int) {
	colThreeTermRows(s.v[0], s.v[1], s.v[2], s.s[0], s.s[1], s.s[2], lo, hi)
}

func (s *sweep) addMul(lo, hi int) { addMulRange(s.v[0], s.v[1], s.s[0], lo, hi) }

func (s *sweep) setMulAdd(lo, hi int) { setMulAddRange(s.v[0], s.v[1], s.v[2], s.s[0], lo, hi) }

func (s *sweep) scale(lo, hi int) {
	w := s.v[0].M
	blas.Scal(s.fac, s.v[0].Data[lo*w:hi*w])
}

func (s *sweep) pack(lo, hi int) { packRows(s.v[0], s.cols, lo, hi) }

func (s *sweep) unpack(lo, hi int) { unpackRows(s.cols, s.v[0], s.lanes, lo, hi) }

// UnpackLanes copies column lanes[k] of src into cols[k], in one pass
// over src whose rows split over the pool.
func UnpackLanes(cols [][]float64, src *MultiVec, lanes []int) {
	if len(cols) != len(lanes) {
		panic("multivec: UnpackLanes count mismatch")
	}
	for k, c := range cols {
		if len(c) != src.N || lanes[k] < 0 || lanes[k] >= src.M {
			panic("multivec: UnpackLanes column mismatch")
		}
	}
	if src.M == 1 && len(cols) == 1 {
		copy(cols[0], src.Data)
		return
	}
	s := getSweep(src.N)
	s.v[0], s.cols, s.lanes = src, cols, lanes
	s.split("multivec_unpack", 8*src.N*(src.M+len(cols)), s.unpackFn)
}

// The reductions' Go loops below are the oracle of the package
// comment's order: row lo+i of [lo, hi) adds into partial i%phases of
// its lane, acc[(i%phases)*w+j] for lane j, so every lane of a w-wide
// block sums in the order of the same rows at w = 1.

// colDotsRows adds rows [lo, hi) of the lane inner products into the
// partials acc.
func colDotsRows(acc []float64, x, y *MultiVec, lo, hi int) {
	if simd && lo < hi {
		colDotsSIMD(acc, x, y, lo, hi)
		return
	}
	w := x.M
	if w == 1 {
		a, yd := acc[:phases:phases], y.Data[lo:hi]
		for i, v := range x.Data[lo:hi] {
			a[i%phases] += float64(v * yd[i])
		}
		return
	}
	for i, ph := lo, 0; i < hi; i, ph = i+1, nextPhase(ph, w) {
		xr := x.Data[i*w : i*w+w : i*w+w]
		yr := y.Data[i*w : i*w+w : i*w+w]
		a := acc[ph : ph+w : ph+w]
		for j, v := range xr {
			a[j] += float64(v * yr[j])
		}
	}
}

// nextPhase returns the offset of the partials the row after one at
// offset ph adds into, for w lanes: the next run of w, after the last
// the first.
func nextPhase(ph, w int) int {
	if ph += w; ph == phases*w {
		return 0
	}
	return ph
}

// colResidualRows is ColResidual on rows [lo, hi), adding into the
// partials sb and sr.
func colResidualRows(r, b, ax *MultiVec, sb, sr []float64, lo, hi int) {
	w := r.M
	if simd && w == 1 && lo < hi {
		colResidualSIMD(r, b, ax, sb, sr, lo, hi)
		return
	}
	if w == 1 {
		pb, pr := sb[:phases:phases], sr[:phases:phases]
		rd, ad := r.Data[lo:hi], ax.Data[lo:hi]
		for i, bv := range b.Data[lo:hi] {
			v := bv - ad[i]
			rd[i] = v
			pb[i%phases] += float64(bv * bv)
			pr[i%phases] += float64(v * v)
		}
		return
	}
	for i, ph := lo, 0; i < hi; i, ph = i+1, nextPhase(ph, w) {
		br := b.Data[i*w : i*w+w : i*w+w]
		ar := ax.Data[i*w : i*w+w : i*w+w]
		rw := r.Data[i*w : i*w+w : i*w+w]
		pb, pr := sb[ph:ph+w:ph+w], sr[ph:ph+w:ph+w]
		for j, bv := range br {
			v := bv - ar[j]
			rw[j] = v
			pb[j] += float64(bv * bv)
			pr[j] += float64(v * v)
		}
	}
}

// colUpdateRows is ColUpdate on rows [lo, hi), adding into the
// partials rr.
func colUpdateRows(x, r, p, ap *MultiVec, alpha, rr []float64, lo, hi int) {
	if simd && lo < hi {
		colUpdateSIMD(x, r, p, ap, alpha, rr, lo, hi)
		return
	}
	w := x.M
	if w == 1 {
		a, s := alpha[0], rr[:phases:phases]
		xd, rd, apd := x.Data[lo:hi], r.Data[lo:hi], ap.Data[lo:hi]
		for i, pv := range p.Data[lo:hi] {
			xd[i] += float64(pv * a)
			v := rd[i] - float64(apd[i]*a)
			rd[i] = v
			s[i%phases] += float64(v * v)
		}
		return
	}
	for i, ph := lo, 0; i < hi; i, ph = i+1, nextPhase(ph, w) {
		xr := x.Data[i*w : i*w+w : i*w+w]
		rw := r.Data[i*w : i*w+w : i*w+w]
		pr := p.Data[i*w : i*w+w : i*w+w]
		ar := ap.Data[i*w : i*w+w : i*w+w]
		al, s := alpha[:len(xr)], rr[ph:ph+w:ph+w]
		for j, a := range al {
			xr[j] += float64(pr[j] * a)
			v := rw[j] - float64(ar[j]*a)
			rw[j] = v
			s[j] += float64(v * v)
		}
	}
}

// colDirectionRows is ColDirection on rows [lo, hi).
func colDirectionRows(p, z *MultiVec, beta []float64, lo, hi int) {
	if simd && lo < hi {
		colDirectionSIMD(p, z, beta, lo, hi)
		return
	}
	w := p.M
	if w == 1 {
		b, pd := beta[0], p.Data[lo:hi]
		for i, zv := range z.Data[lo:hi] {
			pd[i] = zv + float64(pd[i]*b)
		}
		return
	}
	for i := lo; i < hi; i++ {
		pr := p.Data[i*w : i*w+w : i*w+w]
		zr := z.Data[i*w : i*w+w : i*w+w]
		be := beta[:len(pr)]
		for j, b := range be {
			pr[j] = zr[j] + float64(pr[j]*b)
		}
	}
}

// colThreeTermRows is ColThreeTerm on rows [lo, hi). The lanes go four
// at a time, each group's scalars held in registers over the rows, and
// the last w%4 one at a time: a row-major pass that reloads every
// lane's three scalars per element measured 1.4x slower at w = 16.
func colThreeTermRows(u, q, prev *MultiVec, alpha, g, h []float64, lo, hi int) {
	w := u.M
	if lo >= hi {
		return
	}
	if simd && w == 1 {
		colThreeTermSIMD(u, q, prev, alpha[0], g[0], h[0], lo, hi)
		return
	}
	ud := u.Data[:hi*w]
	qd, pd := q.Data[:len(ud)], prev.Data[:len(ud)]
	j := 0
	for ; j+4 <= w; j += 4 {
		a0, a1, a2, a3 := alpha[j], alpha[j+1], alpha[j+2], alpha[j+3]
		g0, g1, g2, g3 := g[j], g[j+1], g[j+2], g[j+3]
		h0, h1, h2, h3 := h[j], h[j+1], h[j+2], h[j+3]
		for e := lo*w + j; e < len(ud); e += w {
			x, y, z := ud[e:e+4:e+4], qd[e:e+4:e+4], pd[e:e+4:e+4]
			x[0] = float64((x[0]-float64(a0*y[0]))*g0) - float64(h0*z[0])
			x[1] = float64((x[1]-float64(a1*y[1]))*g1) - float64(h1*z[1])
			x[2] = float64((x[2]-float64(a2*y[2]))*g2) - float64(h2*z[2])
			x[3] = float64((x[3]-float64(a3*y[3]))*g3) - float64(h3*z[3])
		}
	}
	for ; j < w; j++ {
		a, gg, hh := alpha[j], g[j], h[j]
		for e := lo*w + j; e < len(ud); e += w {
			ud[e] = float64((ud[e]-float64(a*qd[e]))*gg) - float64(hh*pd[e])
		}
	}
}

// unpackRows is UnpackLanes on rows [lo, hi).
func unpackRows(cols [][]float64, src *MultiVec, lanes []int, lo, hi int) {
	m := src.M
	for i := lo; i < hi; i++ {
		row := src.Data[i*m : i*m+m]
		for k, l := range lanes {
			cols[k][i] = row[l]
		}
	}
}

// CompactColumns keeps the columns listed in keep (ascending) and
// makes v the n-by-len(keep) block of them, laid out in the same
// storage. Each element moves to an address no higher than its own and
// rows are taken in order, so nothing is overwritten before it is read.
func (v *MultiVec) CompactColumns(keep []int) {
	q, w0 := len(keep), v.M
	for d, s := range keep {
		if s < d || s >= w0 || (d > 0 && s <= keep[d-1]) {
			panic("multivec: CompactColumns wants ascending in-range columns")
		}
	}
	data := v.Data
	for i := 0; i < v.N; i++ {
		src := data[i*w0 : i*w0+w0]
		dst := data[i*q : i*q+q]
		for d, s := range keep {
			dst[d] = src[s]
		}
	}
	v.M, v.Data = q, data[:v.N*q]
}
