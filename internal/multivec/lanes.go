package multivec

// Column-lane sweeps: the vector work of conjugate gradients on q
// independent columns held in the leading lanes of n-by-w row-major
// blocks (solver.MultiCG), and at w = 1 of solver.CG itself, where the
// block is the vector. The inner index is the column, so one sweep
// streams every operand once at memory speed whatever q is; the lanes
// at and beyond q are kernel padding and are neither read nor written.
// Every sweep is serial: each lane's reduction is the one sequential
// row-order recurrence of the package comment, at any thread count.

// laneShape checks that the blocks share one n-by-w shape with room
// for q lanes and returns that shape.
func laneShape(q int, blocks ...*MultiVec) (n, w int) {
	n, w = blocks[0].N, blocks[0].M
	for _, b := range blocks[1:] {
		if b.N != n || b.M != w {
			panic("multivec: column sweep over blocks of different shape")
		}
	}
	if q > w {
		panic("multivec: column sweep has more lanes than the block has columns")
	}
	return n, w
}

// ColDots sets dst[j] to the inner product of column j of x with
// column j of y, for the len(dst) leading columns.
func ColDots(dst []float64, x, y *MultiVec) {
	q := len(dst)
	n, w := laneShape(q, x, y)
	if q == 0 {
		return
	}
	if w == 1 {
		var s float64
		yd := y.Data[:n]
		for i, v := range x.Data[:n] {
			s += float64(v * yd[i])
		}
		dst[0] = s
		return
	}
	clear(dst)
	for i := 0; i < n; i++ {
		xr := x.Data[i*w : i*w+q : i*w+q]
		yr := y.Data[i*w : i*w+q : i*w+q]
		d := dst[:len(xr)]
		for j, v := range xr {
			d[j] += float64(v * yr[j])
		}
	}
}

// ColResidual computes R = B - AX over the len(bb) leading columns
// and, in the same pass, the column sums of squares of B (into bb) and
// of the new R (into rr). r may alias b or ax.
func ColResidual(r, b, ax *MultiVec, bb, rr []float64) {
	q := len(bb)
	if len(rr) != q {
		panic("multivec: ColResidual scalar length mismatch")
	}
	n, w := laneShape(q, r, b, ax)
	if q == 0 {
		return
	}
	if w == 1 {
		var sb, sr float64
		rd, ad := r.Data[:n], ax.Data[:n]
		for i, bv := range b.Data[:n] {
			v := bv - ad[i]
			rd[i] = v
			sb += float64(bv * bv)
			sr += float64(v * v)
		}
		bb[0], rr[0] = sb, sr
		return
	}
	clear(bb)
	clear(rr)
	for i := 0; i < n; i++ {
		br := b.Data[i*w : i*w+q : i*w+q]
		ar := ax.Data[i*w : i*w+q : i*w+q]
		rw := r.Data[i*w : i*w+q : i*w+q]
		sb, sr := bb[:len(br)], rr[:len(br)]
		for j, bv := range br {
			v := bv - ar[j]
			rw[j] = v
			sb[j] += float64(bv * bv)
			sr[j] += float64(v * v)
		}
	}
}

// ColUpdate is the CG iterate/residual update of the len(alpha)
// leading columns in one pass: X += P*diag(alpha), R -= AP*diag(alpha),
// and rr[j] = the sum of squares of the new column j of R.
func ColUpdate(x, r, p, ap *MultiVec, alpha, rr []float64) {
	q := len(alpha)
	if len(rr) != q {
		panic("multivec: ColUpdate scalar length mismatch")
	}
	n, w := laneShape(q, x, r, p, ap)
	if q == 0 {
		return
	}
	if w == 1 {
		a := alpha[0]
		var s float64
		xd, rd, apd := x.Data[:n], r.Data[:n], ap.Data[:n]
		for i, pv := range p.Data[:n] {
			xd[i] += float64(pv * a)
			v := rd[i] - float64(apd[i]*a)
			rd[i] = v
			s += float64(v * v)
		}
		rr[0] = s
		return
	}
	clear(rr)
	for i := 0; i < n; i++ {
		xr := x.Data[i*w : i*w+q : i*w+q]
		rw := r.Data[i*w : i*w+q : i*w+q]
		pr := p.Data[i*w : i*w+q : i*w+q]
		ar := ap.Data[i*w : i*w+q : i*w+q]
		al, s := alpha[:len(xr)], rr[:len(xr)]
		for j, a := range al {
			xr[j] += float64(pr[j] * a)
			v := rw[j] - float64(ar[j]*a)
			rw[j] = v
			s[j] += float64(v * v)
		}
	}
}

// ColDirection is the CG direction update P = Z + P*diag(beta) of the
// len(beta) leading columns. z may be the residual block itself.
func ColDirection(p, z *MultiVec, beta []float64) {
	q := len(beta)
	n, w := laneShape(q, p, z)
	if q == 0 {
		return
	}
	if w == 1 {
		b := beta[0]
		pd := p.Data[:n]
		for i, zv := range z.Data[:n] {
			pd[i] = zv + float64(pd[i]*b)
		}
		return
	}
	for i := 0; i < n; i++ {
		pr := p.Data[i*w : i*w+q : i*w+q]
		zr := z.Data[i*w : i*w+q : i*w+q]
		be := beta[:len(pr)]
		for j, b := range be {
			pr[j] = zr[j] + float64(pr[j]*b)
		}
	}
}

// CompactColumns keeps the columns listed in keep (ascending), moves
// them to the leading lanes of an n-by-w block laid out in the same
// storage, and zero-fills the lanes after them; v becomes that block.
// w must be at least len(keep) and at most v.M. Each element moves to
// an address no higher than its own and rows are taken in order, so
// nothing is overwritten before it is read.
func (v *MultiVec) CompactColumns(keep []int, w int) {
	q, w0 := len(keep), v.M
	if q > w || w > w0 {
		panic("multivec: CompactColumns width out of range")
	}
	for d, s := range keep {
		if s < d || s >= w0 || (d > 0 && s <= keep[d-1]) {
			panic("multivec: CompactColumns wants ascending in-range columns")
		}
	}
	data := v.Data
	for i := 0; i < v.N; i++ {
		src := data[i*w0 : i*w0+w0]
		dst := data[i*w : i*w+w]
		for d, s := range keep {
			dst[d] = src[s]
		}
		clear(dst[q:])
	}
	v.M, v.Data = w, data[:v.N*w]
}

// UnpackLanes copies column lanes[k] of src into cols[k]: UnpackColumns
// for a chosen subset of columns, in one pass over src.
func UnpackLanes(cols [][]float64, src *MultiVec, lanes []int) {
	if len(cols) != len(lanes) {
		panic("multivec: UnpackLanes count mismatch")
	}
	for k, c := range cols {
		if len(c) != src.N || lanes[k] < 0 || lanes[k] >= src.M {
			panic("multivec: UnpackLanes column mismatch")
		}
	}
	m := src.M
	if m == 1 && len(cols) == 1 {
		copy(cols[0], src.Data)
		return
	}
	for i := 0; i < src.N; i++ {
		row := src.Data[i*m : i*m+m]
		for k, l := range lanes {
			cols[k][i] = row[l]
		}
	}
}
