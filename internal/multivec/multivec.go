// Package multivec implements the dense "block of vectors" operand of
// the generalized sparse matrix-vector product (GSPMV).
//
// Following Section IV-A1 of the paper, the m vectors are stored
// row-major: all m values for row i are contiguous. This is the layout
// the GSPMV basic kernel depends on — when a matrix entry R(i,j) is
// loaded once, the kernel streams the m consecutive values X(j, 0..m)
// and accumulates into the m consecutive values Y(i, 0..m), which is
// what amortizes the matrix memory traffic over the vector count.
//
// The package also supplies the block-vector operations needed by the
// block conjugate-gradient method: Gram products X^T Y (small m-by-m
// results) and right-multiplication by small m-by-m matrices.
//
// # Reproducibility contract
//
// Every op gives the same bits for EVERY thread count. Ops that write
// disjoint rows (Scale, AddMul, SetMulAdd, PackColumns, and the
// elementwise column sweeps ColDirection and ColThreeTerm) split their
// rows over the pool, and every element is the same expression
// whichever thread computes it. Every reduction splits the n rows into
// k = max(1, n/4096) equal row chunks [lo, hi) and adds the k chunk
// sums in chunk order; the plan is a function of n alone, so the
// chunks run over the pool or inline with the same bits.
//
// The lane reductions of lanes.go (ColDots, both sums of ColResidual,
// ColUpdate's sums of squares) sum a chunk into eight partials per
// lane: row lo+i adds into partial i%8, and the partials combine by
// the one tree ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)), what two ymm or
// one zmm of them reduce to. So a lone column's eight rows at a time
// fill two ymm, and a lane's sum is the same at every block width.
// GramInto keeps each chunk in row order: its entries are already
// independent chains, one per pair of columns.
//
// Within those orders every output element is a scalar recurrence,
// acc = acc + (x*a) with the product rounded before the add, taken in
// increasing k (AddMul, SetMulAdd) or increasing row (Gram, each
// partial of a lane reduction). Each kernel has the Go loops of this
// file or lanes.go and, on amd64 with AVX2, one in multivec_amd64.s —
// for AddMul, SetMulAdd and Gram on square small operands whose m is a
// multiple of 4, and for the column sweeps as lanes.go lists — and
// both follow that recurrence, so which one runs is chosen by CPU and
// shape alone and never changes a result bit; the Go loops spell the
// product float64(x*a) so the compiler may not fuse it (GOAMD64=v3,
// arm64). A lane's result does not depend on the block width or the
// lane's position either: it is what the same sweep gives the one
// contiguous column. PackColumns, CompactColumns and UnpackLanes only
// move values. The one freedom left is which payload a NaN result
// carries when both addends are NaN.
package multivec

import (
	"fmt"

	"repro/internal/blas"
)

// simdShape reports whether a row-range kernel whose small operand is
// rows-by-cols runs in multivec_amd64.s: it needs AVX2 and a square
// operand with 4 columns per ymm group.
func simdShape(rows, cols int) bool {
	return simd && rows == cols && cols%4 == 0
}

// MultiVec is an n-by-m block of column vectors stored row-major:
// element (i, j) — component i of vector j — lives at Data[i*M+j].
type MultiVec struct {
	N, M int
	Data []float64
}

// New allocates a zeroed n-by-m multivector.
func New(n, m int) *MultiVec {
	if n < 0 || m <= 0 {
		panic("multivec: invalid dimensions")
	}
	return &MultiVec{N: n, M: m, Data: make([]float64, n*m)}
}

// FromVector wraps a single vector x as an n-by-1 multivector that
// aliases x.
func FromVector(x []float64) *MultiVec {
	return &MultiVec{N: len(x), M: 1, Data: x}
}

// FromColumns packs the given equal-length column vectors into a new
// row-major multivector.
func FromColumns(cols ...[]float64) *MultiVec {
	if len(cols) == 0 {
		panic("multivec: FromColumns requires at least one column")
	}
	n := len(cols[0])
	v := New(n, len(cols))
	for j, c := range cols {
		if len(c) != n {
			panic("multivec: FromColumns length mismatch")
		}
		v.SetCol(j, c)
	}
	return v
}

// At returns element (i, j).
func (v *MultiVec) At(i, j int) float64 {
	v.check(i, j)
	return v.Data[i*v.M+j]
}

// Set assigns element (i, j).
func (v *MultiVec) Set(i, j int, x float64) {
	v.check(i, j)
	v.Data[i*v.M+j] = x
}

func (v *MultiVec) check(i, j int) {
	if i < 0 || i >= v.N || j < 0 || j >= v.M {
		panic(fmt.Sprintf("multivec: index (%d,%d) out of range %dx%d", i, j, v.N, v.M))
	}
}

// Row returns a slice aliasing the m values of row i.
func (v *MultiVec) Row(i int) []float64 {
	return v.Data[i*v.M : (i+1)*v.M]
}

// Col copies column j into dst, which must have length N.
func (v *MultiVec) Col(j int, dst []float64) {
	if len(dst) != v.N {
		panic("multivec: Col length mismatch")
	}
	if j < 0 || j >= v.M {
		panic("multivec: column out of range")
	}
	for i := 0; i < v.N; i++ {
		dst[i] = v.Data[i*v.M+j]
	}
}

// ColVector returns a fresh copy of column j.
func (v *MultiVec) ColVector(j int) []float64 {
	dst := make([]float64, v.N)
	v.Col(j, dst)
	return dst
}

// SetCol copies src (length N) into column j.
func (v *MultiVec) SetCol(j int, src []float64) {
	if len(src) != v.N {
		panic("multivec: SetCol length mismatch")
	}
	if j < 0 || j >= v.M {
		panic("multivec: column out of range")
	}
	for i := 0; i < v.N; i++ {
		v.Data[i*v.M+j] = src[i]
	}
}

// PackColumns gathers the given equal-length column vectors, one per
// column of dst, into dst. Rows are written disjointly, so the result
// is bitwise-identical for any thread count.
func PackColumns(dst *MultiVec, cols [][]float64) {
	if len(cols) != dst.M {
		panic("multivec: PackColumns column count mismatch")
	}
	for _, c := range cols {
		if len(c) != dst.N {
			panic("multivec: PackColumns length mismatch")
		}
	}
	if dst.M == 1 {
		copy(dst.Data, cols[0]) // the block is the vector
		return
	}
	s := getSweep(dst.N)
	s.v[0], s.cols = dst, cols
	s.split("multivec_pack", 16*len(dst.Data), s.packFn)
}

// packRows is PackColumns on rows [lo, hi).
func packRows(dst *MultiVec, cols [][]float64, lo, hi int) {
	m := dst.M
	for i := lo; i < hi; i++ {
		row := dst.Data[i*m : (i+1)*m]
		for j, c := range cols {
			row[j] = c[i]
		}
	}
}

// Reshape makes v an n-by-m block over its own storage, growing it
// when too small. Contents are unspecified: a caller that overwrites
// the block in full before reading it keeps the reuse out of its bits.
func (v *MultiVec) Reshape(n, m int) {
	if cap(v.Data) < n*m {
		v.Data = make([]float64, n*m)
	}
	v.N, v.M, v.Data = n, m, v.Data[:n*m]
}

// Clone returns a deep copy.
func (v *MultiVec) Clone() *MultiVec {
	c := New(v.N, v.M)
	copy(c.Data, v.Data)
	return c
}

// CopyFrom copies the contents of src, which must have identical
// dimensions.
func (v *MultiVec) CopyFrom(src *MultiVec) {
	if v.N != src.N || v.M != src.M {
		panic("multivec: CopyFrom dimension mismatch")
	}
	copy(v.Data, src.Data)
}

// Zero clears all entries.
func (v *MultiVec) Zero() {
	for i := range v.Data {
		v.Data[i] = 0
	}
}

// Scale multiplies every entry by c. Chunks write disjoint rows, so
// the result is bitwise-identical for any thread count.
func (v *MultiVec) Scale(c float64) {
	s := getSweep(v.N)
	s.v[0], s.fac = v, c
	s.split("multivec_scale", 16*len(v.Data), s.scaleFn)
}

// AddMul computes v += x * a, where a is a small x.M-by-v.M dense
// matrix. This is the block-CG update X += P*alpha. x must not alias
// v. Rows are written disjointly, so the result is bitwise-identical
// for any thread count.
func (v *MultiVec) AddMul(x *MultiVec, a *blas.Dense) {
	if x.N != v.N || a.Rows != x.M || a.Cols != v.M {
		panic("multivec: AddMul dimension mismatch")
	}
	addMulCalls.Inc()
	addMulFlops.Add(2 * int64(v.N) * int64(x.M) * int64(v.M))
	s := getSweep(v.N)
	s.v[0], s.v[1], s.s[0] = v, x, a.Data
	s.split("multivec_addmul", updateBytes(v.N, x.M, v.M), s.addMulFn)
}

// updateBytes is what an n-row block update by a k-by-m matrix states
// to the pool: the rows it streams, 8(k + 2m) bytes each, and the
// byte-equivalent of its k·m multiply-adds a row at 4 bytes each — the
// AVX2 pass takes 0.035–0.05 ns a multiply-add, so 3000 × 16 × 16 takes
// 27–40 µs on one core where its rows alone would stream in 13.
func updateBytes(n, k, m int) int { return 8*n*(k+2*m) + 4*n*k*m }

// addMulRange applies the AddMul update by the x.M-by-v.M matrix a to
// rows [lo, hi).
func addMulRange(v, x *MultiVec, a []float64, lo, hi int) {
	mx, mv := x.M, v.M
	if simdShape(mx, mv) {
		mulAddSIMD(v.Data, v.Data, x.Data, a, lo, hi, mv)
		return
	}
	for i := lo; i < hi; i++ {
		xr := x.Data[i*mx : i*mx+mx : i*mx+mx]
		vr := v.Data[i*mv : i*mv+mv : i*mv+mv]
		for k, xv := range xr {
			ar := a[k*mv : k*mv+mv : k*mv+mv]
			for j, av := range ar {
				vr[j] += float64(xv * av)
			}
		}
	}
}

// SetMulAdd computes v = r + p * b (the block-CG direction update
// P = R + P*beta evaluated out of place). r and p must not alias v.
func (v *MultiVec) SetMulAdd(r, p *MultiVec, b *blas.Dense) {
	if r.N != v.N || r.M != v.M || p.N != v.N || b.Rows != p.M || b.Cols != v.M {
		panic("multivec: SetMulAdd dimension mismatch")
	}
	setMulAddCalls.Inc()
	setMulAddFlops.Add(2 * int64(v.N) * int64(p.M) * int64(v.M))
	s := getSweep(v.N)
	s.v[0], s.v[1], s.v[2], s.s[0] = v, r, p, b.Data
	s.split("multivec_setmuladd", updateBytes(v.N, p.M, v.M), s.setMulAddFn)
}

// setMulAddRange applies the SetMulAdd update by the p.M-by-v.M matrix
// b to rows [lo, hi).
func setMulAddRange(v, r, p *MultiVec, b []float64, lo, hi int) {
	mp, mv := p.M, v.M
	if simdShape(mp, mv) {
		mulAddSIMD(v.Data, r.Data, p.Data, b, lo, hi, mv)
		return
	}
	for i := lo; i < hi; i++ {
		vr := v.Data[i*mv : i*mv+mv : i*mv+mv]
		copy(vr, r.Data[i*mv:i*mv+mv])
		pr := p.Data[i*mp : i*mp+mp : i*mp+mp]
		for k, pv := range pr {
			br := b[k*mv : k*mv+mv : k*mv+mv]
			for j, bv := range br {
				vr[j] += float64(pv * bv)
			}
		}
	}
}

// GramInto computes g = X^T * Y without allocating, so block-CG can
// reuse one scratch matrix across iterations. g must be x.M-by-y.M
// and is overwritten. Its rows are summed as a lane reduction's are
// (lanes.go), in reduceChunks(n) fixed row chunks added in chunk order,
// so the result is bitwise-identical for any thread count.
func GramInto(g *blas.Dense, x, y *MultiVec) {
	if x.N != y.N || g.Rows != x.M || g.Cols != y.M {
		panic("multivec: Gram dimension mismatch")
	}
	gramCalls.Inc()
	gramFlops.Add(2 * int64(x.N) * int64(x.M) * int64(y.M))
	s := getSweep(x.N)
	s.v[0], s.v[1], s.out[0] = x, y, g.Data
	s.reduce("multivec_gram", 1, 1, 8*x.N*(x.M+y.M)+4*x.N*x.M*y.M, s.gramFn)
}

// gramRange accumulates rows [lo, hi) of the Gram product into g.
func gramRange(g []float64, x, y *MultiVec, lo, hi int) {
	mx, my := x.M, y.M
	if simdShape(mx, my) {
		gramSIMD(g, x.Data, y.Data, lo, hi, my)
		return
	}
	for i := lo; i < hi; i++ {
		xr := x.Data[i*mx : i*mx+mx : i*mx+mx]
		yr := y.Data[i*my : i*my+my : i*my+my]
		for a, xv := range xr {
			gr := g[a*my : a*my+my : a*my+my]
			for b, yv := range yr {
				gr[b] += float64(xv * yv)
			}
		}
	}
}

// ChebyshevStep advances the Chebyshev recurrence by one degree and
// adds the new term to the sum, in one pass (t holds A*cur on entry):
//
//	t[i] = 2*(alpha*t[i] + beta*cur[i]) - prev[i];  y[i] += c*t[i]
//
// Each element is that expression, in that order, here and in
// multivec_amd64.s, so which of the two ran never shows in a bit.
func ChebyshevStep(y, t, cur, prev []float64, alpha, beta, c float64) {
	if n := len(y); len(t) != n || len(cur) != n || len(prev) != n {
		panic("multivec: ChebyshevStep length mismatch")
	}
	if simd && len(y) > 0 {
		chebStepSIMD(y, t, cur, prev, alpha, beta, c)
		return
	}
	for i, ti := range t {
		v := 2*(alpha*ti+beta*cur[i]) - prev[i]
		t[i] = v
		y[i] += c * v
	}
}
