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
// Ops that write disjoint rows (Scale, Sub, Add, AddMul, SetMulAdd,
// PackColumns) give the same bits for any thread count. The blocked
// reductions (GramInto, ColNormsInto) sum fixed row chunks and combine
// them in chunk order, so they give the same bits for a fixed thread
// count. Within a row range every output element is one scalar
// recurrence, acc = acc + (x*a) with the product rounded before the
// add, taken in increasing k (AddMul, SetMulAdd) or increasing row
// (Gram, column sums of squares). Each of those four kernels has
// exactly two implementations — the Go loops in this file and, on
// amd64 with AVX2, multivec_amd64.s for square small operands whose m
// is a multiple of 4 — and both follow that recurrence, so which one
// runs is chosen by CPU and shape alone and never changes a result
// bit; the Go loops spell the product float64(x*a) so the compiler may
// not fuse it (GOAMD64=v3, arm64). The one freedom left is which
// payload a NaN result carries when both addends are NaN.
//
// The column sweeps of lanes.go (ColDots, ColResidual, ColUpdate,
// ColDirection — the vector work of CG on q interleaved columns) keep
// the same recurrence per column lane and are serial, Go only: a
// lane's reduction is the whole-column sequential sum in row order, so
// these give the same bits for EVERY thread count, block width and
// lane position — each lane is what the loop over that one contiguous
// column gives. CompactColumns and UnpackLanes only move values.
package multivec

import (
	"fmt"
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// elemGrain is the minimum number of scalar elements a parallel chunk
// must hold: below this the dispatch overhead exceeds the streaming
// work. Row-blocked ops convert it with rowGrain.
const elemGrain = 8192

// simdShape reports whether a row-range kernel whose small operand is
// rows-by-cols runs in multivec_amd64.s: it needs AVX2 and a square
// operand with 4 columns per ymm group.
func simdShape(rows, cols int) bool {
	return simd && rows == cols && cols%4 == 0
}

// rowGrain returns the minimum rows per chunk for an op touching m
// scalars per row.
func rowGrain(m int) int {
	g := elemGrain / m
	if g < 1 {
		g = 1
	}
	return g
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

// PackColumns gathers the given equal-length column vectors into the
// leading columns of dst, zero-filling any remaining columns. The
// zero padding is what lets a caller round a batch of q vectors up to
// the next specialized-kernel width: a zero column costs the GSPMV
// nothing numerically and its output column is simply ignored. Rows
// are written disjointly, so the result is bitwise-identical for any
// thread count.
func PackColumns(dst *MultiVec, cols [][]float64) {
	if len(cols) > dst.M {
		panic("multivec: PackColumns has more columns than dst")
	}
	for _, c := range cols {
		if len(c) != dst.N {
			panic("multivec: PackColumns length mismatch")
		}
	}
	m, q := dst.M, len(cols)
	if m == 1 && q == 1 {
		copy(dst.Data, cols[0]) // the block is the vector
		return
	}
	parallel.Default().ForOp("multivec_pack", dst.N, rowGrain(m), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst.Data[i*m : (i+1)*m]
			for j := 0; j < q; j++ {
				row[j] = cols[j][i]
			}
			for j := q; j < m; j++ {
				row[j] = 0
			}
		}
	})
}

// UnpackColumns scatters the leading len(cols) columns of src into the
// given column vectors — the inverse of PackColumns, dropping any
// padding columns.
func UnpackColumns(cols [][]float64, src *MultiVec) {
	if len(cols) > src.M {
		panic("multivec: UnpackColumns has more columns than src")
	}
	for _, c := range cols {
		if len(c) != src.N {
			panic("multivec: UnpackColumns length mismatch")
		}
	}
	m, q := src.M, len(cols)
	parallel.Default().ForOp("multivec_unpack", src.N, rowGrain(m), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := src.Data[i*m : i*m+q]
			for j, v := range row {
				cols[j][i] = v
			}
		}
	})
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

// Scale multiplies every entry by s. Chunks write disjoint ranges, so
// the result is bitwise-identical for any thread count.
func (v *MultiVec) Scale(s float64) {
	data := v.Data
	parallel.Default().ForOp("multivec_scale", len(data), elemGrain, func(lo, hi int) {
		blas.Scal(s, data[lo:hi])
	})
}

// Sub computes v = a - b elementwise. All three must have identical
// dimensions; v may alias a or b.
func (v *MultiVec) Sub(a, b *MultiVec) {
	if v.N != a.N || v.M != a.M || a.N != b.N || a.M != b.M {
		panic("multivec: Sub dimension mismatch")
	}
	dst, x, y := v.Data, a.Data, b.Data
	parallel.Default().ForOp("multivec_sub", len(dst), elemGrain, func(lo, hi int) {
		blas.Sub(dst[lo:hi], x[lo:hi], y[lo:hi])
	})
}

// Add computes v = a + b elementwise, with the same aliasing rules as
// Sub.
func (v *MultiVec) Add(a, b *MultiVec) {
	if v.N != a.N || v.M != a.M || a.N != b.N || a.M != b.M {
		panic("multivec: Add dimension mismatch")
	}
	dst, x, y := v.Data, a.Data, b.Data
	parallel.Default().ForOp("multivec_add", len(dst), elemGrain, func(lo, hi int) {
		blas.Add(dst[lo:hi], x[lo:hi], y[lo:hi])
	})
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
	pool, grain := parallel.Default(), rowGrain(v.M)
	if !pool.Parallel(v.N, grain) {
		// Not through ForOp: the closure it takes is a heap allocation,
		// and block CG calls this twice per iteration.
		addMulRange(v, x, a, 0, v.N)
		return
	}
	pool.ForOp("multivec_addmul", v.N, grain, func(lo, hi int) {
		addMulRange(v, x, a, lo, hi)
	})
}

// addMulRange applies the AddMul update to rows [lo, hi).
func addMulRange(v, x *MultiVec, a *blas.Dense, lo, hi int) {
	mx, mv := x.M, v.M
	if simdShape(mx, mv) {
		mulAddSIMD(v.Data, v.Data, x.Data, a.Data, lo, hi, mv)
		return
	}
	for i := lo; i < hi; i++ {
		xr := x.Data[i*mx : i*mx+mx : i*mx+mx]
		vr := v.Data[i*mv : i*mv+mv : i*mv+mv]
		for k, xv := range xr {
			ar := a.Data[k*mv : k*mv+mv : k*mv+mv]
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
	pool, grain := parallel.Default(), rowGrain(v.M)
	if !pool.Parallel(v.N, grain) {
		setMulAddRange(v, r, p, b, 0, v.N) // as in AddMul
		return
	}
	pool.ForOp("multivec_setmuladd", v.N, grain, func(lo, hi int) {
		setMulAddRange(v, r, p, b, lo, hi)
	})
}

// setMulAddRange applies the SetMulAdd update to rows [lo, hi).
func setMulAddRange(v, r, p *MultiVec, b *blas.Dense, lo, hi int) {
	mp, mv := p.M, v.M
	if simdShape(mp, mv) {
		mulAddSIMD(v.Data, r.Data, p.Data, b.Data, lo, hi, mv)
		return
	}
	for i := lo; i < hi; i++ {
		vr := v.Data[i*mv : i*mv+mv : i*mv+mv]
		copy(vr, r.Data[i*mv:i*mv+mv])
		pr := p.Data[i*mp : i*mp+mp : i*mp+mp]
		for k, pv := range pr {
			br := b.Data[k*mv : k*mv+mv : k*mv+mv]
			for j, bv := range br {
				vr[j] += float64(pv * bv)
			}
		}
	}
}

// Gram returns the small x.M-by-y.M matrix X^T * Y. The inputs must
// have the same row count.
func Gram(x, y *MultiVec) *blas.Dense {
	g := blas.NewDense(x.M, y.M)
	GramInto(g, x, y)
	return g
}

// GramInto computes g = X^T * Y without allocating, so block-CG can
// reuse one scratch matrix across iterations. g must be x.M-by-y.M
// and is overwritten. The reduction is blocked over fixed row chunks
// with an ordered combine, so the result is bitwise-identical across
// runs with the same thread count.
func GramInto(g *blas.Dense, x, y *MultiVec) {
	if x.N != y.N || g.Rows != x.M || g.Cols != y.M {
		panic("multivec: Gram dimension mismatch")
	}
	gramCalls.Inc()
	gramFlops.Add(2 * int64(x.N) * int64(x.M) * int64(y.M))
	for i := range g.Data {
		g.Data[i] = 0
	}
	pool := parallel.Default()
	grain := rowGrain(x.M)
	if !pool.Parallel(x.N, grain) {
		gramRange(g.Data, x, y, 0, x.N)
		return
	}
	t0 := time.Now()
	part := parallel.Reduce(pool, x.N, grain, func(lo, hi int) []float64 {
		buf := make([]float64, len(g.Data))
		gramRange(buf, x, y, lo, hi)
		return buf
	}, func(acc, part []float64) []float64 {
		blas.Axpy(1, part, acc)
		return acc
	})
	copy(g.Data, part)
	parallel.RecordOp("multivec_gram", time.Since(t0).Seconds())
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

// ColNorms returns the Euclidean norm of each column.
func (v *MultiVec) ColNorms() []float64 {
	dst := make([]float64, v.M)
	v.ColNormsInto(dst)
	return dst
}

// ColNormsInto writes the Euclidean norm of each column into dst
// (length M) without allocating on the serial path. Like GramInto the
// blocked sum combines in fixed chunk order, so results are
// bitwise-identical for a fixed thread count.
func (v *MultiVec) ColNormsInto(dst []float64) {
	if len(dst) != v.M {
		panic("multivec: ColNormsInto length mismatch")
	}
	m := v.M
	pool := parallel.Default()
	grain := rowGrain(m)
	sums := dst
	if pool.Parallel(v.N, grain) {
		t0 := time.Now()
		sums = parallel.Reduce(pool, v.N, grain, func(lo, hi int) []float64 {
			buf := make([]float64, m)
			colSumSquares(buf, v, lo, hi)
			return buf
		}, func(acc, part []float64) []float64 {
			blas.Axpy(1, part, acc)
			return acc
		})
		parallel.RecordOp("multivec_colnorms", time.Since(t0).Seconds())
	} else {
		for j := range sums {
			sums[j] = 0
		}
		colSumSquares(sums, v, 0, v.N)
	}
	for j := range dst {
		dst[j] = math.Sqrt(sums[j])
	}
}

// colSumSquares accumulates per-column sums of squares over rows
// [lo, hi) into sums.
func colSumSquares(sums []float64, v *MultiVec, lo, hi int) {
	if simdShape(v.M, v.M) {
		colSumSqSIMD(sums, v.Data, lo, hi, v.M)
		return
	}
	for i := lo; i < hi; i++ {
		r := v.Row(i)
		for j, x := range r {
			sums[j] += float64(x * x)
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
