package bcrs

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/blas"
)

// NewMatrix wraps finished BCRS arrays as a Matrix without copying
// them; the caller must not touch them afterwards. Every block
// row's columns must be strictly ascending (Validate checks). It is
// the constructor for assemblers that can write rows in place, such as
// internal/hydro; everything else goes through a Builder.
func NewMatrix(nb, ncb int, rowPtr, colIdx []int32, vals []float64) *Matrix {
	if len(rowPtr) != nb+1 || int(rowPtr[nb]) != len(colIdx) || len(vals) != len(colIdx)*BlockSize {
		panic("bcrs: NewMatrix array lengths disagree")
	}
	// The m = 1 kernel is assembly and checks no index, so a corrupt
	// one stops here, with its row, and not as a wild read there.
	if !indicesValid(ncb, rowPtr, colIdx) {
		panic(badIndex(ncb, rowPtr, colIdx))
	}
	return &Matrix{nb: nb, ncb: ncb, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// indicesValid reports whether rowPtr runs monotone from 0 to its last
// entry, len(colIdx), and every column is in [0, ncb): one flat pass
// over each array.
func indicesValid(ncb int, rowPtr, colIdx []int32) bool {
	prev := rowPtr[0]
	if prev != 0 {
		return false
	}
	for _, p := range rowPtr[1:] {
		if p < prev {
			return false
		}
		prev = p
	}
	for _, c := range colIdx {
		if uint32(c) >= uint32(ncb) {
			return false
		}
	}
	return true
}

// badIndex names the first row whose rowPtr or columns indicesValid
// rejects.
func badIndex(ncb int, rowPtr, colIdx []int32) string {
	for i, end := range rowPtr[1:] {
		k := rowPtr[i]
		if k > end || int(end) > len(colIdx) || (i == 0 && k != 0) {
			return fmt.Sprintf("bcrs: NewMatrix row %d: rowPtr not monotone from 0", i)
		}
		for _, c := range colIdx[k:end] {
			if uint32(c) >= uint32(ncb) {
				return fmt.Sprintf("bcrs: NewMatrix row %d: column %d outside [0, %d)", i, c, ncb)
			}
		}
	}
	panic("bcrs: badIndex on valid indices")
}

// Builder accumulates 3x3 blocks in coordinate form and assembles them
// into a BCRS matrix. Duplicate (i, j) insertions are summed in
// insertion order, which is the natural semantics for finite-element-
// style assembly and makes the builder the reference for assemblers
// that promise a summation order (internal/hydro).
type Builder struct {
	nb   int
	ncb  int
	rows []int32
	cols []int32
	vals []float64 // 9 per entry
}

// NewBuilder returns a builder for an nb-by-nb block matrix.
func NewBuilder(nb int) *Builder {
	if nb < 0 {
		panic("bcrs: negative dimension")
	}
	return &Builder{nb: nb, ncb: nb}
}

// NewBuilderRect returns a builder for a rectangular nbr-by-nbc block
// matrix, as needed by the row-strip local matrices of distributed
// GSPMV.
func NewBuilderRect(nbr, nbc int) *Builder {
	if nbr < 0 || nbc < 0 {
		panic("bcrs: negative dimension")
	}
	return &Builder{nb: nbr, ncb: nbc}
}

// AddBlock accumulates the block v at block position (i, j).
func (b *Builder) AddBlock(i, j int, v blas.Mat3) {
	if i < 0 || i >= b.nb || j < 0 || j >= b.ncb {
		panic(fmt.Sprintf("bcrs: AddBlock position (%d,%d) out of range %dx%d", i, j, b.nb, b.ncb))
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v[:]...)
}

// AddDiag accumulates s times the 3x3 identity onto every diagonal
// block. This is the far-field term muF*I of the sparse resistance
// approximation R = muF*I + Rlub.
func (b *Builder) AddDiag(s float64) {
	blk := blas.Ident3().ScaleM(s)
	for i := 0; i < b.nb; i++ {
		b.AddBlock(i, i, blk)
	}
}

// AddDiagScaled accumulates s[i] times the identity onto diagonal
// block i. Used for per-particle far-field coefficients (the paper's
// "slight modification ... to account for different particle radii").
func (b *Builder) AddDiagScaled(s []float64) {
	if len(s) != b.nb {
		panic("bcrs: AddDiagScaled length mismatch")
	}
	for i, si := range s {
		b.AddBlock(i, i, blas.Ident3().ScaleM(si))
	}
}

// Build assembles the accumulated blocks into an immutable Matrix,
// sorting each block row by column and summing duplicates in the
// order they were added. The builder may be reused afterwards (it is
// reset).
func (b *Builder) Build() *Matrix {
	nb := b.nb
	ne := len(b.rows)

	// Count entries per block row and prefix-sum into scatter
	// offsets.
	count := make([]int32, nb+1)
	for _, r := range b.rows {
		count[r+1]++
	}
	for i := 0; i < nb; i++ {
		count[i+1] += count[i]
	}

	// Scatter entries into row-grouped order.
	perm := make([]int32, ne)
	next := make([]int32, nb)
	copy(next, count[:nb])
	for e := 0; e < ne; e++ {
		r := b.rows[e]
		perm[next[r]] = int32(e)
		next[r]++
	}

	// Sort each row's entries by column index, then by insertion
	// index so that duplicates sum in a defined order, and merge them
	// into the final arrays.
	byColumn := func(x, y int32) int {
		return cmp.Or(cmp.Compare(b.cols[x], b.cols[y]), cmp.Compare(x, y))
	}
	rowPtr := make([]int32, nb+1)
	colIdx := make([]int32, 0, ne)
	vals := make([]float64, 0, ne*BlockSize)
	for i := 0; i < nb; i++ {
		lo, hi := count[i], count[i+1]
		row := perm[lo:hi]
		slices.SortFunc(row, byColumn)
		for s := 0; s < len(row); {
			c := b.cols[row[s]]
			var acc [BlockSize]float64
			for ; s < len(row) && b.cols[row[s]] == c; s++ {
				e := int(row[s])
				src := b.vals[e*BlockSize : (e+1)*BlockSize]
				for q := range acc {
					acc[q] += src[q]
				}
			}
			colIdx = append(colIdx, c)
			vals = append(vals, acc[:]...)
		}
		rowPtr[i+1] = int32(len(colIdx))
	}

	m := &Matrix{nb: nb, ncb: b.ncb, rowPtr: rowPtr, colIdx: colIdx, vals: vals}

	// Reset the builder for reuse.
	b.rows = b.rows[:0]
	b.cols = b.cols[:0]
	b.vals = b.vals[:0]
	return m
}

// FromDense converts a dense matrix with dimensions divisible by 3
// into BCRS form, storing every block that has any non-zero entry.
// For tests.
func FromDense(d *blas.Dense) *Matrix {
	if d.Rows != d.Cols || d.Rows%BlockDim != 0 {
		panic("bcrs: FromDense requires a square matrix with dimension divisible by 3")
	}
	nb := d.Rows / BlockDim
	b := NewBuilder(nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			var blk blas.Mat3
			zero := true
			for r := 0; r < BlockDim; r++ {
				for c := 0; c < BlockDim; c++ {
					v := d.At(i*BlockDim+r, j*BlockDim+c)
					blk[r*BlockDim+c] = v
					if v != 0 {
						zero = false
					}
				}
			}
			if !zero {
				b.AddBlock(i, j, blk)
			}
		}
	}
	return b.Build()
}
