package bcrs

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/blas"
)

// BlockDim is the scalar dimension of each matrix block. Resistance
// matrices couple the three velocity components of particle pairs, so
// blocks are 3x3 (paper Section II-B).
const BlockDim = 3

// BlockSize is the number of scalars per block.
const BlockSize = BlockDim * BlockDim

// Matrix is a block-sparse matrix in BCRS format. Matrices are square
// unless built with NewBuilderRect; the rectangular form exists for
// the local row-strips of the distributed GSPMV, whose column space
// (owned plus halo block columns) differs from its row space. Build
// one with a Builder; the zero value is an empty matrix. A Matrix may
// be multiplied from several goroutines at once.
type Matrix struct {
	nb     int       // number of block rows
	ncb    int       // number of block columns (== nb when square)
	rowPtr []int32   // len nb+1; block index range of each block row
	colIdx []int32   // len nnzb; block column of each block
	vals   []float64 // len nnzb*BlockSize; blocks row-major

	// split is a spare record of a multiply split over the pool, for
	// the last part count: a multiply takes it and puts it back, and one
	// that finds it taken, by a concurrent multiply, makes its own.
	split atomic.Pointer[mulSplit]
}

// rowRange is a half-open range of block rows a multiply hands the
// pool as one chunk.
type rowRange struct{ lo, hi int }

// NB returns the number of block rows.
func (a *Matrix) NB() int { return a.nb }

// NCB returns the number of block columns (equal to NB for square
// matrices).
func (a *Matrix) NCB() int { return a.ncb }

// N returns the number of scalar rows (3 per block row).
func (a *Matrix) N() int { return a.nb * BlockDim }

// NCols returns the number of scalar columns.
func (a *Matrix) NCols() int { return a.ncb * BlockDim }

// NNZB returns the number of stored non-zero blocks.
func (a *Matrix) NNZB() int { return len(a.colIdx) }

// NNZ returns the number of stored scalar non-zeros.
func (a *Matrix) NNZ() int { return len(a.colIdx) * BlockSize }

// BlocksPerRow returns nnzb/nb, the average number of non-zero blocks
// per block row — the key matrix property in the paper's performance
// model.
func (a *Matrix) BlocksPerRow() float64 {
	if a.nb == 0 {
		return 0
	}
	return float64(a.NNZB()) / float64(a.nb)
}

// balanceRows splits block rows into t contiguous ranges with
// approximately equal non-zero block counts. Empty ranges are dropped.
func balanceRows(rowPtr []int32, nb, t int) []rowRange {
	if nb == 0 {
		return nil
	}
	total := int(rowPtr[nb])
	ranges := make([]rowRange, 0, t)
	target := total / t
	if target == 0 {
		target = 1
	}
	lo := 0
	for i := 0; i < t && lo < nb; i++ {
		hi := lo
		want := int(rowPtr[lo]) + target
		if i == t-1 {
			hi = nb
		} else {
			for hi < nb && int(rowPtr[hi+1]) <= want {
				hi++
			}
			if hi == lo {
				hi = lo + 1 // always make progress
			}
		}
		ranges = append(ranges, rowRange{lo, hi})
		lo = hi
	}
	if lo < nb {
		ranges[len(ranges)-1].hi = nb
	}
	return ranges
}

// RowBlocks returns the half-open range of block indices belonging to
// block row i. Use BlockCol and BlockAt to inspect individual blocks.
func (a *Matrix) RowBlocks(i int) (lo, hi int) {
	return int(a.rowPtr[i]), int(a.rowPtr[i+1])
}

// BlockCol returns the block column of stored block k.
func (a *Matrix) BlockCol(k int) int { return int(a.colIdx[k]) }

// BlockAt returns a copy of stored block k.
func (a *Matrix) BlockAt(k int) blas.Mat3 {
	var b blas.Mat3
	copy(b[:], a.vals[k*BlockSize:(k+1)*BlockSize])
	return b
}

// Dense expands the matrix to a dense blas matrix. For tests and the
// small-system Cholesky path only.
func (a *Matrix) Dense() *blas.Dense {
	d := blas.NewDense(a.N(), a.NCols())
	for i := 0; i < a.nb; i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j := int(a.colIdx[k])
			blk := a.vals[k*BlockSize : (k+1)*BlockSize]
			for r := 0; r < BlockDim; r++ {
				for c := 0; c < BlockDim; c++ {
					d.Set(i*BlockDim+r, j*BlockDim+c, blk[r*BlockDim+c])
				}
			}
		}
	}
	return d
}

// Validate checks the structural invariants of the matrix: monotone
// row pointers, in-range strictly increasing column indices within
// each row, and consistent array lengths. It returns nil if the matrix
// is well formed.
func (a *Matrix) Validate() error {
	if len(a.rowPtr) != a.nb+1 {
		return fmt.Errorf("bcrs: rowPtr length %d, want %d", len(a.rowPtr), a.nb+1)
	}
	if a.rowPtr[0] != 0 {
		return fmt.Errorf("bcrs: rowPtr[0] = %d, want 0", a.rowPtr[0])
	}
	if int(a.rowPtr[a.nb]) != len(a.colIdx) {
		return fmt.Errorf("bcrs: rowPtr end %d, want %d", a.rowPtr[a.nb], len(a.colIdx))
	}
	if len(a.vals) != len(a.colIdx)*BlockSize {
		return fmt.Errorf("bcrs: vals length %d, want %d", len(a.vals), len(a.colIdx)*BlockSize)
	}
	for i := 0; i < a.nb; i++ {
		if a.rowPtr[i] > a.rowPtr[i+1] {
			return fmt.Errorf("bcrs: rowPtr not monotone at row %d", i)
		}
		prev := int32(-1)
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			c := a.colIdx[k]
			if c < 0 || int(c) >= a.ncb {
				return fmt.Errorf("bcrs: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("bcrs: columns not strictly increasing in row %d", i)
			}
			prev = c
		}
	}
	return nil
}

// IsSymmetric reports whether the matrix equals its transpose to
// within tol per entry. Resistance matrices must be symmetric; this
// is used by tests and assembly assertions. Rectangular matrices are
// never symmetric.
func (a *Matrix) IsSymmetric(tol float64) bool {
	if a.nb != a.ncb {
		return false
	}
	// Gather transposed blocks into a map and compare.
	type key struct{ i, j int32 }
	blocks := make(map[key]int, a.NNZB())
	for i := 0; i < a.nb; i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			blocks[key{int32(i), a.colIdx[k]}] = k
		}
	}
	for i := 0; i < a.nb; i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j := a.colIdx[k]
			kt, ok := blocks[key{j, int32(i)}]
			if !ok {
				return false
			}
			b := a.BlockAt(k)
			bt := a.BlockAt(kt).Transpose3()
			for e := range b {
				if diff := b[e] - bt[e]; diff > tol || diff < -tol {
					return false
				}
			}
		}
	}
	return true
}

// GershgorinInterval returns an interval [lo, hi] containing every
// eigenvalue of a square matrix, from the Gershgorin circle theorem
// applied to scalar rows. For the SPD resistance matrices this gives
// the cheap spectral bracket needed by the Chebyshev square-root
// approximation (lo may be negative; callers floor it with the
// far-field coefficient, which is a rigorous lower bound for
// R = muF*I + PSD). A NaN entry anywhere makes both bounds NaN. The
// loop has the shape of spmv1 and costs about what one MulVec does.
func (a *Matrix) GershgorinInterval() (lo, hi float64) {
	if a.nb != a.ncb {
		panic("bcrs: GershgorinInterval requires a square matrix")
	}
	if a.nb == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < a.nb; i++ {
		var c0, c1, c2, r0, r1, r2 float64
		for k := int(a.rowPtr[i]); k < int(a.rowPtr[i+1]); k++ {
			v := a.vals[k*BlockSize : k*BlockSize+BlockSize : k*BlockSize+BlockSize]
			// Each radius adds its row's entries in column order.
			a0, a1, a2 := math.Abs(v[0]), math.Abs(v[4]), math.Abs(v[8])
			if int(a.colIdx[k]) == i {
				c0, c1, c2 = c0+v[0], c1+v[4], c2+v[8]
				a0, a1, a2 = 0, 0, 0
			}
			r0 = r0 + a0 + math.Abs(v[1]) + math.Abs(v[2])
			r1 = r1 + math.Abs(v[3]) + a1 + math.Abs(v[5])
			r2 = r2 + math.Abs(v[6]) + math.Abs(v[7]) + a2
		}
		// min and max keep a NaN once they have seen one.
		lo = min(lo, c0-r0, c1-r1, c2-r2)
		hi = max(hi, c0+r0, c1+r1, c2+r2)
	}
	return lo, hi
}

// Stats summarizes the matrix in the terms of the paper's Table I.
type Stats struct {
	N            int     // scalar dimension
	NB           int     // block rows
	NNZ          int     // scalar non-zeros
	NNZB         int     // block non-zeros
	BlocksPerRow float64 // nnzb/nb
	Bytes        int64   // total storage footprint
}

// Stats returns the matrix statistics.
func (a *Matrix) Stats() Stats {
	return Stats{
		N:            a.N(),
		NB:           a.nb,
		NNZ:          a.NNZ(),
		NNZB:         a.NNZB(),
		BlocksPerRow: a.BlocksPerRow(),
		Bytes:        int64(len(a.vals))*8 + int64(len(a.colIdx))*4 + int64(len(a.rowPtr))*4,
	}
}

// FlopCount returns the floating point operations performed by one
// multiply with m vectors: fa = 18 flops per block per vector (a 3x3
// block applied to a 3-vector is 9 multiplies and 9 adds).
func (a *Matrix) FlopCount(m int) int64 {
	return int64(a.NNZB()) * 18 * int64(m)
}
