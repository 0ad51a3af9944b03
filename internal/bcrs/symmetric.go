package bcrs

import (
	"errors"
	"time"

	"repro/internal/multivec"
	"repro/internal/parallel"
)

// SymMatrix stores only the upper triangle (including the diagonal)
// of a symmetric block matrix and applies each off-diagonal block
// twice — as A_ij to x_j and as A_ij^T to x_i. This halves the matrix
// memory traffic, which the Section IV-B model says roughly halves the
// bandwidth-bound multiply time.
//
// The paper deliberately does not exploit symmetry ("we do not
// exploit any symmetry in the matrices", Section IV); this type is
// the extension quantifying what that choice left on the table. The
// transposed scatter to y_j is what makes a race-free thread
// decomposition nontrivial — which is exactly why production SPMV
// libraries often skip it. The schedule here:
//
//   - Block rows are split into the same nnz-balanced contiguous
//     ranges the general kernels use (balanceRows), fixed at
//     SetThreads time.
//   - Each worker owns its range's y rows: it zeroes them, then runs
//     the kernel, which accumulates the direct part A_ii..A_ij*x_j
//     and every in-range scatter (column j inside the range) straight
//     into y. Upper-triangle storage means scatter only ever targets
//     rows j >= i, so in-range scatter lands on rows the owner has
//     not finished yet or already zeroed — never on another worker's
//     rows.
//   - Scatter past the range end lands in a per-range partial buffer
//     covering only the range's scatter window [hi, winHi) — winHi is
//     the max block column referenced by the range plus one, so for
//     banded (e.g. RCM-reordered) matrices the buffer is a bandwidth,
//     not a full vector.
//   - A second barrier-separated phase folds the partials into y in
//     ascending range order per element, parallel over disjoint y
//     rows.
//
// Chunk boundaries and the reduction order are pure functions of the
// sparsity pattern and the thread count, so results are
// bitwise-identical across runs at a fixed thread count (they differ
// from the serial result only by the usual floating-point
// reassociation). Per column, the operation sequence is independent
// of m, so column c of Mul with any m is bitwise-identical to MulVec
// of that column at the same thread count.
//
// Mul and MulVec use receiver-owned scratch for the partial buffers;
// concurrent multiplies on the same receiver are not safe (the
// serving dispatcher and the SD stepper both multiply serially).
type SymMatrix struct {
	nb     int
	rowPtr []int32
	colIdx []int32
	vals   []float64
	ndiag  int // stored diagonal blocks (scattered once, not twice)
	span   int // max block-column reach of any row: max(colmax(i)+1-i)

	threads int
	ranges  []rowRange
	winHi   []int // per range: max block column + 1, >= range hi
	winOff  []int // per range: prefix sum of window rows (winHi - hi)
	winRows int   // total partial-buffer block rows
	scratch []float64
}

// NewSym extracts the symmetric storage from a full matrix. It
// returns an error if the matrix is not numerically symmetric. The
// new matrix inherits a's thread count.
func NewSym(a *Matrix) (*SymMatrix, error) {
	if a.NB() != a.NCB() {
		return nil, errors.New("bcrs: NewSym requires a square matrix")
	}
	if !a.IsSymmetric(1e-12) {
		return nil, errors.New("bcrs: NewSym requires a symmetric matrix")
	}
	return NewSymUnchecked(a), nil
}

// NewSymUnchecked extracts the upper triangle without verifying
// symmetry. It exists for the per-step extraction in the SD stepper,
// where the resistance matrix is symmetric by construction and the
// O(nnz) verification would be pure overhead. If a is not symmetric
// the resulting operator applies (U + U^T - D), not A.
func NewSymUnchecked(a *Matrix) *SymMatrix {
	s := &SymMatrix{nb: a.nb}
	// First pass: count upper-triangle blocks so the arrays are
	// allocated exactly once.
	nnz := 0
	for i := 0; i < a.nb; i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			if int(a.colIdx[k]) >= i {
				nnz++
			}
		}
	}
	s.rowPtr = make([]int32, a.nb+1)
	s.colIdx = make([]int32, 0, nnz)
	s.vals = make([]float64, 0, nnz*BlockSize)
	for i := 0; i < a.nb; i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j := a.BlockCol(k)
			if j < i {
				continue // lower triangle dropped
			}
			if j == i {
				s.ndiag++
			}
			s.colIdx = append(s.colIdx, int32(j))
			s.vals = append(s.vals, a.vals[k*BlockSize:(k+1)*BlockSize]...)
		}
		s.rowPtr[i+1] = int32(len(s.colIdx))
		// Columns are strictly increasing within a row, so the last
		// stored block holds the row's reach.
		if k := len(s.colIdx); k > int(s.rowPtr[i]) {
			if w := int(s.colIdx[k-1]) + 1 - i; w > s.span {
				s.span = w
			}
		}
	}
	t := a.threads
	if t < 1 {
		t = 1
	}
	s.SetThreads(t)
	return s
}

// NB returns the block dimension.
func (s *SymMatrix) NB() int { return s.nb }

// N returns the scalar dimension.
func (s *SymMatrix) N() int { return s.nb * BlockDim }

// NNZB returns the stored block count (upper triangle only).
func (s *SymMatrix) NNZB() int { return len(s.colIdx) }

// Span returns the block-column reach of the storage: the maximum
// over rows of (max stored column + 1 - row). The X gathers and the
// transposed Y scatter of one block row stay within this window, so
// span bounds the rows of X and Y a pass must keep resident.
func (s *SymMatrix) Span() int { return s.span }

// Bytes returns the storage footprint.
func (s *SymMatrix) Bytes() int64 {
	return int64(len(s.vals))*8 + int64(len(s.colIdx))*4 + int64(len(s.rowPtr))*4
}

// Threads returns the current kernel thread count.
func (s *SymMatrix) Threads() int { return s.threads }

// SymmetricStorage marks the type as a half-storage operator so layers
// that only hold a solver.BlockOperator (the serving engine) can
// report symmetry without depending on the concrete type.
func (s *SymMatrix) SymmetricStorage() bool { return true }

// SetThreads sets the number of worker ranges used by the multiply
// kernels and recomputes the nnz-balanced block-row partition plus
// each range's scatter window. t < 1 is treated as 1.
func (s *SymMatrix) SetThreads(t int) {
	if t < 1 {
		t = 1
	}
	s.threads = t
	s.ranges = balanceRows(s.rowPtr, s.nb, t)
	s.winHi = make([]int, len(s.ranges))
	s.winOff = make([]int, len(s.ranges))
	s.winRows = 0
	for w, r := range s.ranges {
		// Columns are strictly increasing within a row, so the last
		// stored block of each row holds the row's max column.
		win := r.hi
		for i := r.lo; i < r.hi; i++ {
			if k := int(s.rowPtr[i+1]); k > int(s.rowPtr[i]) {
				if c := int(s.colIdx[k-1]) + 1; c > win {
					win = c
				}
			}
		}
		s.winHi[w] = win
		s.winOff[w] = s.winRows
		s.winRows += win - r.hi
	}
	s.scratch = nil
}

// FlopCount returns the floating point operations performed by one
// multiply with m vectors: every stored block is applied directly and
// every stored off-diagonal block is applied a second time,
// transposed, at 18 flops per application per vector — the same total
// as the full matrix's FlopCount.
func (s *SymMatrix) FlopCount(m int) int64 {
	apps := 2*int64(s.NNZB()) - int64(s.ndiag)
	return apps * 18 * int64(m)
}

// MulVec computes y = A*x from the half storage.
func (s *SymMatrix) MulVec(y, x []float64) {
	if len(x) != s.N() || len(y) != s.N() {
		panic("bcrs: SymMatrix MulVec dimension mismatch")
	}
	t0 := time.Now()
	s.run(y, x, 1, false)
	s.recordMul(1, time.Since(t0).Seconds())
}

// Mul computes Y = A*X for a block of vectors from the half storage.
// For m in {1, 2, 4, 8, 16, 32} a fully-unrolled specialized kernel
// is dispatched (with an AVX2 across-m fast path when available);
// other m use the generic kernel.
func (s *SymMatrix) Mul(y, x *multivec.MultiVec) {
	s.mulMV(y, x, false)
}

// MulGenericKernel is Mul but always uses the generic kernel. It
// exists for the kernel-dispatch ablation benchmark.
func (s *SymMatrix) MulGenericKernel(y, x *multivec.MultiVec) {
	s.mulMV(y, x, true)
}

func (s *SymMatrix) mulMV(y, x *multivec.MultiVec, forceGeneric bool) {
	if x.N != s.N() || y.N != s.N() || x.M != y.M {
		panic("bcrs: SymMatrix Mul dimension mismatch")
	}
	t0 := time.Now()
	s.run(y.Data, x.Data, x.M, forceGeneric)
	s.recordMul(x.M, time.Since(t0).Seconds())
}

// mulRange processes block rows [lo, hi) of a width-m multiply with
// the kernel Mul dispatches for m: it accumulates the direct part and
// in-range scatter into y (whose rows [lo, hi) the caller has zeroed)
// and out-of-range scatter (block rows >= hi) into part, which covers
// block rows [hi, hi+len(part)/(3m)) and is pre-zeroed.
func (s *SymMatrix) mulRange(y, x, part []float64, m int, forceGeneric bool, lo, hi int) {
	switch {
	case forceGeneric:
		symGspmvGeneric(s.rowPtr, s.colIdx, s.vals, x, y, part, m, lo, hi)
	case symSIMDWidth > 0 && m >= symSIMDWidth && m%symSIMDWidth == 0:
		// The AVX2 fast path (bitwise-identical lanes across the m
		// dimension) takes over every width it divides.
		symGspmvSIMD(s.rowPtr, s.colIdx, s.vals, x, y, part, m, lo, hi)
	case m == 1:
		symSpmv1(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	case m == 2:
		symGspmv2(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	case m == 4:
		symGspmv4(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	case m == 8:
		symGspmv8(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	case m == 16:
		symGspmv16(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	case m == 32:
		symGspmv32(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	default:
		symGspmvGeneric(s.rowPtr, s.colIdx, s.vals, x, y, part, m, lo, hi)
	}
}

// run executes one multiply over flat row-major data with m columns.
func (s *SymMatrix) run(y, x []float64, m int, forceGeneric bool) {
	if len(s.ranges) <= 1 {
		clear(y)
		s.mulRange(y, x, nil, m, forceGeneric, 0, s.nb)
		return
	}
	bm := BlockDim * m
	scratch := s.growScratch(bm)
	ranges := s.ranges

	// Phase 1: each worker zeroes and fills its own y rows plus its
	// column-bounded partial window. Disjoint writes; no races.
	parallel.Default().DoOp(SymKernelMetricPrefix, len(ranges), func(w int) {
		r := ranges[w]
		clear(y[r.lo*bm : r.hi*bm])
		part := scratch[s.winOff[w]*bm : (s.winOff[w]+s.winHi[w]-r.hi)*bm]
		clear(part)
		s.mulRange(y, x, part, m, forceGeneric, r.lo, r.hi)
	})

	s.fold(y, scratch, bm)
}

func (s *SymMatrix) growScratch(bm int) []float64 {
	need := s.winRows * bm
	if cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	return s.scratch[:need]
}

// fold is phase 2: the partial windows are folded into y, each y row
// touched by exactly one chunk, partials added in ascending range
// order — a deterministic ordered reduction at fixed thread count.
func (s *SymMatrix) fold(y, scratch []float64, bm int) {
	ranges := s.ranges
	parallel.Default().ForOp("bcrs_sym_reduce", s.nb, 256, func(lo, hi int) {
		for w := range ranges {
			rhi := ranges[w].hi
			a, b := rhi, s.winHi[w]
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if a >= b {
				continue
			}
			part := scratch[(s.winOff[w]+a-rhi)*bm : (s.winOff[w]+b-rhi)*bm]
			dst := y[a*bm : b*bm]
			for q, v := range part {
				dst[q] += v
			}
		}
	})
}
