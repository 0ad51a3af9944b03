package bcrs

import (
	"errors"
	"time"

	"repro/internal/cpufeat"
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
//   - Block rows are split into nnz-balanced contiguous ranges
//     (balanceRows), one per thread of the process pool, recomputed
//     when the pool's size changes.
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
// sparsity pattern and the pool's thread count, so results are
// bitwise-identical across runs at a fixed thread count (they differ
// from the serial result only by the usual floating-point
// reassociation). Per column, the operation sequence is independent
// of m, so column c of Mul with any m is bitwise-identical to MulVec
// of that column at the same thread count.
//
// Mul and MulVec use receiver-owned scratch for the partial buffers;
// concurrent multiplies on the same receiver are not safe (the
// benchmarks that run it multiply serially).
type SymMatrix struct {
	nb     int
	rowPtr []int32
	colIdx []int32
	vals   []float64
	ndiag  int // stored diagonal blocks (scattered once, not twice)

	// The split for a pool of threads threads (0: none made yet), and
	// the chunks its fold runs in.
	threads int
	folds   int
	ranges  []rowRange
	winHi   []int // per range: max block column + 1, >= range hi
	winOff  []int // per range: prefix sum of window rows (winHi - hi)
	winRows int   // total partial-buffer block rows
	scratch []float64

	// The operands of the split multiply in flight, and its two phases
	// bound once, so that a warmed split multiply allocates nothing.
	y, x    []float64
	m       int
	generic bool
	fillFn  func(w int)
	foldFn  func(c int)
}

// NewSym extracts the symmetric storage from a full matrix. It
// returns an error if the matrix is not numerically symmetric.
func NewSym(a *Matrix) (*SymMatrix, error) {
	if a.NB() != a.NCB() {
		return nil, errors.New("bcrs: NewSym requires a square matrix")
	}
	if !a.IsSymmetric(1e-12) {
		return nil, errors.New("bcrs: NewSym requires a symmetric matrix")
	}
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
	}
	s.fillFn, s.foldFn = s.fill, s.fold
	return s, nil
}

// N returns the scalar dimension.
func (s *SymMatrix) N() int { return s.nb * BlockDim }

// NNZB returns the stored block count (upper triangle only).
func (s *SymMatrix) NNZB() int { return len(s.colIdx) }

// splitFor makes the split for pool p current: p.Threads()
// nnz-balanced ranges, each with its scatter window, and the fold's
// chunk count. One range per thread, not the general multiply's four
// parts per thread: every extra range
// adds a window to the fold, and at the benchmark's sizes that cost
// more than the finer balance saved (DESIGN.md, "Threads").
func (s *SymMatrix) splitFor(p *parallel.Pool) {
	if s.threads == p.Threads() {
		return
	}
	s.threads = p.Threads()
	s.folds = max(1, min(4*s.threads, s.nb/foldRows))
	s.ranges = balanceRows(s.rowPtr, s.nb, s.threads)
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

// Mul computes Y = A*X for a block of vectors from the half storage.
// On an AVX2+FMA host every m runs assembly: m = 1 the three-lane
// kernel, every other m the across-m row kernels — with AVX-512, 16
// columns a pass while 16 are left, then 8, and the last m % 8 columns
// in the AVX2 kernel's 4-wide groups and tail; without it, all of m
// in those. Elsewhere m = 1 runs symSpmv1 and every other m the
// generic loop. All give the same bits.
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
	case cpufeat.FMA:
		symGspmvSIMD(s.rowPtr, s.colIdx, s.vals, x, y, part, m, lo, hi)
	case m == 1:
		symSpmv1(s.rowPtr, s.colIdx, s.vals, x, y, part, lo, hi)
	default:
		symGspmvGeneric(s.rowPtr, s.colIdx, s.vals, x, y, part, m, lo, hi)
	}
}

// run executes one multiply over flat row-major data with m columns.
func (s *SymMatrix) run(y, x []float64, m int, forceGeneric bool) {
	pool := parallel.Default()
	s.splitFor(pool)
	if len(s.ranges) <= 1 {
		clear(y)
		s.mulRange(y, x, nil, m, forceGeneric, 0, s.nb)
		return
	}
	if need := s.winRows * BlockDim * m; cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	s.y, s.x, s.m, s.generic = y, x, m, forceGeneric
	// The multiply's traffic decides whether both phases run on the
	// pool; where they run never changes their bits.
	bytes := int(s.TrafficBytes(m))
	// Phase 1: each range zeroes and fills its own y rows plus its
	// column-bounded partial window. Disjoint writes; no races.
	pool.DoOp(SymKernelMetricPrefix, len(s.ranges), bytes, s.fillFn)
	// Phase 2: the windows fold into y, each y row touched by exactly
	// one chunk, partials added in ascending range order — a
	// deterministic ordered reduction at fixed thread count.
	pool.DoOp("bcrs_sym_reduce", s.folds, bytes, s.foldFn)
	s.y, s.x = nil, nil
}

// fill is phase 1 for range w.
func (s *SymMatrix) fill(w int) {
	r, bm := s.ranges[w], BlockDim*s.m
	clear(s.y[r.lo*bm : r.hi*bm])
	part := s.scratch[s.winOff[w]*bm : (s.winOff[w]+s.winHi[w]-r.hi)*bm]
	clear(part)
	s.mulRange(s.y, s.x, part, s.m, s.generic, r.lo, r.hi)
}

// foldRows is the fewest block rows a fold chunk holds: the fold runs in
// up to four chunks per thread of at least this many rows.
const foldRows = 256

// fold is phase 2 over fold chunk c of y's block rows.
func (s *SymMatrix) fold(c int) {
	lo, hi := parallel.ChunkBounds(s.nb, s.folds, c)
	bm := BlockDim * s.m
	for w, r := range s.ranges {
		a, b := max(r.hi, lo), min(s.winHi[w], hi)
		if a >= b {
			continue
		}
		part := s.scratch[(s.winOff[w]+a-r.hi)*bm : (s.winOff[w]+b-r.hi)*bm]
		dst := s.y[a*bm : b*bm]
		for q, v := range part {
			dst[q] += v
		}
	}
}
