// Package bcrs implements sparse matrices in Block Compressed Row
// Storage with 3x3 blocks, and the SPMV / generalized SPMV (GSPMV)
// kernels at the heart of the paper.
//
// The storage follows Section IV-A1: an array of non-zero 3x3 blocks
// stored block-row-wise (each block itself row-major), a column-index
// array holding the block-column of each non-zero block, and a row
// pointer array marking the start of each block row. Indices are
// 4-byte integers; this matters because the paper's memory-traffic
// model (Section IV-B1) charges 4 bytes per block for the column index
// and 4 bytes per block row for the row pointer.
//
// GSPMV multiplies the matrix by m vectors simultaneously. The m
// vectors are stored row-major (see internal/multivec), so each loaded
// matrix block is applied to m consecutive values of X — the matrix's
// memory traffic is amortized over the vector count, which is the
// entire performance story of the paper. Specialized fully-unrolled
// kernels exist for m in {1, 2, 4, 8, 16, 32} (mirroring the paper's
// code generator, which emits an unrolled SIMD kernel per m); other m
// fall back to a generic kernel.
//
// Thread blocking partitions block rows into contiguous ranges with
// approximately equal non-zero counts; each range is processed by one
// goroutine. The half-storage symmetric variant (SymMatrix) keeps
// only the upper triangle and scatters transpose contributions
// through a two-phase conflict-free schedule, halving matrix traffic
// again.
package bcrs
