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
// entire performance story of the paper. Every general kernel runs
// one recurrence per block row, a product and two fused multiply-adds
// (spmv1). On an AVX2 + FMA host every m runs an assembly kernel with
// the Go loops' bits (the paper's code generator emits a SIMD kernel
// per m): m = 1 keeps a block's three rows in lanes, every other m
// puts the m columns in lanes and runs the last m % 8 under a lane
// mask. Elsewhere m = 1 runs its own Go loop and every other m one
// generic loop.
//
// Thread blocking partitions block rows into contiguous ranges with
// approximately equal non-zero counts; each range is processed by one
// goroutine. The half-storage symmetric variant (SymMatrix), timed only
// by the benchmark's gspmv_* workloads since it lost every SD and serve
// point, keeps the upper triangle and scatters transpose
// contributions through a two-phase conflict-free schedule. Its
// kernels run an FMA chain, so their assembly needs FMA3 as well; with
// AVX-512 they run 16 columns a pass, and the last m % 8 in the AVX2
// kernel's unmasked 4-wide groups and 1-3 column tail.
package bcrs
