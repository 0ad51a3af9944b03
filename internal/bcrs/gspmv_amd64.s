// AVX2 GSPMV inner kernel: one 3x3-block row, 8 columns at a time.
//
// The SIMD lanes run ACROSS the right-hand sides (the m dimension),
// never across the reduction: each lane carries one column's scalar
// recurrence with exactly the scalar kernels' operation order
//
//	t = a_r0*x0; u = a_r1*x1; t = t+u; u = a_r2*x2; t = t+u; acc += t
//
// so every column's result is bitwise-identical to the pure-Go
// kernels (and therefore to a single-vector SPMV of that column).
// FMA is deliberately NOT used: it would skip the intermediate
// rounding the scalar expression performs.

#include "textflag.h"

// func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)
//
// Computes yrow[r*m+c] = sum_k vals[k][r][:] . x[colIdx[k]*3m + c(:3)]
// for r in 0..2 and all m columns, m a multiple of 8. vals points at
// this row's first 3x3 block (9 float64 each), colIdx at its first
// column index, x at the full row-major multivector, yrow at this
// block row's 3*m output values.
//
// Register plan: Y0..Y5 accumulators (3 rows x 2 groups of 4 cols),
// Y6..Y11 the three x block rows (2 groups each), Y12/Y13 temps.
TEXT ·gspmvRowAVX2(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), SI
	MOVQ colIdx+8(FP), DI
	MOVQ nblk+16(FP), CX
	MOVQ x+24(FP), DX
	MOVQ yrow+32(FP), BX
	MOVQ m+40(FP), R13
	LEAQ (R13)(R13*2), R12  // 3m
	XORQ R9, R9             // column offset

colloop:
	CMPQ R9, R13
	JGE  done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ R10, R10           // block counter

blockloop:
	CMPQ R10, CX
	JGE  store

	// x block pointer: x + (colIdx[k]*3m + off)*8
	MOVLQSX (DI)(R10*4), R11
	IMULQ   R12, R11
	ADDQ    R9, R11
	LEAQ    (DX)(R11*8), R11
	VMOVUPD (R11), Y6              // x row0, cols off..off+3
	VMOVUPD 32(R11), Y7            // x row0, cols off+4..off+7
	VMOVUPD (R11)(R13*8), Y8       // x row1
	VMOVUPD 32(R11)(R13*8), Y9
	LEAQ    (R11)(R13*8), R14
	VMOVUPD (R14)(R13*8), Y10      // x row2
	VMOVUPD 32(R14)(R13*8), Y11

	// vals block pointer: vals + k*9*8
	LEAQ (R10)(R10*8), R15
	SHLQ $3, R15
	ADDQ SI, R15

	// block row 0 -> acc Y0, Y1
	VBROADCASTSD (R15), Y12
	VMULPD       Y6, Y12, Y12
	VBROADCASTSD 8(R15), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 16(R15), Y13
	VMULPD       Y10, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD (R15), Y12
	VMULPD       Y7, Y12, Y12
	VBROADCASTSD 8(R15), Y13
	VMULPD       Y9, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 16(R15), Y13
	VMULPD       Y11, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y1, Y1

	// block row 1 -> acc Y2, Y3
	VBROADCASTSD 24(R15), Y12
	VMULPD       Y6, Y12, Y12
	VBROADCASTSD 32(R15), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 40(R15), Y13
	VMULPD       Y10, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y2, Y2
	VBROADCASTSD 24(R15), Y12
	VMULPD       Y7, Y12, Y12
	VBROADCASTSD 32(R15), Y13
	VMULPD       Y9, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 40(R15), Y13
	VMULPD       Y11, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y3, Y3

	// block row 2 -> acc Y4, Y5
	VBROADCASTSD 48(R15), Y12
	VMULPD       Y6, Y12, Y12
	VBROADCASTSD 56(R15), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 64(R15), Y13
	VMULPD       Y10, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y4, Y4
	VBROADCASTSD 48(R15), Y12
	VMULPD       Y7, Y12, Y12
	VBROADCASTSD 56(R15), Y13
	VMULPD       Y9, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VBROADCASTSD 64(R15), Y13
	VMULPD       Y11, Y13, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y5, Y5

	INCQ R10
	JMP  blockloop

store:
	// y row r lives at yrow + (r*m + off)*8
	LEAQ    (BX)(R9*8), R11
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)

	ADDQ $8, R9
	JMP  colloop

done:
	VZEROUPPER
	RET

// func spmv1AVX2(rowPtr, colIdx *int32, vals, x, y *float64, lo, hi int)
//
// The m = 1 multiply over block rows [lo, hi): y[3i..3i+2] = sum_k
// vals[k] * x[3*colIdx[k]..]. With one right-hand side there is no m
// to put in lanes, so the lanes hold the block's three ROWS — rows
// (0, 1, 2) in lanes (0, 3, 2) of a ymm, lane 1 unused — and each runs
// spmv1's scalar recurrence for its row,
//
//	t = a_r0*x0; u = a_r1*x1; t = t+u; u = a_r2*x2; t = t+u; acc += t
//
// so the three results carry the Go kernel's bits. That lane order is
// what makes column c of the row-major block (v[c], v[3+c], v[6+c])
// two overlapping loads and a blend, with no shuffle: the load at
// vals[c:] has v[c] in lane 0 and v[c+3] in lane 3, the load at
// vals[4+c:] has v[6+c] in lane 2. For c = 2 the second load would
// pass the end of the block, so v[8] comes from a broadcast: nothing
// is read outside [vals, vals + 72*nblk) or outside the three x values
// a block addresses.
//
// Y0 accumulator, Y1..Y3 block columns, Y4..Y6 x broadcasts.
TEXT ·spmv1AVX2(SB), NOSPLIT, $0-56
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ vals+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ y+32(FP), BX
	MOVQ lo+40(FP), R9
	MOVQ hi+48(FP), R10
	LEAQ (R9)(R9*2), R11
	LEAQ (BX)(R11*8), BX        // &y[3*lo]

spmv1row:
	CMPQ R9, R10
	JGE  spmv1done
	MOVLQSX (R8)(R9*4), R11     // k
	MOVLQSX 4(R8)(R9*4), R12    // row end
	VXORPD  Y0, Y0, Y0
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13    // &vals[9k]
	CMPQ    R11, R12
	JGE     spmv1store

spmv1blk:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	LEAQ    (DX)(R14*8), R14    // &x[3j]
	VMOVUPD      (R13), Y1
	VBLENDPD     $4, 32(R13), Y1, Y1    // column 0
	VMOVUPD      8(R13), Y2
	VBLENDPD     $4, 40(R13), Y2, Y2    // column 1
	VMOVUPD      16(R13), Y3
	VBROADCASTSD 64(R13), Y7
	VBLENDPD     $4, Y7, Y3, Y3         // column 2
	VBROADCASTSD (R14), Y4
	VBROADCASTSD 8(R14), Y5
	VBROADCASTSD 16(R14), Y6
	VMULPD Y4, Y1, Y1
	VMULPD Y5, Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y6, Y3, Y3
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $72, R13
	INCQ R11
	CMPQ R11, R12
	JLT  spmv1blk

spmv1store:
	VMOVSD       X0, (BX)       // lane 0: row 0
	VEXTRACTF128 $1, Y0, X1
	VMOVHPD      X1, 8(BX)      // lane 3: row 1
	VMOVSD       X1, 16(BX)     // lane 2: row 2
	ADDQ $24, BX
	INCQ R9
	JMP  spmv1row

spmv1done:
	VZEROUPPER
	RET
