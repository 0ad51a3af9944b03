// AVX2 sweeps of the IC(0) preconditioner: the two block substitutions
// of IC0.Apply on one vector and of IC0.ApplyBlock on m interleaved
// columns.
//
// As in internal/bcrs/gspmv_amd64.s a SIMD lane never crosses a
// reduction: each lane carries one output value's scalar recurrence in
// the Go loops' exact operation order,
//
//	t = a0*y0; u = a1*y1; t = t+u; u = a2*y2; t = t+u; s = s-t
//
// with separate VMULPD/VADDPD/VSUBPD — an FMA would skip the roundings
// the Go expressions perform — so every result is bitwise what ic0.go's
// loops give. The inverse-diagonal step of a row is the Go expression
// transcribed, on scalars for one vector and on four columns per lane
// group for a block. No kernel checks an index: setPattern admits only
// columns in [0, i) for row i.

#include "textflag.h"

// func ic0ForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb int)
//
// Forward substitution L*y = r, y into z, on one vector. It is
// bcrs.spmv1AVX2 with the accumulator seeded from r and a subtract:
// block rows (0, 1, 2) in lanes (0, 3, 2), column c of the row-major
// block the blend of the loads at lower[c:] and lower[4+c:], its last
// value broadcast, so no load leaves the block.
TEXT ·ic0ForwardAVX2(SB), NOSPLIT, $0-56
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ lower+16(FP), SI
	MOVQ inv+24(FP), CX
	MOVQ z+32(FP), DX
	MOVQ r+40(FP), AX
	MOVQ nb+48(FP), R10
	MOVQ DX, BX                 // &z[3i]
	XORQ R9, R9                 // i
	MOVLQSX (R8), R11           // k

fwdrow:
	CMPQ R9, R10
	JGE  fwddone
	MOVLQSX 4(R8)(R9*4), R12    // row end
	VMOVSD  (AX), X0            // lanes (r0, 0, r2, r1)
	VMOVSD  16(AX), X1
	VMOVHPD 8(AX), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13    // &lower[9k]
	CMPQ    R11, R12
	JGE     fwddiag

fwdblk:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	LEAQ    (DX)(R14*8), R14    // &z[3j]
	VMOVUPD      (R13), Y1
	VBLENDPD     $4, 32(R13), Y1, Y1
	VMOVUPD      8(R13), Y2
	VBLENDPD     $4, 40(R13), Y2, Y2
	VMOVUPD      16(R13), Y3
	VBROADCASTSD 64(R13), Y7
	VBLENDPD     $4, Y7, Y3, Y3
	VBROADCASTSD (R14), Y4
	VBROADCASTSD 8(R14), Y5
	VBROADCASTSD 16(R14), Y6
	VMULPD Y4, Y1, Y1
	VMULPD Y5, Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y6, Y3, Y3
	VADDPD Y3, Y1, Y1
	VSUBPD Y1, Y0, Y0
	ADDQ $72, R13
	INCQ R11
	CMPQ R11, R12
	JLT  fwdblk

fwddiag:
	// z[3i..] = inv_i * s, inv_i lower triangular: s0 in X0, s2 in X1,
	// s1 in X2.
	VEXTRACTF128 $1, Y0, X1
	VUNPCKHPD    X1, X1, X2
	VMULSD (CX), X0, X3         // d0*s0
	VMOVSD X3, (BX)
	VMULSD 24(CX), X0, X3       // d3*s0 + d4*s1
	VMULSD 32(CX), X2, X4
	VADDSD X4, X3, X3
	VMOVSD X3, 8(BX)
	VMULSD 48(CX), X0, X3       // d6*s0 + d7*s1 + d8*s2
	VMULSD 56(CX), X2, X4
	VADDSD X4, X3, X3
	VMULSD 64(CX), X1, X4
	VADDSD X4, X3, X3
	VMOVSD X3, 16(BX)
	ADDQ $24, AX
	ADDQ $24, BX
	ADDQ $72, CX
	INCQ R9
	JMP  fwdrow

fwddone:
	VZEROUPPER
	RET

// func ic0BackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb int)
//
// Backward substitution L^T*x = y in place in z, on one vector. Row i,
// once solved, scatters into the rows before it, and a scatter needs no
// transpose: the lanes are z[3j], z[3j+1], z[3j+2] and the vectors the
// block's rows, row q times x_q. The load of the block's last row,
// lower[9k+6:9k+10], takes one value past the block — the next block's
// first, or the one float64 of slack setPattern keeps after the last —
// into lane 3, which is never stored; z[3j+3] exists because j < i.
TEXT ·ic0BackwardAVX2(SB), NOSPLIT, $0-48
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ lower+16(FP), SI
	MOVQ inv+24(FP), CX
	MOVQ z+32(FP), DX
	MOVQ nb+40(FP), R9          // i+1
	LEAQ (R9)(R9*2), R11
	LEAQ (DX)(R11*8), BX        // &z[3(i+1)]
	LEAQ (R9)(R9*8), R11
	LEAQ (CX)(R11*8), CX        // &inv[9(i+1)]

bwdrow:
	TESTQ R9, R9
	JLE   bwddone
	DECQ  R9
	SUBQ  $24, BX
	SUBQ  $72, CX
	// x = inv_i^T * s.
	VMOVSD (BX), X0             // s0
	VMOVSD 8(BX), X1            // s1
	VMOVSD 16(BX), X2           // s2
	VMULSD (CX), X0, X3         // d0*s0 + d3*s1 + d6*s2
	VMULSD 24(CX), X1, X4
	VADDSD X4, X3, X3
	VMULSD 48(CX), X2, X4
	VADDSD X4, X3, X3
	VMULSD 32(CX), X1, X5       // d4*s1 + d7*s2
	VMULSD 56(CX), X2, X4
	VADDSD X4, X5, X5
	VMULSD 64(CX), X2, X6       // d8*s2
	VMOVSD X3, (BX)
	VMOVSD X5, 8(BX)
	VMOVSD X6, 16(BX)
	VBROADCASTSD X3, Y3
	VBROADCASTSD X5, Y5
	VBROADCASTSD X6, Y6
	MOVLQSX (R8)(R9*4), R11     // k
	MOVLQSX 4(R8)(R9*4), R12    // row end
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13    // &lower[9k]
	CMPQ    R11, R12
	JGE     bwdrow

bwdblk:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	LEAQ    (DX)(R14*8), R14    // &z[3j]
	VMULPD  (R13), Y3, Y0       // (v0 v1 v2)*x0
	VMULPD  24(R13), Y5, Y1     // (v3 v4 v5)*x1
	VADDPD  Y1, Y0, Y0
	VMULPD  48(R13), Y6, Y1     // (v6 v7 v8)*x2
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R14), Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD X2, (R14)
	VEXTRACTF128 $1, Y2, X1
	VMOVSD  X1, 16(R14)
	ADDQ $72, R13
	INCQ R11
	CMPQ R11, R12
	JLT  bwdblk
	JMP  bwdrow

bwddone:
	VZEROUPPER
	RET

// The block sweeps: z and r are row-major with m columns, and the four
// lanes of a ymm are four adjacent columns, each running ApplyBlock's
// recurrence for its column — hence Apply's. They cover columns
// [0, mc), mc a positive multiple of 4, eight at a time while eight are
// left — two registers per value, so one broadcast of a matrix entry
// serves both — and then four; ic0.go's loops take columns [mc, m).
// Per block row the column groups are the outer loop and the row's
// blocks the inner, so a row's blocks are read from L1 after the first
// group.
//
// Every reduction in them is one of three shapes, on four or on eight
// columns: Y13 (and Y14 for columns 4..7) = the entries at o0, o1, o2
// of base, each broadcast, against a, b, c:
//
//	LIN1: e0*a    LIN2: e0*a + e1*b    LIN3: (e0*a + e1*b) + e2*c
//
// Y12 holds the broadcast and Y15 the product about to be added.

#define LIN1_4(base, o0, a) \
	VBROADCASTSD o0(base), Y12; \
	VMULPD       a, Y12, Y13

#define LIN2_4(base, o0, o1, a, b) \
	LIN1_4(base, o0, a); \
	VBROADCASTSD o1(base), Y12; \
	VMULPD       b, Y12, Y15; \
	VADDPD       Y15, Y13, Y13

#define LIN3_4(base, o0, o1, o2, a, b, c) \
	LIN2_4(base, o0, o1, a, b); \
	VBROADCASTSD o2(base), Y12; \
	VMULPD       c, Y12, Y15; \
	VADDPD       Y15, Y13, Y13

#define LIN1_8(base, o0, a, a4) \
	VBROADCASTSD o0(base), Y12; \
	VMULPD       a, Y12, Y13; \
	VMULPD       a4, Y12, Y14

#define LIN2_8(base, o0, o1, a, a4, b, b4) \
	LIN1_8(base, o0, a, a4); \
	VBROADCASTSD o1(base), Y12; \
	VMULPD       b, Y12, Y15; \
	VADDPD       Y15, Y13, Y13; \
	VMULPD       b4, Y12, Y15; \
	VADDPD       Y15, Y14, Y14

#define LIN3_8(base, o0, o1, o2, a, a4, b, b4, c, c4) \
	LIN2_8(base, o0, o1, a, a4, b, b4); \
	VBROADCASTSD o2(base), Y12; \
	VMULPD       c, Y12, Y15; \
	VADDPD       Y15, Y13, Y13; \
	VMULPD       c4, Y12, Y15; \
	VADDPD       Y15, Y14, Y14

// func ic0BlockForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb, m, mc int)
//
// Row i of the right-hand side in Y0/Y1, Y2/Y3, Y4/Y5 (its three scalar
// rows, columns c..c+3 / c+4..c+7), block column j's three rows of z in
// Y6..Y11 likewise; the four-column tail uses the first of each pair.
TEXT ·ic0BlockForwardAVX2(SB), NOSPLIT, $0-72
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ lower+16(FP), SI
	MOVQ inv+24(FP), CX
	MOVQ z+32(FP), DX
	MOVQ r+40(FP), AX
	MOVQ m+56(FP), R15
	SHLQ $3, R15                // row stride in bytes
	MOVQ mc+64(FP), R10
	SHLQ $3, R10                // column window in bytes
	MOVQ DX, BX                 // &z[3i][0]
	XORQ R9, R9                 // i

bfrow:
	CMPQ R9, nb+48(FP)
	JGE  bfdone
	XORQ R12, R12               // column byte offset

bfcol8:
	LEAQ 64(R12), R14
	CMPQ R14, R10
	JGT  bfcol4
	LEAQ    (AX)(R12*1), R14
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD (R14)(R15*1), Y2
	VMOVUPD 32(R14)(R15*1), Y3
	VMOVUPD (R14)(R15*2), Y4
	VMOVUPD 32(R14)(R15*2), Y5
	MOVLQSX (R8)(R9*4), R11     // k
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13    // &lower[9k]
	CMPL    R11, 4(R8)(R9*4)
	JGE     bfdiag8

bfblk8:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	IMULQ   R15, R14
	ADDQ    R12, R14
	ADDQ    DX, R14             // &z[3j][c]
	VMOVUPD (R14), Y6
	VMOVUPD 32(R14), Y7
	VMOVUPD (R14)(R15*1), Y8
	VMOVUPD 32(R14)(R15*1), Y9
	VMOVUPD (R14)(R15*2), Y10
	VMOVUPD 32(R14)(R15*2), Y11
	LIN3_8(R13, 0, 8, 16, Y6, Y7, Y8, Y9, Y10, Y11)
	VSUBPD Y13, Y0, Y0
	VSUBPD Y14, Y1, Y1
	LIN3_8(R13, 24, 32, 40, Y6, Y7, Y8, Y9, Y10, Y11)
	VSUBPD Y13, Y2, Y2
	VSUBPD Y14, Y3, Y3
	LIN3_8(R13, 48, 56, 64, Y6, Y7, Y8, Y9, Y10, Y11)
	VSUBPD Y13, Y4, Y4
	VSUBPD Y14, Y5, Y5
	ADDQ $72, R13
	INCQ R11
	CMPL R11, 4(R8)(R9*4)
	JLT  bfblk8

bfdiag8:
	LEAQ (BX)(R12*1), R14
	LIN1_8(CX, 0, Y0, Y1)
	VMOVUPD Y13, (R14)
	VMOVUPD Y14, 32(R14)
	LIN2_8(CX, 24, 32, Y0, Y1, Y2, Y3)
	VMOVUPD Y13, (R14)(R15*1)
	VMOVUPD Y14, 32(R14)(R15*1)
	LIN3_8(CX, 48, 56, 64, Y0, Y1, Y2, Y3, Y4, Y5)
	VMOVUPD Y13, (R14)(R15*2)
	VMOVUPD Y14, 32(R14)(R15*2)
	ADDQ $64, R12
	JMP  bfcol8

bfcol4:
	CMPQ R12, R10
	JGE  bfnext
	LEAQ    (AX)(R12*1), R14
	VMOVUPD (R14), Y0
	VMOVUPD (R14)(R15*1), Y2
	VMOVUPD (R14)(R15*2), Y4
	MOVLQSX (R8)(R9*4), R11
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13
	CMPL    R11, 4(R8)(R9*4)
	JGE     bfdiag4

bfblk4:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	IMULQ   R15, R14
	ADDQ    R12, R14
	ADDQ    DX, R14
	VMOVUPD (R14), Y6
	VMOVUPD (R14)(R15*1), Y8
	VMOVUPD (R14)(R15*2), Y10
	LIN3_4(R13, 0, 8, 16, Y6, Y8, Y10)
	VSUBPD Y13, Y0, Y0
	LIN3_4(R13, 24, 32, 40, Y6, Y8, Y10)
	VSUBPD Y13, Y2, Y2
	LIN3_4(R13, 48, 56, 64, Y6, Y8, Y10)
	VSUBPD Y13, Y4, Y4
	ADDQ $72, R13
	INCQ R11
	CMPL R11, 4(R8)(R9*4)
	JLT  bfblk4

bfdiag4:
	LEAQ (BX)(R12*1), R14
	LIN1_4(CX, 0, Y0)
	VMOVUPD Y13, (R14)
	LIN2_4(CX, 24, 32, Y0, Y2)
	VMOVUPD Y13, (R14)(R15*1)
	LIN3_4(CX, 48, 56, 64, Y0, Y2, Y4)
	VMOVUPD Y13, (R14)(R15*2)
	ADDQ $32, R12
	JMP  bfcol4

bfnext:
	LEAQ (R15)(R15*2), R14
	ADDQ R14, AX
	ADDQ R14, BX
	ADDQ $72, CX
	INCQ R9
	JMP  bfrow

bfdone:
	VZEROUPPER
	RET

// z[3j+q] -= (v[q]*x0 + v[3+q]*x1) + v[6+q]*x2 for q = 0, 1, 2, the
// solved row x in Y0..Y5, R14 at z[3j][c].
#define SCATTER8(o0, o1, o2, dst, dst4) \
	LIN3_8(R13, o0, o1, o2, Y0, Y1, Y2, Y3, Y4, Y5); \
	VMOVUPD dst, Y6; \
	VSUBPD  Y13, Y6, Y6; \
	VMOVUPD Y6, dst; \
	VMOVUPD dst4, Y7; \
	VSUBPD  Y14, Y7, Y7; \
	VMOVUPD Y7, dst4

#define SCATTER4(o0, o1, o2, dst) \
	LIN3_4(R13, o0, o1, o2, Y0, Y2, Y4); \
	VMOVUPD dst, Y6; \
	VSUBPD  Y13, Y6, Y6; \
	VMOVUPD Y6, dst

// func ic0BlockBackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb, m, mc int)
TEXT ·ic0BlockBackwardAVX2(SB), NOSPLIT, $0-64
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ lower+16(FP), SI
	MOVQ inv+24(FP), CX
	MOVQ z+32(FP), DX
	MOVQ nb+40(FP), R9          // i+1
	MOVQ m+48(FP), R15
	SHLQ $3, R15                // row stride in bytes
	MOVQ mc+56(FP), R10
	SHLQ $3, R10                // column window in bytes
	LEAQ (R15)(R15*2), AX       // block-row stride in bytes
	MOVQ R9, BX
	IMULQ AX, BX
	ADDQ DX, BX                 // &z[3(i+1)][0]
	LEAQ (R9)(R9*8), R11
	LEAQ (CX)(R11*8), CX        // &inv[9(i+1)]

bbrow:
	TESTQ R9, R9
	JLE   bbdone
	DECQ  R9
	SUBQ  AX, BX
	SUBQ  $72, CX
	XORQ  R12, R12              // column byte offset

bbcol8:
	LEAQ 64(R12), R14
	CMPQ R14, R10
	JGT  bbcol4
	// x = inv_i^T * s on eight columns, s in Y6..Y11.
	LEAQ    (BX)(R12*1), R14
	VMOVUPD (R14), Y6
	VMOVUPD 32(R14), Y7
	VMOVUPD (R14)(R15*1), Y8
	VMOVUPD 32(R14)(R15*1), Y9
	VMOVUPD (R14)(R15*2), Y10
	VMOVUPD 32(R14)(R15*2), Y11
	LIN3_8(CX, 0, 24, 48, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVAPD Y13, Y0
	VMOVAPD Y14, Y1
	LIN2_8(CX, 32, 56, Y8, Y9, Y10, Y11)
	VMOVAPD Y13, Y2
	VMOVAPD Y14, Y3
	LIN1_8(CX, 64, Y10, Y11)
	VMOVAPD Y13, Y4
	VMOVAPD Y14, Y5
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, (R14)(R15*1)
	VMOVUPD Y3, 32(R14)(R15*1)
	VMOVUPD Y4, (R14)(R15*2)
	VMOVUPD Y5, 32(R14)(R15*2)
	MOVLQSX (R8)(R9*4), R11     // k
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13    // &lower[9k]
	CMPL    R11, 4(R8)(R9*4)
	JGE     bbnext8

bbblk8:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	IMULQ   R15, R14
	ADDQ    R12, R14
	ADDQ    DX, R14             // &z[3j][c]
	SCATTER8(0, 24, 48, (R14), 32(R14))
	SCATTER8(8, 32, 56, (R14)(R15*1), 32(R14)(R15*1))
	SCATTER8(16, 40, 64, (R14)(R15*2), 32(R14)(R15*2))
	ADDQ $72, R13
	INCQ R11
	CMPL R11, 4(R8)(R9*4)
	JLT  bbblk8

bbnext8:
	ADDQ $64, R12
	JMP  bbcol8

bbcol4:
	CMPQ R12, R10
	JGE  bbrow
	LEAQ    (BX)(R12*1), R14
	VMOVUPD (R14), Y6
	VMOVUPD (R14)(R15*1), Y8
	VMOVUPD (R14)(R15*2), Y10
	LIN3_4(CX, 0, 24, 48, Y6, Y8, Y10)
	VMOVAPD Y13, Y0
	LIN2_4(CX, 32, 56, Y8, Y10)
	VMOVAPD Y13, Y2
	LIN1_4(CX, 64, Y10)
	VMOVAPD Y13, Y4
	VMOVUPD Y0, (R14)
	VMOVUPD Y2, (R14)(R15*1)
	VMOVUPD Y4, (R14)(R15*2)
	MOVLQSX (R8)(R9*4), R11
	LEAQ    (R11)(R11*8), R13
	LEAQ    (SI)(R13*8), R13
	CMPL    R11, 4(R8)(R9*4)
	JGE     bbnext4

bbblk4:
	MOVLQSX (DI)(R11*4), R14
	LEAQ    (R14)(R14*2), R14
	IMULQ   R15, R14
	ADDQ    R12, R14
	ADDQ    DX, R14
	SCATTER4(0, 24, 48, (R14))
	SCATTER4(8, 32, 56, (R14)(R15*1))
	SCATTER4(16, 40, 64, (R14)(R15*2))
	ADDQ $72, R13
	INCQ R11
	CMPL R11, 4(R8)(R9*4)
	JLT  bbblk4

bbnext4:
	ADDQ $32, R12
	JMP  bbcol4

bbdone:
	VZEROUPPER
	RET
