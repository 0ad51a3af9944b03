// AVX2 block-vector kernels for block CG: V = R + X*A (AddMul and
// SetMulAdd) and G += X^T*Y (Gram); and the column-lane sweeps of
// lanes.go: ColDots, ColUpdate and ColDirection over a run of lanes,
// and all five sweeps on one-lane blocks, rows in the lanes.
//
// As in internal/bcrs/gspmv_amd64.s the SIMD lanes run ACROSS the
// columns (4 per ymm group), never across a reduction: each lane
// carries one output element's scalar recurrence
//
//	acc = acc + (x * a)
//
// over k (or over the rows i, for the Gram product) in the generic
// Go loops' exact order, with separate VMULPD/VADDPD — an FMA would
// skip the product's rounding. Every result is therefore bitwise
// identical to multivec.go's loops. All kernels require a square
// m-by-m small operand with m a positive multiple of 4 and
// nrows >= 1; one column-group loop covers every such m.
//
// Register tiles are 4 accumulators wide — 4 rows by one column
// group — which is what hides VADDPD's 4-cycle latency: the adds of
// one tile form 4 independent chains, the multiplies hang off them.

#include "textflag.h"

// One k of the 4-row tile: acc_r += x[r][k] * a[k][j..j+3].
// R14 -> a[k][j], R15 -> x[0][k0], R9 = row stride, R13 = 3*R9.
#define MULADD4(off) \
	VMOVUPD      (R14), Y4; \
	VBROADCASTSD off(R15), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y0, Y0; \
	VBROADCASTSD off(R15)(R9*1), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y1, Y1; \
	VBROADCASTSD off(R15)(R9*2), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y2, Y2; \
	VBROADCASTSD off(R15)(R13*1), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y3, Y3; \
	ADDQ         R9, R14

// One k of the single-row tile.
#define MULADD1(off) \
	VBROADCASTSD off(R15), Y5; \
	VMULPD       (R14), Y5, Y5; \
	VADDPD       Y5, Y0, Y0; \
	ADDQ         R9, R14

// func mulAddAVX2(dst, src, x, a *float64, nrows, m int)
//
// dst[i][j] = src[i][j] + sum_k x[i][k]*a[k][j] for i < nrows, the
// sum taken in increasing k starting from src[i][j]. dst may be src
// (AddMul); x must not overlap dst.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ a+24(FP), BX
	MOVQ nrows+32(FP), CX
	MOVQ m+40(FP), R8
	MOVQ R8, R9
	SHLQ $3, R9             // row stride in bytes
	LEAQ (R9)(R9*2), R13    // 3 strides
	SHRQ $2, R8             // k-loop trips (unrolled by 4)

rows4:
	CMPQ CX, $4
	JLT  rows1
	XORQ R10, R10           // column byte offset

cols4:
	LEAQ    (SI)(R10*1), R11
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(R9*1), Y1
	VMOVUPD (R11)(R9*2), Y2
	VMOVUPD (R11)(R13*1), Y3
	LEAQ    (BX)(R10*1), R14
	MOVQ    DX, R15
	MOVQ    R8, AX

k4:
	MULADD4(0)
	MULADD4(8)
	MULADD4(16)
	MULADD4(24)
	ADDQ $32, R15
	DECQ AX
	JNZ  k4

	LEAQ    (DI)(R10*1), R11
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, (R11)(R9*1)
	VMOVUPD Y2, (R11)(R9*2)
	VMOVUPD Y3, (R11)(R13*1)
	ADDQ    $32, R10
	CMPQ    R10, R9
	JLT     cols4

	LEAQ (DI)(R9*4), DI
	LEAQ (SI)(R9*4), SI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, CX
	JMP  rows4

rows1:
	TESTQ CX, CX
	JZ    muladddone
	XORQ  R10, R10

cols1:
	VMOVUPD (SI)(R10*1), Y0
	LEAQ    (BX)(R10*1), R14
	MOVQ    DX, R15
	MOVQ    R8, AX

k1:
	MULADD1(0)
	MULADD1(8)
	MULADD1(16)
	MULADD1(24)
	ADDQ $32, R15
	DECQ AX
	JNZ  k1

	VMOVUPD Y0, (DI)(R10*1)
	ADDQ    $32, R10
	CMPQ    R10, R9
	JLT     cols1

	ADDQ R9, DI
	ADDQ R9, SI
	ADDQ R9, DX
	DECQ CX
	JMP  rows1

muladddone:
	VZEROUPPER
	RET

// func gramAVX2(acc, x, y *float64, nrows, m int)
//
// acc[a][b] += sum_i x[i][a]*y[i][b], rows added in increasing i. Each
// 4-by-4 tile of acc is held in registers for a full pass over the
// rows, so the caller keeps nrows small enough for those rows of x
// and y to stay in L1 across the (m/4)^2 passes.
TEXT ·gramAVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ nrows+24(FP), CX
	MOVQ m+32(FP), R9
	SHLQ $3, R9             // row stride in bytes
	LEAQ (R9)(R9*2), R13    // 3 strides
	XORQ R12, R12           // byte offset of column a in a row of x

gramrows:
	XORQ R10, R10           // byte offset of column b in a row of y

gramcols:
	LEAQ    (DI)(R10*1), R11
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(R9*1), Y1
	VMOVUPD (R11)(R9*2), Y2
	VMOVUPD (R11)(R13*1), Y3
	LEAQ    (SI)(R12*1), R14
	LEAQ    (DX)(R10*1), R15
	MOVQ    CX, AX

gramsweep:
	VMOVUPD      (R15), Y4
	VBROADCASTSD (R14), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD 8(R14), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD 16(R14), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y2, Y2
	VBROADCASTSD 24(R14), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ         R9, R14
	ADDQ         R9, R15
	DECQ         AX
	JNZ          gramsweep

	VMOVUPD Y0, (R11)
	VMOVUPD Y1, (R11)(R9*1)
	VMOVUPD Y2, (R11)(R9*2)
	VMOVUPD Y3, (R11)(R13*1)
	ADDQ    $32, R10
	CMPQ    R10, R9
	JLT     gramcols

	LEAQ (DI)(R9*4), DI     // next 4 rows of acc
	ADDQ $32, R12
	CMPQ R12, R9
	JLT  gramrows

	VZEROUPPER
	RET

// func chebStepAVX2(y, t, cur, prev *float64, n int, alpha, beta, c float64)
//
// One degree of the Chebyshev recurrence and its term of the sum, in
// one pass over n >= 1 elements:
//
//	t[i] = 2*(alpha*t[i] + beta*cur[i]) - prev[i];  y[i] += c*t[i]
//
// Every element is ChebyshevStep's scalar expression in its order —
// x+x is 2*x exactly — four to a register and then one at a time, so
// where the vector loop ends never shows in a bit.
TEXT ·chebStepAVX2(SB), NOSPLIT, $0-64
	MOVQ y+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ cur+16(FP), DX
	MOVQ prev+24(FP), BX
	MOVQ n+32(FP), CX
	VBROADCASTSD alpha+40(FP), Y4
	VBROADCASTSD beta+48(FP), Y5
	VBROADCASTSD c+56(FP), Y6
	XORQ AX, AX
	SUBQ $4, CX
	JLT  chebtail

cheb4:
	VMULPD  (SI)(AX*8), Y4, Y0
	VMULPD  (DX)(AX*8), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VADDPD  Y0, Y0, Y0
	VSUBPD  (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	VMULPD  Y6, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     cheb4

chebtail:
	ADDQ $4, CX

cheb1:
	CMPQ AX, CX
	JGE  chebdone
	VMULSD (SI)(AX*8), X4, X0
	VMULSD (DX)(AX*8), X5, X1
	VADDSD X1, X0, X0
	VADDSD X0, X0, X0
	VSUBSD (BX)(AX*8), X0, X0
	VMOVSD X0, (SI)(AX*8)
	VMULSD X6, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    cheb1

chebdone:
	VZEROUPPER
	RET

// The column-lane sweeps. Each takes every column of nrows rows of
// w-wide row-major blocks, every block pointer at lane 0 of the first
// row, and walks the rows in increasing order. Per row the lanes are
// covered four to a ymm and then one at a time for the last w%4, in
// one pass, so every lane is its Go loop's recurrence — the product
// rounded before the add, VMULPD/VSUBPD/VADDPD kept apart. A
// reduction adds row i of the call into run i%8 of its partials, eight
// runs of w lanes the caller cleared: the current run's address cycles
// through the eight, and a lane's add chain goes through its store.
// nrows >= 1, w >= 1.

// LANEPROLOGUE loads w and leaves R8 = row stride in bytes, the bytes
// of all the lanes, and R10 = bytes of their whole ymm groups.
#define LANEPROLOGUE(woff) \
	MOVQ woff(FP), R8; \
	MOVQ R8, R10; \
	ANDQ $-4, R10; \
	SHLQ $3, R8; \
	SHLQ $3, R10

// func colDotsAVX2(acc, x, y *float64, nrows, w int)
//
// acc[i%8][j] += x[i][j]*y[i][j] over the rows i, for the lanes j < w.
TEXT ·colDotsAVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ nrows+24(FP), CX
	LANEPROLOGUE(w+32)
	MOVQ DI, R11            // run 0 of the partials
	LEAQ (DI)(R8*8), R12    // past run 7

dotrow:
	XORQ AX, AX
	CMPQ AX, R10
	JGE  dottail

dot4:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (DX)(AX*1), Y0, Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     dot4

dottail:
	CMPQ   AX, R8
	JGE    dotnext
	VMOVSD (SI)(AX*1), X0
	VMULSD (DX)(AX*1), X0, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    dottail

dotnext:
	ADDQ R8, SI
	ADDQ R8, DX
	ADDQ R8, DI
	CMPQ DI, R12
	JLT  dotrun
	MOVQ R11, DI

dotrun:
	DECQ CX
	JNZ  dotrow

	VZEROUPPER
	RET

// func colUpdateAVX2(x, r, p, ap, alpha, acc *float64, nrows, w int)
//
// Per row i and lane j: x += p*alpha; v = r - ap*alpha; r = v;
// acc[i%8][j] += v*v.
TEXT ·colUpdateAVX2(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ ap+24(FP), BX
	MOVQ alpha+32(FP), R11
	MOVQ acc+40(FP), R12
	MOVQ nrows+48(FP), CX
	LANEPROLOGUE(w+56)
	MOVQ R12, R13           // run 0 of the partials
	LEAQ (R12)(R8*8), R14   // past run 7

updrow:
	XORQ AX, AX
	CMPQ AX, R10
	JGE  updtail

upd4:
	VMOVUPD (R11)(AX*1), Y2       // alpha
	VMULPD  (DX)(AX*1), Y2, Y0    // p*alpha
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)        // x
	VMULPD  (BX)(AX*1), Y2, Y1    // ap*alpha
	VMOVUPD (SI)(AX*1), Y0
	VSUBPD  Y1, Y0, Y0            // r - ap*alpha
	VMOVUPD Y0, (SI)(AX*1)        // r
	VMULPD  Y0, Y0, Y0
	VADDPD  (R12)(AX*1), Y0, Y0
	VMOVUPD Y0, (R12)(AX*1)       // acc
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     upd4

updtail:
	CMPQ   AX, R8
	JGE    updnext
	VMOVSD (R11)(AX*1), X2
	VMULSD (DX)(AX*1), X2, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	VMULSD (BX)(AX*1), X2, X1
	VMOVSD (SI)(AX*1), X0
	VSUBSD X1, X0, X0
	VMOVSD X0, (SI)(AX*1)
	VMULSD X0, X0, X0
	VADDSD (R12)(AX*1), X0, X0
	VMOVSD X0, (R12)(AX*1)
	ADDQ   $8, AX
	JMP    updtail

updnext:
	ADDQ R8, DI
	ADDQ R8, SI
	ADDQ R8, DX
	ADDQ R8, BX
	ADDQ R8, R12
	CMPQ R12, R14
	JLT  updrun
	MOVQ R13, R12

updrun:
	DECQ CX
	JNZ  updrow

	VZEROUPPER
	RET

// func colDirectionAVX2(p, z, beta *float64, nrows, w int)
//
// Per row i and lane j: p = z + p*beta.
TEXT ·colDirectionAVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ beta+16(FP), DX
	MOVQ nrows+24(FP), CX
	LANEPROLOGUE(w+32)

dirrow:
	XORQ AX, AX
	CMPQ AX, R10
	JGE  dirtail

dir4:
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     dir4

dirtail:
	CMPQ   AX, R8
	JGE    dirnext
	VMOVSD (DX)(AX*1), X1
	VMULSD (DI)(AX*1), X1, X0
	VADDSD (SI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    dirtail

dirnext:
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  dirrow

	VZEROUPPER
	RET

// The one-lane sweeps: n >= 1 rows of one column, eight rows an
// iteration in two ymm and the last n%8 one at a time. Row i of a
// reduction adds into partial i%8 — rows 0-3 of an iteration are lanes
// of the first accumulator, rows 4-7 of the second, loaded from the
// caller's partials and stored back before the tail, whose row i adds
// into partial i&7 in memory. Every element is its Go loop's
// expression in its order.

// ONELANE starts a one-lane sweep over CX = n rows: AX = 0, the row,
// and R9 = n-8, the last row an eight-row iteration may start at; it
// jumps to tail when n < 8.
#define ONELANE(tail) \
	XORQ AX, AX; \
	MOVQ CX, R9; \
	SUBQ $8, R9; \
	JLT  tail

// PHASE leaves R10 = AX&7, the tail row's partial.
#define PHASE \
	MOVQ AX, R10; \
	ANDQ $7, R10

// func colDots1AVX2(acc, x, y *float64, n int)
//
// acc[i%8] += x[i]*y[i].
TEXT ·colDots1AVX2(SB), NOSPLIT, $0-32
	MOVQ    acc+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    y+16(FP), DX
	MOVQ    n+24(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	ONELANE(dot1tail)

dot1loop:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD  (DX)(AX*8), Y2, Y2
	VMULPD  32(DX)(AX*8), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLE     dot1loop

dot1tail:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

dot1one:
	CMPQ   AX, CX
	JGE    dot1done
	PHASE
	VMOVSD (SI)(AX*8), X2
	VMULSD (DX)(AX*8), X2, X2
	VADDSD (DI)(R10*8), X2, X2
	VMOVSD X2, (DI)(R10*8)
	INCQ   AX
	JMP    dot1one

dot1done:
	VZEROUPPER
	RET

// func colUpdate1AVX2(x, r, p, ap, acc *float64, n int, alpha float64)
//
// x[i] += p[i]*alpha; v = r[i] - ap[i]*alpha; r[i] = v; acc[i%8] += v*v.
TEXT ·colUpdate1AVX2(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), DI
	MOVQ         r+8(FP), SI
	MOVQ         p+16(FP), DX
	MOVQ         ap+24(FP), BX
	MOVQ         acc+32(FP), R8
	MOVQ         n+40(FP), CX
	VBROADCASTSD alpha+48(FP), Y15
	VMOVUPD      (R8), Y0
	VMOVUPD      32(R8), Y1
	ONELANE(upd1tail)

upd1loop:
	VMULPD  (DX)(AX*8), Y15, Y2     // p*alpha
	VMULPD  32(DX)(AX*8), Y15, Y3
	VADDPD  (DI)(AX*8), Y2, Y2
	VADDPD  32(DI)(AX*8), Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)          // x
	VMOVUPD Y3, 32(DI)(AX*8)
	VMULPD  (BX)(AX*8), Y15, Y4     // ap*alpha
	VMULPD  32(BX)(AX*8), Y15, Y5
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VSUBPD  Y4, Y2, Y2              // r - ap*alpha
	VSUBPD  Y5, Y3, Y3
	VMOVUPD Y2, (SI)(AX*8)          // r
	VMOVUPD Y3, 32(SI)(AX*8)
	VMULPD  Y2, Y2, Y2
	VMULPD  Y3, Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLE     upd1loop

upd1tail:
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)

upd1one:
	CMPQ   AX, CX
	JGE    upd1done
	PHASE
	VMULSD (DX)(AX*8), X15, X2
	VADDSD (DI)(AX*8), X2, X2
	VMOVSD X2, (DI)(AX*8)
	VMULSD (BX)(AX*8), X15, X4
	VMOVSD (SI)(AX*8), X2
	VSUBSD X4, X2, X2
	VMOVSD X2, (SI)(AX*8)
	VMULSD X2, X2, X2
	VADDSD (R8)(R10*8), X2, X2
	VMOVSD X2, (R8)(R10*8)
	INCQ   AX
	JMP    upd1one

upd1done:
	VZEROUPPER
	RET

// func colResidual1AVX2(r, b, ax, accB, accR *float64, n int)
//
// v = b[i] - ax[i]; r[i] = v; accB[i%8] += b[i]*b[i];
// accR[i%8] += v*v. r may be b or ax: a row's loads precede its store.
TEXT ·colResidual1AVX2(SB), NOSPLIT, $0-48
	MOVQ    r+0(FP), DI
	MOVQ    b+8(FP), SI
	MOVQ    ax+16(FP), DX
	MOVQ    accB+24(FP), BX
	MOVQ    accR+32(FP), R8
	MOVQ    n+40(FP), CX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD (R8), Y2
	VMOVUPD 32(R8), Y3
	ONELANE(res1tail)

res1loop:
	VMOVUPD (SI)(AX*8), Y4          // b
	VMOVUPD 32(SI)(AX*8), Y5
	VSUBPD  (DX)(AX*8), Y4, Y6      // b - ax
	VSUBPD  32(DX)(AX*8), Y5, Y7
	VMOVUPD Y6, (DI)(AX*8)          // r
	VMOVUPD Y7, 32(DI)(AX*8)
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLE     res1loop

res1tail:
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)

res1one:
	CMPQ   AX, CX
	JGE    res1done
	PHASE
	VMOVSD (SI)(AX*8), X4
	VSUBSD (DX)(AX*8), X4, X6
	VMOVSD X6, (DI)(AX*8)
	VMULSD X4, X4, X4
	VADDSD (BX)(R10*8), X4, X4
	VMOVSD X4, (BX)(R10*8)
	VMULSD X6, X6, X6
	VADDSD (R8)(R10*8), X6, X6
	VMOVSD X6, (R8)(R10*8)
	INCQ   AX
	JMP    res1one

res1done:
	VZEROUPPER
	RET

// func colDirection1AVX2(p, z *float64, n int, beta float64)
//
// p[i] = z[i] + p[i]*beta.
TEXT ·colDirection1AVX2(SB), NOSPLIT, $0-32
	MOVQ         p+0(FP), DI
	MOVQ         z+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD beta+24(FP), Y15
	ONELANE(dir1one)

dir1loop:
	VMULPD  (DI)(AX*8), Y15, Y0
	VMULPD  32(DI)(AX*8), Y15, Y1
	VADDPD  (SI)(AX*8), Y0, Y0
	VADDPD  32(SI)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLE     dir1loop

dir1one:
	CMPQ   AX, CX
	JGE    dir1done
	VMULSD (DI)(AX*8), X15, X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    dir1one

dir1done:
	VZEROUPPER
	RET

// func colThreeTerm1AVX2(u, q, prev *float64, n int, alpha, gi, h float64)
//
// u[i] = ((u[i] - alpha*q[i])*gi) - h*prev[i]. prev may be q.
TEXT ·colThreeTerm1AVX2(SB), NOSPLIT, $0-56
	MOVQ         u+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         prev+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD alpha+32(FP), Y13
	VBROADCASTSD gi+40(FP), Y14
	VBROADCASTSD h+48(FP), Y15
	ONELANE(tt1one)

tt1loop:
	VMULPD  (SI)(AX*8), Y13, Y0     // alpha*q
	VMULPD  32(SI)(AX*8), Y13, Y1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VSUBPD  Y0, Y2, Y2              // u - alpha*q
	VSUBPD  Y1, Y3, Y3
	VMULPD  Y14, Y2, Y2             // (...)*gi
	VMULPD  Y14, Y3, Y3
	VMULPD  (DX)(AX*8), Y15, Y0     // h*prev
	VMULPD  32(DX)(AX*8), Y15, Y1
	VSUBPD  Y0, Y2, Y2
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLE     tt1loop

tt1one:
	CMPQ   AX, CX
	JGE    tt1done
	VMULSD (SI)(AX*8), X13, X0
	VMOVSD (DI)(AX*8), X2
	VSUBSD X0, X2, X2
	VMULSD X14, X2, X2
	VMULSD (DX)(AX*8), X15, X0
	VSUBSD X0, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    tt1one

tt1done:
	VZEROUPPER
	RET
