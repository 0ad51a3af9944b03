// AVX2 block-vector kernels for block CG: V = R + X*A (AddMul and
// SetMulAdd), G += X^T*Y (Gram) and per-column sums of squares.
//
// As in internal/bcrs/gspmv_amd64.s the SIMD lanes run ACROSS the
// columns (4 per ymm group), never across a reduction: each lane
// carries one output element's scalar recurrence
//
//	acc = acc + (x * a)
//
// over k (or over the rows i, for the two reductions) in the generic
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

// func colSumSqAVX2(sums, v *float64, nrows, m int)
//
// sums[j] += sum_i v[i][j]^2, rows added in increasing i. The
// accumulators stay in memory: the m/4 column groups of a row are
// independent, which overlaps their store-to-load round trips.
TEXT ·colSumSqAVX2(SB), NOSPLIT, $0-32
	MOVQ sums+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ nrows+16(FP), CX
	MOVQ m+24(FP), R9
	SHLQ $3, R9

sumsqrows:
	XORQ R10, R10

sumsqcols:
	VMOVUPD (SI)(R10*1), Y0
	VMULPD  Y0, Y0, Y0
	VADDPD  (DI)(R10*1), Y0, Y0
	VMOVUPD Y0, (DI)(R10*1)
	ADDQ    $32, R10
	CMPQ    R10, R9
	JLT     sumsqcols

	ADDQ R9, SI
	DECQ CX
	JNZ  sumsqrows

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
