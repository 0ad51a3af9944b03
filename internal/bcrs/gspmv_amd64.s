// GSPMV inner kernels: one 3x3-block row, 8 columns at a time in ymm
// (AVX2, gspmvRowAVX2) or 16 at a time in zmm (AVX-512F,
// gspmvRowAVX512), every m >= 1: the last pass over a row's blocks
// runs its last group under a lane mask, so m % 8 columns cost one
// pass, never a pass of their own.
//
// The SIMD lanes run ACROSS the right-hand sides (the m dimension),
// never across the reduction: each lane carries one column's scalar
// recurrence with exactly the scalar kernels' operation order (spmv1
// in kernels.go)
//
//	t = a_r0*x0; t = fma(a_r1, x1, t); t = fma(a_r2, x2, t); acc += t
//
// so every column's result is bitwise-identical to the pure-Go
// kernels (and therefore to a single-vector SPMV of that column),
// whichever of the two widths ran it. VFMADD231PD rounds once, as
// math.FMA does, so the kernels need FMA3 besides AVX2 and Mul takes
// them only where cpufeat.FMA is set.
// A masked-off lane is neither read nor written (VMASKMOVPD, or an
// opmask on AVX-512), so no pass touches a column past the row's end.

#include "textflag.h"

// One block row r of one ymm group: acc += a_r0*x0 + a_r1*x1 + a_r2*x2,
// in the recurrence's order; the block is at R15.
#define YROW(off, x0, x1, x2, acc) \
	VBROADCASTSD off(R15), Y12; \
	VMULPD       x0, Y12, Y12; \
	VBROADCASTSD off+8(R15), Y13; \
	VFMADD231PD  x1, Y13, Y12; \
	VBROADCASTSD off+16(R15), Y13; \
	VFMADD231PD  x2, Y13, Y12; \
	VADDPD       Y12, acc, acc

// R11 = &x[colIdx[k]*3m + off], R15 = &vals[9k] for block k = R10.
#define XBLOCK \
	MOVLQSX (DI)(R10*4), R11; \
	IMULQ   R12, R11; \
	ADDQ    R9, R11; \
	LEAQ    (DX)(R11*8), R11; \
	LEAQ    (R10)(R10*8), R15; \
	SHLQ    $3, R15; \
	ADDQ    SI, R15

// func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)
//
// Computes yrow[r*m+c] = sum_k vals[k][r][:] . x[colIdx[k]*3m + c(:3)]
// for r in 0..2 and all m >= 1 columns. vals points at this row's
// first 3x3 block (9 float64 each), colIdx at its first column index,
// x at the full row-major multivector, yrow at this block row's 3*m
// output values. Eight columns a pass while eight are left; then one
// pass for the last 1-7: one group under the mask when at most four
// are left, else a whole group and a masked one.
//
// Register plan: Y0..Y5 accumulators (3 rows x 2 groups of 4 cols),
// Y6..Y11 the three x block rows (2 groups each), Y12/Y13 temps, Y15
// the tail's mask.
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
	MOVQ R13, AX
	SUBQ R9, AX             // columns left
	CMPQ AX, $8
	JLT  tail
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

	YROW(0, Y6, Y8, Y10, Y0)    // block row 0 -> acc Y0, Y1
	YROW(0, Y7, Y9, Y11, Y1)
	YROW(24, Y6, Y8, Y10, Y2)   // block row 1 -> acc Y2, Y3
	YROW(24, Y7, Y9, Y11, Y3)
	YROW(48, Y6, Y8, Y10, Y4)   // block row 2 -> acc Y4, Y5
	YROW(48, Y7, Y9, Y11, Y5)

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

tail:
	TESTQ AX, AX
	JLE   done
	// Y15 = the mask of the last group's n lanes: n = left, or left-4
	// when a whole group goes first.
	LEAQ    -4(AX), R14
	CMPQ    AX, $4
	CMOVQLE AX, R14
	NEGQ    R14
	LEAQ    lanemask<>+32(SB), R11
	VMOVUPD (R11)(R14*8), Y15
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	XORQ    R10, R10
	CMPQ    AX, $4
	JGT     tail8

tail4:
	CMPQ R10, CX
	JGE  tail4store
	XBLOCK
	VMASKMOVPD (R11), Y15, Y6
	VMASKMOVPD (R11)(R13*8), Y15, Y8
	LEAQ       (R11)(R13*8), R14
	VMASKMOVPD (R14)(R13*8), Y15, Y10
	YROW(0, Y6, Y8, Y10, Y0)
	YROW(24, Y6, Y8, Y10, Y2)
	YROW(48, Y6, Y8, Y10, Y4)
	INCQ R10
	JMP  tail4

tail4store:
	LEAQ       (BX)(R9*8), R11
	VMASKMOVPD Y0, Y15, (R11)
	LEAQ       (R11)(R13*8), R11
	VMASKMOVPD Y2, Y15, (R11)
	LEAQ       (R11)(R13*8), R11
	VMASKMOVPD Y4, Y15, (R11)
	JMP        done

tail8:
	CMPQ R10, CX
	JGE  tail8store
	XBLOCK
	VMOVUPD    (R11), Y6
	VMASKMOVPD 32(R11), Y15, Y7
	VMOVUPD    (R11)(R13*8), Y8
	VMASKMOVPD 32(R11)(R13*8), Y15, Y9
	LEAQ       (R11)(R13*8), R14
	VMOVUPD    (R14)(R13*8), Y10
	VMASKMOVPD 32(R14)(R13*8), Y15, Y11
	YROW(0, Y6, Y8, Y10, Y0)
	YROW(0, Y7, Y9, Y11, Y1)
	YROW(24, Y6, Y8, Y10, Y2)
	YROW(24, Y7, Y9, Y11, Y3)
	YROW(48, Y6, Y8, Y10, Y4)
	YROW(48, Y7, Y9, Y11, Y5)
	INCQ R10
	JMP  tail8

tail8store:
	LEAQ       (BX)(R9*8), R11
	VMOVUPD    Y0, (R11)
	VMASKMOVPD Y1, Y15, 32(R11)
	LEAQ       (R11)(R13*8), R11
	VMOVUPD    Y2, (R11)
	VMASKMOVPD Y3, Y15, 32(R11)
	LEAQ       (R11)(R13*8), R11
	VMOVUPD    Y4, (R11)
	VMASKMOVPD Y5, Y15, 32(R11)

done:
	VZEROUPPER
	RET

// lanemask<>+8*(4-n) is the VMASKMOVPD mask of a group's first n lanes.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// func gspmvRowAVX512(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)
//
// gspmvRowAVX2 at twice the width: 8 columns per zmm, two zmm groups
// per block row, so 16 columns per pass over the row's blocks while 16
// are left, one group for a last 8, and for a last 1-15 that are not 8
// a pass whose last group runs under the opmask K1. Each block entry is
// broadcast by the multiply that reads it ({1to8}), and the lanes keep
// the recurrence above.
//
// Register plan: Z0..Z5 accumulators (3 rows x 2 groups of 8 cols),
// Z6..Z11 the three x block rows (2 groups each), Z12 the temp.

// One block row r of one group: acc += a_r0*x0 + a_r1*x1 + a_r2*x2,
// in the recurrence's order; the block is at R15.
#define ZROW(off, x0, x1, x2, acc) \
	VMULPD.BCST      off(R15), x0, Z12; \
	VFMADD231PD.BCST off+8(R15), x1, Z12; \
	VFMADD231PD.BCST off+16(R15), x2, Z12; \
	VADDPD           Z12, acc, acc

// K1 = the low (AX mod 8) lanes: the columns of the last group.
#define ZMASK \
	MOVQ  CX, R14; \
	MOVQ  AX, CX; \
	ANDQ  $7, CX; \
	MOVL  $1, R11; \
	SHLL  CX, R11; \
	DECL  R11; \
	KMOVW R11, K1; \
	MOVQ  R14, CX

TEXT ·gspmvRowAVX512(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), SI
	MOVQ colIdx+8(FP), DI
	MOVQ nblk+16(FP), CX
	MOVQ x+24(FP), DX
	MOVQ yrow+32(FP), BX
	MOVQ m+40(FP), R13
	LEAQ (R13)(R13*2), R12  // 3m
	XORQ R9, R9             // column offset

zcolloop:
	MOVQ   R13, AX
	SUBQ   R9, AX           // columns left
	JLE    zdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	MOVQ   SI, R15          // this row's first block
	XORQ   R10, R10         // block counter
	CMPQ   AX, $8
	JLT    zmask8
	JEQ    z8loop
	CMPQ   AX, $16
	JLT    zmask16

z16loop:
	CMPQ R10, CX
	JGE  zstore16

	// x block pointer: x + (colIdx[k]*3m + off)*8
	MOVLQSX (DI)(R10*4), R11
	IMULQ   R12, R11
	ADDQ    R9, R11
	LEAQ    (DX)(R11*8), R11
	VMOVUPD (R11), Z6              // x row0, cols off..off+7
	VMOVUPD 64(R11), Z7            // x row0, cols off+8..off+15
	VMOVUPD (R11)(R13*8), Z8       // x row1
	VMOVUPD 64(R11)(R13*8), Z9
	LEAQ    (R11)(R13*8), R14
	VMOVUPD (R14)(R13*8), Z10      // x row2
	VMOVUPD 64(R14)(R13*8), Z11

	ZROW(0, Z6, Z8, Z10, Z0)
	ZROW(0, Z7, Z9, Z11, Z1)
	ZROW(24, Z6, Z8, Z10, Z2)
	ZROW(24, Z7, Z9, Z11, Z3)
	ZROW(48, Z6, Z8, Z10, Z4)
	ZROW(48, Z7, Z9, Z11, Z5)

	ADDQ $72, R15
	INCQ R10
	JMP  z16loop

zstore16:
	// y row r lives at yrow + (r*m + off)*8
	LEAQ    (BX)(R9*8), R11
	VMOVUPD Z0, (R11)
	VMOVUPD Z1, 64(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z2, (R11)
	VMOVUPD Z3, 64(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z4, (R11)
	VMOVUPD Z5, 64(R11)
	ADDQ    $16, R9
	JMP     zcolloop

z8loop:
	// The last 8 columns: one group.
	CMPQ R10, CX
	JGE  zstore8
	MOVLQSX (DI)(R10*4), R11
	IMULQ   R12, R11
	ADDQ    R9, R11
	LEAQ    (DX)(R11*8), R11
	VMOVUPD (R11), Z6
	VMOVUPD (R11)(R13*8), Z8
	LEAQ    (R11)(R13*8), R14
	VMOVUPD (R14)(R13*8), Z10

	ZROW(0, Z6, Z8, Z10, Z0)
	ZROW(24, Z6, Z8, Z10, Z2)
	ZROW(48, Z6, Z8, Z10, Z4)

	ADDQ $72, R15
	INCQ R10
	JMP  z8loop

zstore8:
	LEAQ    (BX)(R9*8), R11
	VMOVUPD Z0, (R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z2, (R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z4, (R11)
	JMP     zdone

	// The last 9-15 columns: a whole group and a masked one.
zmask16:
	ZMASK
zm16loop:
	CMPQ R10, CX
	JGE  zstorem16
	MOVLQSX   (DI)(R10*4), R11
	IMULQ     R12, R11
	ADDQ      R9, R11
	LEAQ      (DX)(R11*8), R11
	VMOVUPD   (R11), Z6
	VMOVUPD.Z 64(R11), K1, Z7
	VMOVUPD   (R11)(R13*8), Z8
	VMOVUPD.Z 64(R11)(R13*8), K1, Z9
	LEAQ      (R11)(R13*8), R14
	VMOVUPD   (R14)(R13*8), Z10
	VMOVUPD.Z 64(R14)(R13*8), K1, Z11

	ZROW(0, Z6, Z8, Z10, Z0)
	ZROW(0, Z7, Z9, Z11, Z1)
	ZROW(24, Z6, Z8, Z10, Z2)
	ZROW(24, Z7, Z9, Z11, Z3)
	ZROW(48, Z6, Z8, Z10, Z4)
	ZROW(48, Z7, Z9, Z11, Z5)

	ADDQ $72, R15
	INCQ R10
	JMP  zm16loop

zstorem16:
	LEAQ    (BX)(R9*8), R11
	VMOVUPD Z0, (R11)
	VMOVUPD Z1, K1, 64(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z2, (R11)
	VMOVUPD Z3, K1, 64(R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z4, (R11)
	VMOVUPD Z5, K1, 64(R11)
	JMP     zdone

	// The last 1-7 columns: one masked group.
zmask8:
	ZMASK
zm8loop:
	CMPQ R10, CX
	JGE  zstorem8
	MOVLQSX   (DI)(R10*4), R11
	IMULQ     R12, R11
	ADDQ      R9, R11
	LEAQ      (DX)(R11*8), R11
	VMOVUPD.Z (R11), K1, Z6
	VMOVUPD.Z (R11)(R13*8), K1, Z8
	LEAQ      (R11)(R13*8), R14
	VMOVUPD.Z (R14)(R13*8), K1, Z10

	ZROW(0, Z6, Z8, Z10, Z0)
	ZROW(24, Z6, Z8, Z10, Z2)
	ZROW(48, Z6, Z8, Z10, Z4)

	ADDQ $72, R15
	INCQ R10
	JMP  zm8loop

zstorem8:
	LEAQ    (BX)(R9*8), R11
	VMOVUPD Z0, K1, (R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z2, K1, (R11)
	LEAQ    (R11)(R13*8), R11
	VMOVUPD Z4, K1, (R11)

zdone:
	VZEROUPPER
	RET

// Columns 0, 1, 2 of the row-major 3x3 block v at base into Y1..Y3,
// rows (0, 1, 2) in lanes (0, 3, 2): loads of v[0:4], v[4:8] and v[8]
// (a broadcast: no read past the block), then shuffles. Y7, Y8 temps.
#define BLOCKCOLS(base) \
	VMOVUPD      (base), Y1; \
	VMOVUPD      32(base), Y2; \
	VBROADCASTSD 64(base), Y3; \
	VPERM2F128   $0x21, Y3, Y1, Y3; \
	VPERM2F128   $0, Y2, Y2, Y7; \
	VBLENDPD     $12, Y2, Y1, Y8; \
	VBLENDPD     $4, Y2, Y1, Y1; \
	VSHUFPD      $5, Y7, Y8, Y2; \
	VSHUFPD      $8, Y7, Y3, Y3

// func spmv1AVX2(rowPtr, colIdx *int32, vals, x, y *float64, lo, hi int)
//
// The m = 1 multiply over block rows [lo, hi): y[3i..3i+2] = sum_k
// vals[k] * x[3*colIdx[k]..]. With one right-hand side there is no m
// to put in lanes, so the lanes hold the block's three ROWS — rows
// (0, 1, 2) in lanes (0, 3, 2) of a ymm, lane 1 unused — and each runs
// spmv1's scalar recurrence for its row,
//
//	t = a_r0*x0; t = fma(a_r1, x1, t); t = fma(a_r2, x2, t); acc += t
//
// so the three results carry the Go kernel's bits. BLOCKCOLS builds
// the block's three columns from three loads: nothing is read outside
// [vals, vals + 72*nblk) or outside the three x values a block
// addresses.
//
// Y0 accumulator, Y1..Y3 block columns, Y4..Y6 x broadcasts, Y7/Y8
// temps.
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
	BLOCKCOLS(R13)
	VBROADCASTSD (R14), Y4
	VBROADCASTSD 8(R14), Y5
	VBROADCASTSD 16(R14), Y6
	VMULPD      Y4, Y1, Y1
	VFMADD231PD Y5, Y2, Y1
	VFMADD231PD Y6, Y3, Y1
	VADDPD      Y1, Y0, Y0
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
