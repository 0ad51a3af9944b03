// AVX2+FMA and AVX-512 symmetric GSPMV kernels: symGspmvRowAVX2, one
// upper-triangle block row, columns [c0, c1) of an m-wide multivector,
// 4 columns at a time and the last 1-3 in one more pass;
// symGspmvRowAVX512, the same row 16 columns at a time and a last 8;
// and symSpmv1AVX2, the m = 1 multiply over a range of block rows.
//
// As in gspmv_amd64.s, SIMD lanes run ACROSS the right-hand sides
// (the m dimension), never across the reduction, and each lane
// carries one column's scalar recurrence with exactly the symmetric
// family's operation order — the FMA chain
//
//	acc = fma(a_r2, x2, fma(a_r1, x1, fma(a_r0, x0, acc)))
//
// (see sym_kernels.go). VFMADD231PD performs the same single-rounded
// fused step as math.FMA, so the SIMD result is bitwise-identical to
// the pure-Go symmetric kernels; Mul takes this path only where
// cpufeat.FMA is set. The general kernels fuse too, but start each
// block row from a plain product, t = a_r0*x0, and add t to the
// accumulator last (gspmv_amd64.s). Chaining all three fused steps onto
// the accumulator, as here, measured up to 1.11x slower there at m = 1,
// where they land on the lone accumulator, and at most 1.07x faster
// above it; one order serves every width of a format. The symmetric
// family takes the chain because it applies every off-diagonal block
// twice, and fewer ALU ops are what keep the kernel bandwidth-bound
// (where the half storage pays off) out to large m.
//
// The column bounds [c0, c1) leave m the row stride, so x/y/part
// addressing does not depend on them. symGspmvSIMD gives the AVX-512
// kernel columns [0, m&^7) of each row and the AVX2 one the rest (all
// of them without AVX-512). After its 4-wide groups, the AVX2 kernel
// runs the last 1-3 columns in one pass — in scalar registers, an xmm
// pair, or ymm lanes 0-2 — so every m > 1 takes a row kernel.
//
// The AVX2 group width is 4 (not the general kernel's 8) because the
// symmetric body keeps three vector sets live — direct accumulators,
// x row i for the transposed scatter, and x row j — which at width 8
// would need 18 of the 16 ymm registers. With 32 zmm registers the
// AVX-512 kernel holds all three at 16 columns (18 registers) and the
// block's nine broadcast coefficients besides.
//
// Each stored block is applied twice: directly into the accumulators
// for row i (seeded from y, which carries earlier in-range scatter),
// and — when j != i — transposed into row j, which lives in y when
// j < hi and in the caller's partial window (block row 0 == block row
// hi, full 3m row stride) otherwise.

#include "textflag.h"

// Three values at off+base into lanes 0-2 of y, whose low half is x:
// a pair and a scalar (X12), so a store of them forwards to the next
// load, as a masked move's would not.
#define LD3(off, base, y, x) \
	VMOVUPD     off base, x; \
	VMOVSD      off+16 base, X12; \
	VINSERTF128 $1, X12, y, y

#define ST3(off, base, y, x) \
	VMOVUPD      x, off base; \
	VEXTRACTF128 $1, y, X12; \
	VMOVSD       X12, off+16 base

// func symGspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)
//
// Register plan: Y0..Y2 direct accumulators (rows 0..2 of y block row
// i, one 4-column group), Y3..Y5 x block row i (scatter source),
// Y6..Y8 x block row j, Y9 broadcast coefficient, Y11 scatter
// accumulator; the X registers play the same roles in the 1- and
// 2-column tails, and X12 is LD3/ST3's scratch.
// GP: SI vals, DI colIdx, CX nblk, DX x, BX y, R8 part, AX i*3m,
// R9 column offset, R10 block counter, R11 j / scratch,
// R12 3m, R13 m, R14/R15 scratch.
TEXT ·symGspmvRowAVX2(SB), NOSPLIT, $0-88
	MOVQ  vals+0(FP), SI
	MOVQ  colIdx+8(FP), DI
	MOVQ  nblk+16(FP), CX
	MOVQ  x+24(FP), DX
	MOVQ  y+32(FP), BX
	MOVQ  part+40(FP), R8
	MOVQ  m+64(FP), R13
	LEAQ  (R13)(R13*2), R12 // 3m
	MOVQ  i+48(FP), AX
	IMULQ R12, AX           // i*3m: scalar offset of block row i
	MOVQ  c0+72(FP), R9     // column offset starts at the tile base

grouploop:
	MOVQ c1+80(FP), R14
	SUBQ R9, R14
	CMPQ R14, $4
	JLT  tail

	// Load x block row i (Y3..Y5) and the accumulators from y block
	// row i (Y0..Y2) for this column group.
	LEAQ    (AX)(R9*1), R14
	LEAQ    (DX)(R14*8), R15
	VMOVUPD (R15), Y3
	VMOVUPD (R15)(R13*8), Y4
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Y5
	LEAQ    (BX)(R14*8), R15
	VMOVUPD (R15), Y0
	VMOVUPD (R15)(R13*8), Y1
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Y2
	XORQ    R10, R10        // block counter

blockloop:
	CMPQ R10, CX
	JGE  storeacc

	// x block row j: x + (colIdx[k]*3m + off)*8
	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	VMOVUPD (R14), Y6
	VMOVUPD (R14)(R13*8), Y7
	LEAQ    (R14)(R13*8), R15
	VMOVUPD (R15)(R13*8), Y8

	// vals block pointer: vals + k*9*8
	LEAQ (R10)(R10*8), R15
	SHLQ $3, R15
	ADDQ SI, R15

	// Direct part, FMA chain per row:
	// acc row r = fma(v[3r+2], xj2, fma(v[3r+1], xj1, fma(v[3r], xj0, acc))).
	VBROADCASTSD (R15), Y9
	VFMADD231PD  Y6, Y9, Y0
	VBROADCASTSD 8(R15), Y9
	VFMADD231PD  Y7, Y9, Y0
	VBROADCASTSD 16(R15), Y9
	VFMADD231PD  Y8, Y9, Y0

	VBROADCASTSD 24(R15), Y9
	VFMADD231PD  Y6, Y9, Y1
	VBROADCASTSD 32(R15), Y9
	VFMADD231PD  Y7, Y9, Y1
	VBROADCASTSD 40(R15), Y9
	VFMADD231PD  Y8, Y9, Y1

	VBROADCASTSD 48(R15), Y9
	VFMADD231PD  Y6, Y9, Y2
	VBROADCASTSD 56(R15), Y9
	VFMADD231PD  Y7, Y9, Y2
	VBROADCASTSD 64(R15), Y9
	VFMADD231PD  Y8, Y9, Y2

	// Transposed scatter: skip the diagonal block.
	MOVQ i+48(FP), R14
	CMPQ R11, R14
	JEQ  nextblk

	// dst base: y when j < hi, else the partial window at j - hi.
	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  scat_y
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  scat_go

scat_y:
	MOVQ BX, R14

scat_go:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14 // dst row 0

	// dst row 0 = fma(v[6], xi2, fma(v[3], xi1, fma(v[0], xi0, dst)))
	VMOVUPD      (R14), Y11
	VBROADCASTSD (R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 24(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 48(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	VMOVUPD      Y11, (R14)

	// dst row 1 = fma(v[7], xi2, fma(v[4], xi1, fma(v[1], xi0, dst)))
	VMOVUPD      (R14)(R13*8), Y11
	VBROADCASTSD 8(R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 32(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 56(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	VMOVUPD      Y11, (R14)(R13*8)

	// dst row 2 = fma(v[8], xi2, fma(v[5], xi1, fma(v[2], xi0, dst)))
	LEAQ         (R14)(R13*8), R11
	VMOVUPD      (R11)(R13*8), Y11
	VBROADCASTSD 16(R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 40(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 64(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	VMOVUPD      Y11, (R11)(R13*8)

nextblk:
	INCQ R10
	JMP  blockloop

storeacc:
	// Store the accumulators back to y block row i.
	LEAQ    (AX)(R9*1), R14
	LEAQ    (BX)(R14*8), R15
	VMOVUPD Y0, (R15)
	VMOVUPD Y1, (R15)(R13*8)
	LEAQ    (R15)(R13*8), R15
	VMOVUPD Y2, (R15)(R13*8)

	ADDQ $4, R9
	JMP  grouploop

	// The last 1-3 columns, in one pass: two in xmm, one in scalar
	// registers, three in ymm lanes 0-2 read and written as a pair
	// and a scalar. No tail uses a masked move: a VMASKMOVPD store
	// does not forward to the next row's load of the same
	// destination, and that stall made a masked tail slower than two
	// passes.
tail:
	MOVQ c1+80(FP), R14
	SUBQ R9, R14
	JLE  done
	CMPQ R14, $2
	JLT  single
	JEQ  pair

	LEAQ (AX)(R9*1), R14
	LEAQ (DX)(R14*8), R15
	LD3(0, (R15), Y3, X3)
	LD3(0, (R15)(R13*8), Y4, X4)
	LEAQ (R15)(R13*8), R11
	LD3(0, (R11)(R13*8), Y5, X5)
	LEAQ (BX)(R14*8), R15
	LD3(0, (R15), Y0, X0)
	LD3(0, (R15)(R13*8), Y1, X1)
	LEAQ (R15)(R13*8), R11
	LD3(0, (R11)(R13*8), Y2, X2)
	XORQ R10, R10

blockloop3:
	CMPQ R10, CX
	JGE  storeacc3

	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	LD3(0, (R14), Y6, X6)
	LD3(0, (R14)(R13*8), Y7, X7)
	LEAQ    (R14)(R13*8), R15
	LD3(0, (R15)(R13*8), Y8, X8)

	LEAQ (R10)(R10*8), R15
	SHLQ $3, R15
	ADDQ SI, R15

	VBROADCASTSD (R15), Y9
	VFMADD231PD  Y6, Y9, Y0
	VBROADCASTSD 8(R15), Y9
	VFMADD231PD  Y7, Y9, Y0
	VBROADCASTSD 16(R15), Y9
	VFMADD231PD  Y8, Y9, Y0

	VBROADCASTSD 24(R15), Y9
	VFMADD231PD  Y6, Y9, Y1
	VBROADCASTSD 32(R15), Y9
	VFMADD231PD  Y7, Y9, Y1
	VBROADCASTSD 40(R15), Y9
	VFMADD231PD  Y8, Y9, Y1

	VBROADCASTSD 48(R15), Y9
	VFMADD231PD  Y6, Y9, Y2
	VBROADCASTSD 56(R15), Y9
	VFMADD231PD  Y7, Y9, Y2
	VBROADCASTSD 64(R15), Y9
	VFMADD231PD  Y8, Y9, Y2

	MOVQ i+48(FP), R14
	CMPQ R11, R14
	JEQ  nextblk3

	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  scat_y3
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  scat_go3

scat_y3:
	MOVQ BX, R14

scat_go3:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14

	LD3(0, (R14), Y11, X11)
	VBROADCASTSD (R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 24(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 48(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	ST3(0, (R14), Y11, X11)

	LD3(0, (R14)(R13*8), Y11, X11)
	VBROADCASTSD 8(R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 32(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 56(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	ST3(0, (R14)(R13*8), Y11, X11)

	LEAQ (R14)(R13*8), R11
	LD3(0, (R11)(R13*8), Y11, X11)
	VBROADCASTSD 16(R15), Y9
	VFMADD231PD  Y3, Y9, Y11
	VBROADCASTSD 40(R15), Y9
	VFMADD231PD  Y4, Y9, Y11
	VBROADCASTSD 64(R15), Y9
	VFMADD231PD  Y5, Y9, Y11
	ST3(0, (R11)(R13*8), Y11, X11)

nextblk3:
	INCQ R10
	JMP  blockloop3

storeacc3:
	LEAQ (AX)(R9*1), R14
	LEAQ (BX)(R14*8), R15
	ST3(0, (R15), Y0, X0)
	ST3(0, (R15)(R13*8), Y1, X1)
	LEAQ (R15)(R13*8), R15
	ST3(0, (R15)(R13*8), Y2, X2)
	JMP  done

pair:
	LEAQ    (AX)(R9*1), R14
	LEAQ    (DX)(R14*8), R15
	VMOVUPD (R15), X3
	VMOVUPD (R15)(R13*8), X4
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), X5
	LEAQ    (BX)(R14*8), R15
	VMOVUPD (R15), X0
	VMOVUPD (R15)(R13*8), X1
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), X2
	XORQ    R10, R10

blockloop2:
	CMPQ R10, CX
	JGE  storeacc2

	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	VMOVUPD (R14), X6
	VMOVUPD (R14)(R13*8), X7
	LEAQ    (R14)(R13*8), R15
	VMOVUPD (R15)(R13*8), X8

	LEAQ (R10)(R10*8), R15
	SHLQ $3, R15
	ADDQ SI, R15

	VMOVDDUP    (R15), X9
	VFMADD231PD X6, X9, X0
	VMOVDDUP    8(R15), X9
	VFMADD231PD X7, X9, X0
	VMOVDDUP    16(R15), X9
	VFMADD231PD X8, X9, X0

	VMOVDDUP    24(R15), X9
	VFMADD231PD X6, X9, X1
	VMOVDDUP    32(R15), X9
	VFMADD231PD X7, X9, X1
	VMOVDDUP    40(R15), X9
	VFMADD231PD X8, X9, X1

	VMOVDDUP    48(R15), X9
	VFMADD231PD X6, X9, X2
	VMOVDDUP    56(R15), X9
	VFMADD231PD X7, X9, X2
	VMOVDDUP    64(R15), X9
	VFMADD231PD X8, X9, X2

	MOVQ i+48(FP), R14
	CMPQ R11, R14
	JEQ  nextblk2

	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  scat_y2
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  scat_go2

scat_y2:
	MOVQ BX, R14

scat_go2:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14

	VMOVUPD     (R14), X11
	VMOVDDUP    (R15), X9
	VFMADD231PD X3, X9, X11
	VMOVDDUP    24(R15), X9
	VFMADD231PD X4, X9, X11
	VMOVDDUP    48(R15), X9
	VFMADD231PD X5, X9, X11
	VMOVUPD     X11, (R14)

	VMOVUPD     (R14)(R13*8), X11
	VMOVDDUP    8(R15), X9
	VFMADD231PD X3, X9, X11
	VMOVDDUP    32(R15), X9
	VFMADD231PD X4, X9, X11
	VMOVDDUP    56(R15), X9
	VFMADD231PD X5, X9, X11
	VMOVUPD     X11, (R14)(R13*8)

	LEAQ        (R14)(R13*8), R11
	VMOVUPD     (R11)(R13*8), X11
	VMOVDDUP    16(R15), X9
	VFMADD231PD X3, X9, X11
	VMOVDDUP    40(R15), X9
	VFMADD231PD X4, X9, X11
	VMOVDDUP    64(R15), X9
	VFMADD231PD X5, X9, X11
	VMOVUPD     X11, (R11)(R13*8)

nextblk2:
	INCQ R10
	JMP  blockloop2

storeacc2:
	LEAQ    (AX)(R9*1), R14
	LEAQ    (BX)(R14*8), R15
	VMOVUPD X0, (R15)
	VMOVUPD X1, (R15)(R13*8)
	LEAQ    (R15)(R13*8), R15
	VMOVUPD X2, (R15)(R13*8)

	JMP done

single:
	LEAQ   (AX)(R9*1), R14
	LEAQ   (DX)(R14*8), R15
	VMOVSD (R15), X3
	VMOVSD (R15)(R13*8), X4
	LEAQ   (R15)(R13*8), R11
	VMOVSD (R11)(R13*8), X5
	LEAQ   (BX)(R14*8), R15
	VMOVSD (R15), X0
	VMOVSD (R15)(R13*8), X1
	LEAQ   (R15)(R13*8), R11
	VMOVSD (R11)(R13*8), X2
	XORQ   R10, R10

blockloop1:
	CMPQ R10, CX
	JGE  storeacc1

	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	VMOVSD  (R14), X6
	VMOVSD  (R14)(R13*8), X7
	LEAQ    (R14)(R13*8), R15
	VMOVSD  (R15)(R13*8), X8

	LEAQ (R10)(R10*8), R15
	SHLQ $3, R15
	ADDQ SI, R15

	// Each block entry is read by the VFMADD231SD that uses it.
	VFMADD231SD (R15), X6, X0
	VFMADD231SD 8(R15), X7, X0
	VFMADD231SD 16(R15), X8, X0
	VFMADD231SD 24(R15), X6, X1
	VFMADD231SD 32(R15), X7, X1
	VFMADD231SD 40(R15), X8, X1
	VFMADD231SD 48(R15), X6, X2
	VFMADD231SD 56(R15), X7, X2
	VFMADD231SD 64(R15), X8, X2

	MOVQ i+48(FP), R14
	CMPQ R11, R14
	JEQ  nextblk1

	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  scat_y1
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  scat_go1

scat_y1:
	MOVQ BX, R14

scat_go1:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14

	VMOVSD      (R14), X11
	VFMADD231SD (R15), X3, X11
	VFMADD231SD 24(R15), X4, X11
	VFMADD231SD 48(R15), X5, X11
	VMOVSD      X11, (R14)

	VMOVSD      (R14)(R13*8), X11
	VFMADD231SD 8(R15), X3, X11
	VFMADD231SD 32(R15), X4, X11
	VFMADD231SD 56(R15), X5, X11
	VMOVSD      X11, (R14)(R13*8)

	LEAQ        (R14)(R13*8), R11
	VMOVSD      (R11)(R13*8), X11
	VFMADD231SD 16(R15), X3, X11
	VFMADD231SD 40(R15), X4, X11
	VFMADD231SD 64(R15), X5, X11
	VMOVSD      X11, (R11)(R13*8)

nextblk1:
	INCQ R10
	JMP  blockloop1

storeacc1:
	LEAQ   (AX)(R9*1), R14
	LEAQ   (BX)(R14*8), R15
	VMOVSD X0, (R15)
	VMOVSD X1, (R15)(R13*8)
	LEAQ   (R15)(R13*8), R15
	VMOVSD X2, (R15)(R13*8)

done:
	VZEROUPPER
	RET

// func symGspmvRowAVX512(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)
//
// symGspmvRowAVX2 at twice the width and with every coefficient in a
// register: 8 columns per zmm, two zmm per block row, so a pass over
// the row's blocks covers 16 columns while 16 are left, then one pass
// of 8. c1 - c0 must be a multiple of 8; symGspmvSIMD hands the last
// m % 8 columns to symGspmvRowAVX2's window. Each lane keeps the
// chains above with the same operand roles (accumulator, coefficient,
// x), so every column carries symGspmvGeneric's bits.
//
// With 32 registers the nine coefficients of a block are broadcast
// once and serve both writes and both groups.
//
// Register plan: Z0..Z5 direct accumulators (rows 0..2 of y block row
// i, two groups each: row r in Z(2r), Z(2r+1)), Z6..Z11 x block row i,
// Z12..Z17 x block row j, Z18..Z26 coefficients v[0..8], Z27..Z31
// scatter accumulators. GP as in symGspmvRowAVX2, except R15 is the
// block pointer, advanced 72 bytes a block.
// Z18..Z26 = the block at R15's nine entries, each in every lane.
#define ZCOEFS \
	VBROADCASTSD (R15), Z18; \
	VBROADCASTSD 8(R15), Z19; \
	VBROADCASTSD 16(R15), Z20; \
	VBROADCASTSD 24(R15), Z21; \
	VBROADCASTSD 32(R15), Z22; \
	VBROADCASTSD 40(R15), Z23; \
	VBROADCASTSD 48(R15), Z24; \
	VBROADCASTSD 56(R15), Z25; \
	VBROADCASTSD 64(R15), Z26

TEXT ·symGspmvRowAVX512(SB), NOSPLIT, $0-88
	MOVQ  vals+0(FP), SI
	MOVQ  colIdx+8(FP), DI
	MOVQ  nblk+16(FP), CX
	MOVQ  x+24(FP), DX
	MOVQ  y+32(FP), BX
	MOVQ  part+40(FP), R8
	MOVQ  m+64(FP), R13
	LEAQ  (R13)(R13*2), R12 // 3m
	MOVQ  i+48(FP), AX
	IMULQ R12, AX           // i*3m: scalar offset of block row i
	MOVQ  c0+72(FP), R9     // column offset

zgrouploop:
	MOVQ c1+80(FP), R14
	SUBQ R9, R14            // columns left
	CMPQ R14, $16
	JLT  zgroup8

	// x block row i (Z6..Z11) and the accumulators from y block row
	// i (Z0..Z5) for these 16 columns.
	LEAQ    (AX)(R9*1), R14
	LEAQ    (DX)(R14*8), R15
	VMOVUPD (R15), Z6
	VMOVUPD 64(R15), Z7
	VMOVUPD (R15)(R13*8), Z8
	VMOVUPD 64(R15)(R13*8), Z9
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Z10
	VMOVUPD 64(R11)(R13*8), Z11
	LEAQ    (BX)(R14*8), R15
	VMOVUPD (R15), Z0
	VMOVUPD 64(R15), Z1
	VMOVUPD (R15)(R13*8), Z2
	VMOVUPD 64(R15)(R13*8), Z3
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Z4
	VMOVUPD 64(R11)(R13*8), Z5
	MOVQ    SI, R15         // this row's first block
	XORQ    R10, R10        // block counter

z16blk:
	CMPQ R10, CX
	JGE  z16store

	// x block row j: x + (colIdx[k]*3m + off)*8
	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	VMOVUPD (R14), Z12
	VMOVUPD 64(R14), Z13
	VMOVUPD (R14)(R13*8), Z14
	VMOVUPD 64(R14)(R13*8), Z15
	LEAQ    (R14)(R13*8), R14
	VMOVUPD (R14)(R13*8), Z16
	VMOVUPD 64(R14)(R13*8), Z17

	ZCOEFS

	// Direct part: acc row r = fma(v[3r+2], xj2, fma(v[3r+1], xj1,
	// fma(v[3r], xj0, acc))).
	VFMADD231PD Z12, Z18, Z0
	VFMADD231PD Z13, Z18, Z1
	VFMADD231PD Z14, Z19, Z0
	VFMADD231PD Z15, Z19, Z1
	VFMADD231PD Z16, Z20, Z0
	VFMADD231PD Z17, Z20, Z1

	VFMADD231PD Z12, Z21, Z2
	VFMADD231PD Z13, Z21, Z3
	VFMADD231PD Z14, Z22, Z2
	VFMADD231PD Z15, Z22, Z3
	VFMADD231PD Z16, Z23, Z2
	VFMADD231PD Z17, Z23, Z3

	VFMADD231PD Z12, Z24, Z4
	VFMADD231PD Z13, Z24, Z5
	VFMADD231PD Z14, Z25, Z4
	VFMADD231PD Z15, Z25, Z5
	VFMADD231PD Z16, Z26, Z4
	VFMADD231PD Z17, Z26, Z5

	// Transposed scatter: skip the diagonal block.
	CMPQ R11, i+48(FP)
	JEQ  z16next

	// dst base: y when j < hi, else the partial window at j - hi.
	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  z16y
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  z16go

z16y:
	MOVQ BX, R14

z16go:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14 // dst row 0

	// dst row r = fma(v[6+r], xi2, fma(v[3+r], xi1, fma(v[r], xi0, dst)))
	VMOVUPD     (R14), Z27
	VMOVUPD     64(R14), Z28
	VFMADD231PD Z6, Z18, Z27
	VFMADD231PD Z7, Z18, Z28
	VFMADD231PD Z8, Z21, Z27
	VFMADD231PD Z9, Z21, Z28
	VFMADD231PD Z10, Z24, Z27
	VFMADD231PD Z11, Z24, Z28
	VMOVUPD     Z27, (R14)
	VMOVUPD     Z28, 64(R14)

	VMOVUPD     (R14)(R13*8), Z29
	VMOVUPD     64(R14)(R13*8), Z30
	VFMADD231PD Z6, Z19, Z29
	VFMADD231PD Z7, Z19, Z30
	VFMADD231PD Z8, Z22, Z29
	VFMADD231PD Z9, Z22, Z30
	VFMADD231PD Z10, Z25, Z29
	VFMADD231PD Z11, Z25, Z30
	VMOVUPD     Z29, (R14)(R13*8)
	VMOVUPD     Z30, 64(R14)(R13*8)

	LEAQ        (R14)(R13*8), R11
	VMOVUPD     (R11)(R13*8), Z31
	VMOVUPD     64(R11)(R13*8), Z27
	VFMADD231PD Z6, Z20, Z31
	VFMADD231PD Z7, Z20, Z27
	VFMADD231PD Z8, Z23, Z31
	VFMADD231PD Z9, Z23, Z27
	VFMADD231PD Z10, Z26, Z31
	VFMADD231PD Z11, Z26, Z27
	VMOVUPD     Z31, (R11)(R13*8)
	VMOVUPD     Z27, 64(R11)(R13*8)

z16next:
	ADDQ $72, R15
	INCQ R10
	JMP  z16blk

z16store:
	LEAQ    (AX)(R9*1), R14
	LEAQ    (BX)(R14*8), R15
	VMOVUPD Z0, (R15)
	VMOVUPD Z1, 64(R15)
	VMOVUPD Z2, (R15)(R13*8)
	VMOVUPD Z3, 64(R15)(R13*8)
	LEAQ    (R15)(R13*8), R15
	VMOVUPD Z4, (R15)(R13*8)
	VMOVUPD Z5, 64(R15)(R13*8)

	ADDQ $16, R9
	JMP  zgrouploop

	// The last 8 columns: the same pass with one group.
zgroup8:
	CMPQ R14, $8
	JLT  zdone

	LEAQ    (AX)(R9*1), R14
	LEAQ    (DX)(R14*8), R15
	VMOVUPD (R15), Z6
	VMOVUPD (R15)(R13*8), Z8
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Z10
	LEAQ    (BX)(R14*8), R15
	VMOVUPD (R15), Z0
	VMOVUPD (R15)(R13*8), Z2
	LEAQ    (R15)(R13*8), R11
	VMOVUPD (R11)(R13*8), Z4
	MOVQ    SI, R15
	XORQ    R10, R10

z8blk:
	CMPQ R10, CX
	JGE  z8store

	MOVLQSX (DI)(R10*4), R11
	MOVQ    R11, R14
	IMULQ   R12, R14
	ADDQ    R9, R14
	LEAQ    (DX)(R14*8), R14
	VMOVUPD (R14), Z12
	VMOVUPD (R14)(R13*8), Z14
	LEAQ    (R14)(R13*8), R14
	VMOVUPD (R14)(R13*8), Z16

	ZCOEFS

	VFMADD231PD Z12, Z18, Z0
	VFMADD231PD Z14, Z19, Z0
	VFMADD231PD Z16, Z20, Z0
	VFMADD231PD Z12, Z21, Z2
	VFMADD231PD Z14, Z22, Z2
	VFMADD231PD Z16, Z23, Z2
	VFMADD231PD Z12, Z24, Z4
	VFMADD231PD Z14, Z25, Z4
	VFMADD231PD Z16, Z26, Z4

	CMPQ R11, i+48(FP)
	JEQ  z8next

	MOVQ hi+56(FP), R14
	CMPQ R11, R14
	JLT  z8y
	SUBQ R14, R11
	MOVQ R8, R14
	JMP  z8go

z8y:
	MOVQ BX, R14

z8go:
	IMULQ R12, R11
	ADDQ  R9, R11
	LEAQ  (R14)(R11*8), R14

	VMOVUPD     (R14), Z27
	VFMADD231PD Z6, Z18, Z27
	VFMADD231PD Z8, Z21, Z27
	VFMADD231PD Z10, Z24, Z27
	VMOVUPD     Z27, (R14)

	VMOVUPD     (R14)(R13*8), Z29
	VFMADD231PD Z6, Z19, Z29
	VFMADD231PD Z8, Z22, Z29
	VFMADD231PD Z10, Z25, Z29
	VMOVUPD     Z29, (R14)(R13*8)

	LEAQ        (R14)(R13*8), R11
	VMOVUPD     (R11)(R13*8), Z31
	VFMADD231PD Z6, Z20, Z31
	VFMADD231PD Z8, Z23, Z31
	VFMADD231PD Z10, Z26, Z31
	VMOVUPD     Z31, (R11)(R13*8)

z8next:
	ADDQ $72, R15
	INCQ R10
	JMP  z8blk

z8store:
	LEAQ    (AX)(R9*1), R14
	LEAQ    (BX)(R14*8), R15
	VMOVUPD Z0, (R15)
	VMOVUPD Z2, (R15)(R13*8)
	LEAQ    (R15)(R13*8), R15
	VMOVUPD Z4, (R15)(R13*8)

zdone:
	VZEROUPPER
	RET

// func symSpmv1AVX2(rowPtr, colIdx *int32, vals, x, y, part *float64, lo, hi int)
//
// symSpmv1 over block rows [lo, hi), the same two writes per block and
// the same FMA chains, with one right-hand side. There is no m to put
// in lanes, so each write puts the block's three outputs in lanes:
//
//   - the direct part keeps row i's three accumulators in lanes
//     (0, 3, 2) of Y0, spmv1AVX2's lane layout, built here from its own
//     loads: block column c is the load at vals[c:] blended with lane 2
//     of the load at vals[4+c:] (for c = 2, a broadcast of v[8]), and
//     the chain is three VFMADD231PD against x_j's broadcasts;
//   - the transposed scatter keeps destination row j's three values in
//     lanes (0, 1, 2), ic0BackwardAVX2's layout: block row q is the
//     load at vals[3q:] (row 2 the load at vals[5:] moved down a lane,
//     so no load passes the block), times x_i's broadcast q.
//
// A destination is read as two values and one and written the same
// way, and y's row i as one value and a pair, so nothing outside the
// three values a block addresses is read or written. Scatter past hi
// lands in part, whose block row 0 is block row hi. Lane 1 of the
// direct accumulator and lane 3 of the scatter are never stored.
//
// GP: R8 rowPtr, DI colIdx, SI vals, DX x, BX y, AX part - 24*hi,
// R9 i, R10 hi, R11 k, R12 &y[3i], R13 row end, R14 &vals[9k], R15 j,
// CX scratch. Y10..Y12 x_i's broadcasts.
TEXT ·symSpmv1AVX2(SB), NOSPLIT, $0-64
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), DI
	MOVQ vals+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ y+32(FP), BX
	MOVQ part+40(FP), AX
	MOVQ lo+48(FP), R9
	MOVQ hi+56(FP), R10
	LEAQ (R10)(R10*2), R11
	SHLQ $3, R11
	SUBQ R11, AX                // part row j at AX + 24j

s1row:
	CMPQ R9, R10
	JGE  s1done
	LEAQ (R9)(R9*2), R11
	LEAQ (BX)(R11*8), R12       // &y[3i]
	LEAQ (DX)(R11*8), R11       // &x[3i]
	VBROADCASTSD (R11), Y10
	VBROADCASTSD 8(R11), Y11
	VBROADCASTSD 16(R11), Y12
	VMOVSD      (R12), X0       // lane 0: y row 0
	VMOVSD      16(R12), X1
	VMOVHPD     8(R12), X1, X1
	VINSERTF128 $1, X1, Y0, Y0  // lanes 2, 3: y rows 2, 1
	MOVLQSX (R8)(R9*4), R11     // k
	MOVLQSX 4(R8)(R9*4), R13    // row end
	LEAQ    (R11)(R11*8), R14
	LEAQ    (SI)(R14*8), R14    // &vals[9k]
	CMPQ    R11, R13
	JGE     s1store

s1blk:
	MOVLQSX (DI)(R11*4), R15    // j
	LEAQ    (R15)(R15*2), CX
	LEAQ    (DX)(CX*8), CX      // &x[3j]
	VMOVUPD      (R14), Y7              // (v0 v1 v2 v3): block row 0
	VBLENDPD     $4, 32(R14), Y7, Y1    // column 0
	VMOVUPD      40(R14), Y8            // (v5 v6 v7 v8)
	VMOVUPD      8(R14), Y2
	VBLENDPD     $4, Y8, Y2, Y2         // column 1
	VMOVUPD      16(R14), Y3
	VBROADCASTSD 64(R14), Y4
	VBLENDPD     $4, Y4, Y3, Y3         // column 2
	VBROADCASTSD (CX), Y4
	VBROADCASTSD 8(CX), Y5
	VBROADCASTSD 16(CX), Y6
	VFMADD231PD  Y4, Y1, Y0
	VFMADD231PD  Y5, Y2, Y0
	VFMADD231PD  Y6, Y3, Y0

	// Transposed scatter, skipping the diagonal block.
	CMPQ R15, R9
	JEQ  s1next
	LEAQ (R15)(R15*2), CX
	CMPQ R15, R10
	JGE  s1part
	LEAQ (BX)(CX*8), CX         // &y[3j]
	JMP  s1scat

s1part:
	LEAQ (AX)(CX*8), CX         // &part[3(j-hi)]

s1scat:
	VMOVUPD      (CX), X13
	VMOVSD       16(CX), X14
	VINSERTF128  $1, X14, Y13, Y13
	VFMADD231PD  Y10, Y7, Y13           // (v0 v1 v2)*x_i0
	VMOVUPD      24(R14), Y9
	VFMADD231PD  Y11, Y9, Y13           // (v3 v4 v5)*x_i1
	VPERMPD      $0xf9, Y8, Y9
	VFMADD231PD  Y12, Y9, Y13           // (v6 v7 v8)*x_i2
	VMOVUPD      X13, (CX)
	VEXTRACTF128 $1, Y13, X14
	VMOVSD       X14, 16(CX)

s1next:
	ADDQ $72, R14
	INCQ R11
	CMPQ R11, R13
	JLT  s1blk

s1store:
	VMOVSD       X0, (R12)      // lane 0: row 0
	VEXTRACTF128 $1, Y0, X1
	VMOVHPD      X1, 8(R12)     // lane 3: row 1
	VMOVSD       X1, 16(R12)    // lane 2: row 2
	INCQ R9
	JMP  s1row

s1done:
	VZEROUPPER
	RET
