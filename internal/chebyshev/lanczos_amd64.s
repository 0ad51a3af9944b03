// AVX2 kernel of the Lanczos root's combine on a one-column y: rows in
// the lanes, eight to two ymm. Every row's value is its Go loop's
// recurrence s = s + cy[t]*p_t[i] over the basis in increasing t, and
// its move d likewise with cd, each product rounded before its add
// (VMULPD and VADDPD kept apart, never an FMA); row lo+i then adds s*s
// and d*d into partial i%8 of accY and accD. So y and both sums are
// bitwise what combineColumn's Go loop gives.

#include "textflag.h"

// func combine1AVX2(y *float64, ps *[]float64, cy, cd, accY, accD *float64, k, lo, hi int)
//
// ps points at k slice headers of 24 bytes, the basis; k >= 1, lo < hi.
TEXT ·combine1AVX2(SB), NOSPLIT, $0-72
	MOVQ    y+0(FP), DI
	MOVQ    ps+8(FP), SI
	MOVQ    cy+16(FP), DX
	MOVQ    cd+24(FP), BX
	MOVQ    accY+32(FP), R9
	MOVQ    accD+40(FP), R10
	MOVQ    k+48(FP), R8
	MOVQ    lo+56(FP), AX
	MOVQ    hi+64(FP), CX
	VMOVUPD (R9), Y8                // the partials: |y|^2 rows 0-3, 4-7
	VMOVUPD 32(R9), Y9
	VMOVUPD (R10), Y10              // |move|^2
	VMOVUPD 32(R10), Y11
	MOVQ    AX, R14                 // lo, for the tail's partial
	MOVQ    CX, R15
	SUBQ    $8, R15                 // the last row an eight-row group may start at
	CMPQ    AX, R15
	JGT     cmbtail

cmbrow:
	VXORPD Y0, Y0, Y0               // s, rows 0-3
	VXORPD Y1, Y1, Y1               // s, rows 4-7
	VXORPD Y2, Y2, Y2               // d, rows 0-3
	VXORPD Y3, Y3, Y3               // d, rows 4-7
	MOVQ   SI, R13
	XORQ   R11, R11

cmbterm:
	MOVQ         (R13), R12         // p_t
	VBROADCASTSD (DX)(R11*8), Y4    // cy[t]
	VBROADCASTSD (BX)(R11*8), Y5    // cd[t]
	VMOVUPD      (R12)(AX*8), Y6
	VMOVUPD      32(R12)(AX*8), Y7
	VMULPD       Y6, Y4, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y7, Y4, Y13
	VADDPD       Y13, Y1, Y1
	VMULPD       Y6, Y5, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       Y7, Y5, Y13
	VADDPD       Y13, Y3, Y3
	ADDQ         $24, R13
	INCQ         R11
	CMPQ         R11, R8
	JLT          cmbterm

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMULPD  Y0, Y0, Y0
	VADDPD  Y0, Y8, Y8
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y9, Y9
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y10, Y10
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y11, Y11
	ADDQ    $8, AX
	CMPQ    AX, R15
	JLE     cmbrow

cmbtail:
	VMOVUPD Y8, (R9)
	VMOVUPD Y9, 32(R9)
	VMOVUPD Y10, (R10)
	VMOVUPD Y11, 32(R10)

cmbone:
	CMPQ   AX, CX
	JGE    cmbdone
	VXORPD X0, X0, X0
	VXORPD X2, X2, X2
	MOVQ   SI, R13
	XORQ   R11, R11

cmboneterm:
	MOVQ   (R13), R12
	VMOVSD (R12)(AX*8), X6
	VMULSD (DX)(R11*8), X6, X12
	VADDSD X12, X0, X0
	VMULSD (BX)(R11*8), X6, X12
	VADDSD X12, X2, X2
	ADDQ   $24, R13
	INCQ   R11
	CMPQ   R11, R8
	JLT    cmboneterm

	VMOVSD X0, (DI)(AX*8)
	MOVQ   AX, R15
	SUBQ   R14, R15
	ANDQ   $7, R15                  // the row's partial
	VMULSD X0, X0, X0
	VADDSD (R9)(R15*8), X0, X0
	VMOVSD X0, (R9)(R15*8)
	VMULSD X2, X2, X2
	VADDSD (R10)(R15*8), X2, X2
	VMOVSD X2, (R10)(R15*8)
	INCQ   AX
	JMP    cmbone

cmbdone:
	VZEROUPPER
	RET
