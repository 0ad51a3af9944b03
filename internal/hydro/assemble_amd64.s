// Assembly on AVX2: the candidate pass, four candidates to a ymm
// (candAVX2), its logarithm alone (logLanesAVX2, for the tests), and
// one row of the fill (fillRowAVX2).
//
// Every lane of the candidate pass runs the Go loop's operations in the
// Go loop's order — neighbor.Image per axis, (x*x + y*y) + z*z,
// math.Sqrt, neighbor.Gap, 1/r, the keep test, pairCoef.axial — and
// math.Log is a lane-wise twin of Go's amd64 archLog (math/log_amd64.s):
// the same frexp by bits, the same `f1 <= Sqrt2/2` adjustment of k and
// f1 (its CMPSD is not-less-than with the operands swapped), the same
// polynomial and the same final sums, at the same constants. FMA is
// deliberately NOT used: the Go loop rounds every product. So a lane
// that passes the guards has the Go loop's bits in every tensor entry
// and in its keep flag.
//
// The guards cover what a lane cannot reproduce: archLog's special
// cases (zero, negative, subnormal, infinite and NaN arguments, which a
// lane does not branch on), NaN payloads, which an operand order picks,
// and a pair whose constants the Go side has not computed yet. A kept
// lane that trips one makes candAVX2 return nonzero, and the caller
// runs the Go loop over the block instead.
//
// The fill row adds each visit's six tensor entries into the diagonal
// lane by lane, four and two, in the visits' order: the Go loop's sums.

#include "textflag.h"

#define C4(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; DATA name<>+16(SB)/8, $bits; DATA name<>+24(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $32

C4(one, 0x3FF0000000000000)
C4(two, 0x4000000000000000)
C4(half, 0x3FE0000000000000)     // 0.5, also the bits frexp ORs in
C4(negzero, 0x8000000000000000)
C4(absmask, 0x7FFFFFFFFFFFFFFF)
C4(mantmask, 0x000FFFFFFFFFFFFF)
C4(minnormal, 0x0010000000000000)
C4(posinf, 0x7FF0000000000000)
C4(magic, 0x4330000000000000)    // 2^52: OR a small integer in, subtract
C4(magick, 0x43300000000003FE)   // 2^52 + 0x3FE, and it is an exact float64
C4(hsqrt2, 0x3FE6A09E667F3BCD)   // archLog's HSqrt2
C4(ln2hi, 0x3FE62E42FEE00000)
C4(ln2lo, 0x3DEA39EF35793C76)
C4(logl1, 0x3FE5555555555593)
C4(logl2, 0x3FD999999997FA04)
C4(logl3, 0x3FD2492494229359)
C4(logl4, 0x3FCC71C51D8E78AF)
C4(logl5, 0x3FC7466496CB03DE)
C4(logl6, 0x3FC39A09D078C69F)
C4(logl7, 0x3FC2F112DF3E5244)

// keptlut[m] spreads a four-bit lane mask to four 0/1 bytes.
DATA keptlut<>+0(SB)/4, $0x00000000
DATA keptlut<>+4(SB)/4, $0x00000001
DATA keptlut<>+8(SB)/4, $0x00000100
DATA keptlut<>+12(SB)/4, $0x00000101
DATA keptlut<>+16(SB)/4, $0x00010000
DATA keptlut<>+20(SB)/4, $0x00010001
DATA keptlut<>+24(SB)/4, $0x00010100
DATA keptlut<>+28(SB)/4, $0x00010101
DATA keptlut<>+32(SB)/4, $0x01000000
DATA keptlut<>+36(SB)/4, $0x01000001
DATA keptlut<>+40(SB)/4, $0x01000100
DATA keptlut<>+44(SB)/4, $0x01000101
DATA keptlut<>+48(SB)/4, $0x01010000
DATA keptlut<>+52(SB)/4, $0x01010001
DATA keptlut<>+56(SB)/4, $0x01010100
DATA keptlut<>+60(SB)/4, $0x01010101
GLOBL keptlut<>(SB), RODATA|NOPTR, $64

// GUARD sets ok to the lanes of x that are positive normal numbers, the
// arguments on which archLog takes its main path with a normal frexp.
#define GUARD(x, ok, tmp) \
	VCMPPD $0x1D, minnormal<>(SB), x, ok; \
	VCMPPD $0x11, posinf<>(SB), x, tmp; \
	VANDPD tmp, ok, ok

// LOG4 replaces x by archLog(x) in every lane where x is a positive
// normal number; Y0-Y4 and Y11-Y13 are clobbered. Each line is the line
// of math/log_amd64.s named beside it.
#define LOG4(x) \
	VANDPD     mantmask<>(SB), x, Y0; /* f1, ki := math.Frexp(x) */ \
	VORPD      half<>(SB), Y0, Y0; \
	VPSRLQ     $52, x, Y1; /* SHRQ $52; the sign bit is 0 */ \
	VPOR       magic<>(SB), Y1, Y1; \
	VSUBPD     magick<>(SB), Y1, Y1; /* k := float64(ki - 0x3FE), CVTSL2SD's value */ \
	VCMPPD     $0x12, hsqrt2<>(SB), Y0, Y13; /* CMPSD X2, X0, 5: f1 <= HSqrt2 */ \
	VANDPD     one<>(SB), Y13, Y13; \
	VSUBPD     Y13, Y1, Y1; /* k -= 1 */ \
	VADDPD     one<>(SB), Y13, Y13; \
	VMULPD     Y13, Y0, Y0; /* f1 *= 2 */ \
	VSUBPD     one<>(SB), Y0, Y0; /* f := f1 - 1 */ \
	VADDPD     two<>(SB), Y0, Y2; \
	VDIVPD     Y2, Y0, Y2; /* s := f / (2 + f) */ \
	VMULPD     Y2, Y2, Y3; /* s2 := s * s */ \
	VMULPD     Y3, Y3, Y4; /* s4 := s2 * s2 */ \
	VMULPD     logl7<>(SB), Y4, Y11; /* t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7))) */ \
	VADDPD     logl5<>(SB), Y11, Y11; \
	VMULPD     Y4, Y11, Y11; \
	VADDPD     logl3<>(SB), Y11, Y11; \
	VMULPD     Y4, Y11, Y11; \
	VADDPD     logl1<>(SB), Y11, Y11; \
	VMULPD     Y11, Y3, Y3; \
	VMULPD     logl6<>(SB), Y4, Y11; /* t2 := s4 * (L2 + s4*(L4+s4*L6)) */ \
	VADDPD     logl4<>(SB), Y11, Y11; \
	VMULPD     Y4, Y11, Y11; \
	VADDPD     logl2<>(SB), Y11, Y11; \
	VMULPD     Y11, Y4, Y4; \
	VADDPD     Y4, Y3, Y3; /* R := t1 + t2 */ \
	VMULPD     half<>(SB), Y0, Y12; /* hfsq := 0.5 * f * f */ \
	VMULPD     Y0, Y12, Y12; \
	VADDPD     Y12, Y3, Y3; /* k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) */ \
	VMULPD     Y3, Y2, Y2; \
	VMULPD     ln2lo<>(SB), Y1, Y3; \
	VADDPD     Y3, Y2, Y2; \
	VSUBPD     Y2, Y12, Y12; \
	VSUBPD     Y0, Y12, Y12; \
	VMULPD     ln2hi<>(SB), Y1, Y1; \
	VSUBPD     Y12, Y1, x

// IMAGE sets out to neighbor.Image(d, box) lane by lane: d-box past
// box/2, d+box below -box/2, else d. The prm block is at DX.
#define IMAGE(d, out) \
	VCMPPD    $0x1E, 32(DX), d, Y1; \
	VCMPPD    $0x11, 64(DX), d, Y2; \
	VADDPD    (DX), d, Y3; \
	VSUBPD    (DX), d, Y4; \
	VBLENDVPD Y2, Y3, d, out; \
	VBLENDVPD Y1, Y4, out, out

// ENTRY1 and ENTRY0 set e to xa*(da*db) + ya*(c - da*db), c = 1 or 0:
// one tensor entry of AxialTensor, xa in Y0 and ya in Y1.
#define ENTRY1(da, db, e) \
	VMULPD  db, da, Y13; \
	VMOVUPD one<>(SB), Y14; \
	VSUBPD  Y13, Y14, Y14; \
	VMULPD  Y14, Y1, Y14; \
	VMULPD  Y13, Y0, Y13; \
	VADDPD  Y14, Y13, e

#define ENTRY0(da, db, e) \
	VMULPD  db, da, Y13; \
	VXORPD  Y14, Y14, Y14; \
	VSUBPD  Y13, Y14, Y14; \
	VMULPD  Y14, Y1, Y14; \
	VMULPD  Y13, Y0, Y13; \
	VADDPD  Y14, Y13, e

// func candAVX2(d *candScratch, slots *float64, prm *candParams, tens *sym3, kept *uint8, n int) int
//
// The candidate pass over n candidates, n a positive multiple of 4 and
// at most candBlock: d holds each one's raw wrapped-coordinate
// differences by axis (and is scratch after), slots the groups of four
// slots' radii and pair constants (slotGroup), prm the box, box/2,
// -box/2, CutoffXi and MinXi, four copies each. It writes n tensors
// (AoS, six entries each; -0 unless kept) and n keep bytes, and returns
// the lane mask of every kept lane that a guard failed in, or 0.
//
// It runs in two passes over the block, so that neither's loop carries
// the whole chain of dependent divisions, square root and logarithm and
// the core overlaps more groups: the geometry writes each group's
// direction, max(xi, MinXi) and keep mask back into d, and the tensor
// pass reads them.
TEXT ·candAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), SI
	MOVQ slots+8(FP), DI
	MOVQ prm+16(FP), DX
	MOVQ n+40(FP), CX
	SHLQ $3, CX             // bytes of one row of d
	XORQ R9, R9

	// Displacement, distance, gap, keep test, direction: Y5-Y7 the
	// displacement, then the direction, Y8 r, Y9 xi, Y10 the keep mask.
geometry:
	VMOVUPD (SI)(R9*1), Y0
	IMAGE(Y0, Y5)
	VMOVUPD 512(SI)(R9*1), Y0
	IMAGE(Y0, Y6)
	VMOVUPD 1024(SI)(R9*1), Y0
	IMAGE(Y0, Y7)
	VMULPD  Y5, Y5, Y8
	VMULPD  Y6, Y6, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y7, Y7, Y9
	VADDPD  Y9, Y8, Y8
	VSQRTPD Y8, Y8          // r
	VSUBPD  0(DI), Y8, Y9
	VSUBPD  32(DI), Y9, Y9
	VADDPD  Y9, Y9, Y9      // 2 * (r - a1 - a2)
	VMOVUPD 0(DI), Y10
	VADDPD  32(DI), Y10, Y10
	VDIVPD  Y10, Y9, Y9     // xi := Gap(r, a1, a2)
	VCMPPD  $0x11, 96(DX), Y9, Y10
	VXORPD  Y11, Y11, Y11
	VCMPPD  $0x1E, Y11, Y8, Y11
	VANDPD  Y11, Y10, Y10   // keep := xi < CutoffXi && r > 0
	VMOVUPD one<>(SB), Y11
	VDIVPD  Y8, Y11, Y11    // s := 1 / r
	VMULPD  Y11, Y5, Y5
	VMULPD  Y11, Y6, Y6
	VMULPD  Y11, Y7, Y7
	VMAXPD  128(DX), Y9, Y9 // xi = max(xi, MinXi); MinXi where either is NaN
	VMOVUPD Y5, (SI)(R9*1)
	VMOVUPD Y6, 512(SI)(R9*1)
	VMOVUPD Y7, 1024(SI)(R9*1)
	VMOVUPD Y9, 1536(SI)(R9*1)
	VMOVUPD Y10, 2048(SI)(R9*1)
	ADDQ    $320, DI
	ADDQ    $32, R9
	CMPQ    R9, CX
	JLT     geometry

	// pairCoef.axial: Y9 xi, Y8 1/xi, then log(1/xi), Y10 the keep mask,
	// then the kept mask; Y0/Y1 xa and ya, the entries in Y2, Y4, Y8,
	// Y9, Y11 and Y12; Y15 the failed guards.
	MOVQ slots+8(FP), DI
	MOVQ tens+24(FP), R8
	MOVQ kept+32(FP), BX
	LEAQ keptlut<>(SB), R10
	XORQ R9, R9
	VXORPD Y15, Y15, Y15

tensor:
	VMOVUPD 1536(SI)(R9*1), Y9
	VMOVUPD 2048(SI)(R9*1), Y10
	VMOVUPD one<>(SB), Y8
	VDIVPD  Y9, Y8, Y8      // 1 / xi
	GUARD(Y8, Y0, Y1)
	VANDNPD Y10, Y0, Y0
	VORPD   Y0, Y15, Y15
	LOG4(Y8)                // l := math.Log(1 / xi)
	VMOVUPD 64(DI), Y0
	VDIVPD  Y9, Y0, Y0
	VMULPD  96(DI), Y8, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  128(DI), Y9, Y1
	VMULPD  Y8, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VSUBPD  224(DI), Y0, Y0 // g1/xi + g2*l + g3*xi*l - xaCut
	VMULPD  160(DI), Y8, Y1
	VMULPD  192(DI), Y9, Y2
	VMULPD  Y8, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VSUBPD  256(DI), Y1, Y1 // y2*l + y3*xi*l - yaCut
	VADDPD  Y1, Y0, Y3      // NaN unless both are numbers
	VXORPD  Y2, Y2, Y2
	VMAXPD  Y2, Y0, Y0      // max(0, v): +0 for v = -0, as Go's max gives
	VMAXPD  Y2, Y1, Y1
	VMOVUPD 288(DI), Y4
	VMULPD  Y4, Y0, Y0      // xa
	VMULPD  Y4, Y1, Y1      // ya
	VCMPPD  $0x00, Y2, Y4, Y4
	VANDPD  Y10, Y4, Y4
	VORPD   Y4, Y15, Y15    // a kept pair whose constants are not there yet

	// AxialTensor's six entries, then whether they are all zero or any NaN.
	VMOVUPD (SI)(R9*1), Y5
	VMOVUPD 512(SI)(R9*1), Y6
	VMOVUPD 1024(SI)(R9*1), Y7
	ENTRY1(Y5, Y5, Y2)
	ENTRY0(Y5, Y6, Y4)
	ENTRY0(Y5, Y7, Y8)
	ENTRY1(Y6, Y6, Y9)
	ENTRY0(Y6, Y7, Y11)
	ENTRY1(Y7, Y7, Y12)
	VADDPD   Y2, Y3, Y3
	VADDPD   Y4, Y3, Y3
	VADDPD   Y8, Y3, Y3
	VADDPD   Y9, Y3, Y3
	VADDPD   Y11, Y3, Y3
	VADDPD   Y12, Y3, Y3
	VCMPPD   $0x03, Y3, Y3, Y3
	VANDPD   Y10, Y3, Y3
	VORPD    Y3, Y15, Y15
	VORPD    Y4, Y2, Y0
	VORPD    Y8, Y0, Y0
	VORPD    Y9, Y0, Y0
	VORPD    Y11, Y0, Y0
	VORPD    Y12, Y0, Y0
	VANDPD   absmask<>(SB), Y0, Y0
	VXORPD   Y1, Y1, Y1
	VPCMPEQQ Y1, Y0, Y0
	VANDNPD  Y10, Y0, Y10   // kept := keep && !zero

	// A lane not kept stores -0 six times: summed into a diagonal it
	// leaves every value, -0 included, as it was.
	VMOVUPD   negzero<>(SB), Y1
	VBLENDVPD Y10, Y2, Y1, Y2
	VBLENDVPD Y10, Y4, Y1, Y4
	VBLENDVPD Y10, Y8, Y1, Y8
	VBLENDVPD Y10, Y9, Y1, Y9
	VBLENDVPD Y10, Y11, Y1, Y11
	VBLENDVPD Y10, Y12, Y1, Y12

	// Four 48-byte records from six entry vectors.
	VUNPCKLPD    Y4, Y2, Y0   // e0 e1 of candidates 0, 2
	VUNPCKHPD    Y4, Y2, Y1   // of 1, 3
	VUNPCKLPD    Y9, Y8, Y5   // e2 e3
	VUNPCKHPD    Y9, Y8, Y6
	VUNPCKLPD    Y12, Y11, Y7 // e4 e5
	VUNPCKHPD    Y12, Y11, Y13
	VPERM2F128   $0x20, Y5, Y0, Y2
	VPERM2F128   $0x31, Y5, Y0, Y4
	VPERM2F128   $0x20, Y6, Y1, Y8
	VPERM2F128   $0x31, Y6, Y1, Y9
	VMOVUPD      Y2, 0(R8)
	VMOVUPD      X7, 32(R8)
	VMOVUPD      Y8, 48(R8)
	VMOVUPD      X13, 80(R8)
	VMOVUPD      Y4, 96(R8)
	VEXTRACTF128 $1, Y7, 128(R8)
	VMOVUPD      Y9, 144(R8)
	VEXTRACTF128 $1, Y13, 176(R8)

	VMOVMSKPD Y10, AX
	MOVL      (R10)(AX*4), AX
	MOVL      AX, (BX)

	ADDQ $320, DI
	ADDQ $192, R8
	ADDQ $4, BX
	ADDQ $32, R9
	CMPQ R9, CX
	JLT  tensor

	VMOVMSKPD Y15, AX
	MOVQ      AX, ret+48(FP)
	VZEROUPPER
	RET

// func logLanesAVX2(x, l *[4]float64) int
//
// Sets l to LOG4 of x and returns the mask of the lanes GUARD passes.
TEXT ·logLanesAVX2(SB), NOSPLIT, $0-24
	MOVQ    x+0(FP), SI
	MOVQ    l+8(FP), DI
	VMOVUPD (SI), Y8
	GUARD(Y8, Y5, Y6)
	LOG4(Y8)
	VMOVUPD Y8, (DI)
	VMOVMSKPD Y5, AX
	MOVQ    AX, ret+16(FP)
	VZEROUPPER
	RET

// func fillRowAVX2(vals *float64, colIdx *int32, tens *sym3, kept *uint8, slots, cols *int32, nv, p, diagSlot int, d0, f, z float64) (next int)
//
// Writes the nv visits of one row (slots, cols) from block position p
// on, as Assembler.fillRow does: each visit's block as -A, 0 - a entry
// by entry, permuted from the six to the nine entries in ymm, and its
// column; the position advances past a kept visit only. The diagonal,
// [d0 z z f z f] plus every visit's tensor, is written at the position
// of the visit of slot diagSlot. Returns the next row's first position.
// It checks no index: every slot is below len(tens) and len(kept), and
// every position below the visit count before it, which the caller has
// sized vals and colIdx for.
//
// Register plan: Y6 the diagonal's entries 0-3, X7 its entries 4-5, Y8
// zero, DX the position, R14 the diagonal's.
TEXT ·fillRowAVX2(SB), NOSPLIT, $0-104
	MOVQ vals+0(FP), DI
	MOVQ colIdx+8(FP), SI
	MOVQ tens+16(FP), R8
	MOVQ kept+24(FP), R9
	MOVQ slots+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ nv+48(FP), CX
	MOVQ p+56(FP), DX
	MOVQ diagSlot+64(FP), R12
	MOVQ DX, R14
	VBROADCASTSD z+88(FP), Y7
	VBROADCASTSD f+80(FP), Y9
	VBROADCASTSD d0+72(FP), Y6
	VBLENDPD $0x06, Y7, Y6, Y6
	VBLENDPD $0x08, Y9, Y6, Y6   // d0 z z f
	VBLENDPD $0x02, Y9, Y7, Y7   // z f
	VXORPD  Y8, Y8, Y8
	XORQ    BX, BX

row:
	CMPQ BX, CX
	JGE  rowdone
	MOVLQSX (R10)(BX*4), AX
	LEAQ    (AX)(AX*2), R15
	SHLQ    $4, R15
	VMOVUPD (R8)(R15*1), Y0
	VMOVUPD 32(R8)(R15*1), X1
	VADDPD  Y0, Y6, Y6
	VADDPD  X1, X7, X7
	VSUBPD  Y0, Y8, Y0
	VSUBPD  X1, X8, X1
	VPERMPD $0x64, Y0, Y2
	VPERMPD $0x23, Y0, Y3
	VBROADCASTSD X1, Y4
	VBLENDPD $0x0A, Y4, Y3, Y3
	LEAQ    (DX)(DX*8), R15
	VMOVUPD Y2, (DI)(R15*8)
	VMOVUPD Y3, 32(DI)(R15*8)
	VMOVHPD X1, 64(DI)(R15*8)
	MOVL    (R11)(BX*4), R15
	MOVL    R15, (SI)(DX*4)
	CMPQ    AX, R12
	CMOVQEQ DX, R14
	MOVBQZX (R9)(AX*1), R15
	ANDQ    $1, R15
	ADDQ    R15, DX
	INCQ    BX
	JMP     row

rowdone:
	VPERMPD $0x64, Y6, Y2
	VPERMPD $0x23, Y6, Y3
	VBROADCASTSD X7, Y4
	VBLENDPD $0x0A, Y4, Y3, Y3
	LEAQ    (R14)(R14*8), R15
	VMOVUPD Y2, (DI)(R15*8)
	VMOVUPD Y3, 32(DI)(R15*8)
	VMOVHPD X7, 64(DI)(R15*8)
	MOVQ    DX, next+96(FP)
	VZEROUPPER
	RET
