//go:build amd64 && !purego

#include "textflag.h"

// CPUID/XGETBV probe for cpuHasAVX2 (matmul_amd64.go).

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mmKernel4x8(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, bps, kc, panels int)
//
// For each of panels 8-column panels q, rows r in [0,4) and columns c in
// [0,8):
//
//	dst[r*ldd + 8q + c] += a[r*lda + p] * b[q*bps + p*ldb + c]
//
// for p = 0, 1, ..., kc-1 in that order, skipping p where a[r*lda+p] == 0.
// Strides are in elements. kc and panels must be at least 1.
//
// The 4×8 tile lives in Y0–Y7 (two registers per row) for all kc steps.
// Per step the panel row is loaded into Y8/Y9 and each row's a value is
// tested, broadcast into Y10, multiplied (VMULPD rounds the product) and
// added (VADDPD): the same two roundings, in the same k order, as the
// scalar `acc += av * bv`. There is no fused multiply-add.
//
// Zero skip: VUCOMISD against +0 (X13) sets ZF=1 for ±0 and for NaN, and
// PF=1 only for NaN. The common non-zero case falls through; ZF=1 jumps out
// of line, where PF=0 (±0) skips the row as Go's `av != 0` does and PF=1
// (NaN, which is not equal to 0 in Go) takes the multiply.
TEXT ·mmKernel4x8(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R11
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R10
	SHLQ $3, R10
	MOVQ kc+56(FP), R12
	MOVQ panels+64(FP), R13
	VXORPD X13, X13, X13

panel:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	LEAQ    (DI)(R8*2), AX
	VMOVUPD (AX)(R8*1), Y6
	VMOVUPD 32(AX)(R8*1), Y7
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R12, CX

step:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VUCOMISD     (AX), X13
	JEQ          zero0
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1

skip0:
	VUCOMISD     (AX)(R9*1), X13
	JEQ          zero1
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3

skip1:
	VUCOMISD     (AX)(R9*2), X13
	JEQ          zero2
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5

skip2:
	VUCOMISD     (AX)(R11*1), X13
	JEQ          zero3
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7

skip3:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  step

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	LEAQ    (DI)(R8*2), AX
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)

	ADDQ $64, DI
	MOVQ bps+48(FP), AX
	SHLQ $3, AX
	ADDQ AX, DX
	DECQ R13
	JNZ  panel

	VZEROUPPER
	RET

	// Out of line: the a value is ±0 (PF=0, skip) or NaN (PF=1, multiply).
zero0:
	JPC          skip0
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	JMP          skip0

zero1:
	JPC          skip1
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	JMP          skip1

zero2:
	JPC          skip2
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	JMP          skip2

zero3:
	JPC          skip3
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	JMP          skip3
