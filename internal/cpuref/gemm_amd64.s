#include "textflag.h"

// func gemm4x16(a, b, c *float32, kc, lda, ldb, ldc int)
//
// C[0:4, 0:16] += A[0:4, 0:kc] * B[0:kc, 0:16], with every stride in
// elements. The 4x16 tile of C lives in Y0-Y7 (two 8-wide halves per row)
// for the whole kc loop. Each k-step loads B's two 8-wide row vectors,
// broadcasts A's four row scalars and, per accumulator, rounds the product
// (VMULPS) before it is added (VADDPS): the same two roundings, in the same
// ascending-k order from C's initial value, as the scalar
// `v += float32(x*b)`. No fused multiply-add, which would round once.
// Requires kc >= 1.
TEXT ·gemm4x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), DX
	MOVQ kc+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ ldc+48(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10

	// A rows 0,1 at SI, SI+R8; rows 2,3 at BX, BX+R8.
	LEAQ (SI)(R8*2), BX

	// C rows 0-3 at DX, R11, R12, R13.
	LEAQ (DX)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13

	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (R11), Y2
	VMOVUPS 32(R11), Y3
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7

loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9

	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y14
	VMULPS       Y9, Y10, Y15
	VADDPS       Y14, Y0, Y0
	VADDPS       Y15, Y1, Y1

	VBROADCASTSS (SI)(R8*1), Y11
	VMULPS       Y8, Y11, Y14
	VMULPS       Y9, Y11, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3

	VBROADCASTSS (BX), Y12
	VMULPS       Y8, Y12, Y14
	VMULPS       Y9, Y12, Y15
	VADDPS       Y14, Y4, Y4
	VADDPS       Y15, Y5, Y5

	VBROADCASTSS (BX)(R8*1), Y13
	VMULPS       Y8, Y13, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7

	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ R9, DI
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (R11)
	VMOVUPS Y3, 32(R11)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET
