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

// gemmEdge's column masks: sixteen int32s of all ones, then sixteen zeros
// (the part of the symbol no DATA sets), so the sixteen from
// edgeMask<>+4·(16-cols) enable a row's first cols columns.
DATA  edgeMask<>+0(SB)/8, $-1
DATA  edgeMask<>+8(SB)/8, $-1
DATA  edgeMask<>+16(SB)/8, $-1
DATA  edgeMask<>+24(SB)/8, $-1
DATA  edgeMask<>+32(SB)/8, $-1
DATA  edgeMask<>+40(SB)/8, $-1
DATA  edgeMask<>+48(SB)/8, $-1
DATA  edgeMask<>+56(SB)/8, $-1
GLOBL edgeMask<>(SB), RODATA|NOPTR, $128

// One k-step of one row in gemmEdge: broadcast A's scalar at (ra)(AX*4),
// round its product with B's low half in Y8 (VMULPS), then add it to the
// accumulator (VADDPS, accumulator first), as gemm4x16 does.
#define EDGE_LO(ra, lo) \
	VBROADCASTSS (ra)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y14;    \
	VADDPS       Y14, lo, lo

// The same step over both halves, B's high half in Y9.
#define EDGE_HI(ra, lo, hi) \
	VBROADCASTSS (ra)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y14;    \
	VMULPS       Y9, Y10, Y15;    \
	VADDPS       Y14, lo, lo;     \
	VADDPS       Y15, hi, hi

// func gemmEdge(a, b, c *float32, kc, lda, ldb, ldc, rows, cols int)
//
// C[0:rows, 0:cols] += A[0:rows, 0:kc] * B[0:kc, 0:cols], for the fringe
// blocks gemm4x16 does not cover: 1 <= rows <= 4, 1 <= cols <= 16, kc >= 1,
// strides in elements. Row r's accumulators are Y(2r) (columns 0-7) and
// Y(2r+1) (columns 8-15), with gemm4x16's two roundings in its ascending-k
// order. C is loaded and stored, and B's partial half loaded, through the
// column masks in Y11 (low half) and Y12 (high half), so only the block's
// columns are touched: a masked-off lane is never read or written and
// cannot fault. A block of 8 columns or fewer runs its k loop on the low
// halves alone. Rows at or past `rows` take A's pointer of the row before,
// so the loop reads only A's rows, and are neither loaded from nor stored
// to C.
TEXT ·gemmEdge(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), DX
	MOVQ kc+24(FP), AX
	MOVQ lda+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ ldc+48(FP), R10
	MOVQ rows+56(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10

	MOVQ    cols+64(FP), R13
	SHLQ    $2, R13
	LEAQ    edgeMask<>+64(SB), R12
	SUBQ    R13, R12
	VMOVUPS (R12), Y11
	VMOVUPS 32(R12), Y12

	// A rows 1-3 at BX, R11, R12.
	LEAQ    (SI)(R8*1), BX
	CMPQ    CX, $2
	CMOVQLT SI, BX
	LEAQ    (BX)(R8*1), R11
	CMPQ    CX, $3
	CMOVQLT BX, R11
	LEAQ    (R11)(R8*1), R12
	CMPQ    CX, $4
	CMOVQLT R11, R12

	// Point every A row past its kc elements and index it by AX, which
	// counts up from -kc to 0.
	LEAQ (SI)(AX*4), SI
	LEAQ (BX)(AX*4), BX
	LEAQ (R11)(AX*4), R11
	LEAQ (R12)(AX*4), R12
	NEGQ AX

	// Rows past `rows` start from zero, so no stale register value
	// (a subnormal, say) slows their discarded sums.
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ       DX, R13
	VMASKMOVPS (R13), Y11, Y0
	VMASKMOVPS 32(R13), Y12, Y1
	CMPQ       CX, $2
	JLT        loop
	ADDQ       R10, R13
	VMASKMOVPS (R13), Y11, Y2
	VMASKMOVPS 32(R13), Y12, Y3
	CMPQ       CX, $3
	JLT        loop
	ADDQ       R10, R13
	VMASKMOVPS (R13), Y11, Y4
	VMASKMOVPS 32(R13), Y12, Y5
	CMPQ       CX, $4
	JLT        loop
	ADDQ       R10, R13
	VMASKMOVPS (R13), Y11, Y6
	VMASKMOVPS 32(R13), Y12, Y7

loop:
	CMPQ cols+64(FP), $8
	JGT  wide

narrow:
	VMASKMOVPS (DI), Y11, Y8
	EDGE_LO(SI, Y0)
	EDGE_LO(BX, Y2)
	EDGE_LO(R11, Y4)
	EDGE_LO(R12, Y6)
	ADDQ       R9, DI
	INCQ       AX
	JNZ        narrow
	JMP        store

wide:
	VMOVUPS    (DI), Y8
	VMASKMOVPS 32(DI), Y12, Y9
	EDGE_HI(SI, Y0, Y1)
	EDGE_HI(BX, Y2, Y3)
	EDGE_HI(R11, Y4, Y5)
	EDGE_HI(R12, Y6, Y7)
	ADDQ       R9, DI
	INCQ       AX
	JNZ        wide

store:
	VMASKMOVPS Y0, Y11, (DX)
	VMASKMOVPS Y1, Y12, 32(DX)
	CMPQ       CX, $2
	JLT        done
	ADDQ       R10, DX
	VMASKMOVPS Y2, Y11, (DX)
	VMASKMOVPS Y3, Y12, 32(DX)
	CMPQ       CX, $3
	JLT        done
	ADDQ       R10, DX
	VMASKMOVPS Y4, Y11, (DX)
	VMASKMOVPS Y5, Y12, 32(DX)
	CMPQ       CX, $4
	JLT        done
	ADDQ       R10, DX
	VMASKMOVPS Y6, Y11, (DX)
	VMASKMOVPS Y7, Y12, 32(DX)

done:
	VZEROUPPER
	RET
