#include "textflag.h"

// Constants the kernels broadcast: -Inf (max's identity, which a NaN tap is
// replaced by), +Inf (the value that beats a NaN), the canonical NaN that
// maxFast/minFast and reluFast return (float32(math.NaN())), the sign bit
// that maps a min fold onto a max fold, and ReLU6's 6.
DATA laneConst<>+0(SB)/4, $0xff800000
DATA laneConst<>+4(SB)/4, $0x7f800000
DATA laneConst<>+8(SB)/4, $0x7fc00000
DATA laneConst<>+12(SB)/4, $0x80000000
DATA laneConst<>+16(SB)/4, $0x40c00000
GLOBL laneConst<>(SB), RODATA|NOPTR, $20

// Lane loads into Y1 for the tap at element offset R9 from the block base SI.
// Stride 1: one masked load. Stride 2: the 15 elements e0..e14 the 8 lanes
// span, as e0..e7 and e7..e14 (so neither load reaches past the last lane's
// element), then VSHUFPS picks x0 x2 y1 y3 per 128-bit half and VPERMPD
// puts the four pairs in lane order: e0 e2 e4 … e14. Y14 and Y15 are the
// masks of the two loads; masked-off elements are never read.
#define LOAD1 \
	VMASKMOVPS (SI)(R9*4), Y14, Y1

#define LOAD2 \
	VMASKMOVPS (SI)(R9*4), Y14, Y1; \
	VMASKMOVPS 28(SI)(R9*4), Y15, Y3; \
	VSHUFPS    $0xd8, Y3, Y1, Y1; \
	VPERMPD    $0xd8, Y1, Y1

// One multiply-add step: the product is rounded (VMULPS) before it is added
// to the accumulator (VADDPS, accumulator first), as the scalar
// acc += float32(a*b) does. Never a fused multiply-add.
#define MULSTEP \
	VBROADCASTSS (R13), Y2; \
	VMULPS       Y2, Y1, Y1; \
	VADDPS       Y1, Y0, Y0

// One max step in the max domain (a min fold runs on sign-flipped values,
// Y10 = sign bit, else 0). A NaN tap sets the lane's flag in Y5 and is
// replaced by -Inf (Y7), which leaves the accumulator unchanged; the
// accumulator is then never NaN and the two VMAXPS orders agree except on
// equal operands, where one returns each side: their AND is +0 for a -0/+0
// pair, as in maxFast.
#define MAXSTEP \
	VXORPS Y10, Y1, Y1; \
	VCMPPS $3, Y1, Y1, Y2; \
	VORPS  Y2, Y5, Y5; \
	VMAXPS Y7, Y1, Y1; \
	VMAXPS Y1, Y0, Y2; \
	VMAXPS Y0, Y1, Y3; \
	VANDPS Y2, Y3, Y0

// The fold's end: maxFast's sequence is +Inf once any operand is +Inf, else
// the canonical NaN once any is NaN, else the ordered maximum. So a lane
// whose accumulator is not +Inf (Y9) but saw a NaN becomes canonical NaN
// (Y8), after the accumulator is mapped back out of the max domain.
#define MAXEND \
	VCMPPS    $4, Y9, Y0, Y2; \
	VANDPS    Y5, Y2, Y2; \
	VXORPS    Y10, Y0, Y0; \
	VBLENDVPS Y2, Y8, Y0, Y0

// func foldLanes8(dst, a *float32, taps *int64, bv *float32, m1, m2 *int32, ntaps, nblk, stride, op int, v0 float32)
//
// Folds nblk blocks of 8 lanes. Lane i of a block starts at a + i*stride
// (stride 1 or 2) and folds the ntaps taps in order, tap k at element
// offset taps[k], from v0: op 0 is acc += float32(x*bv[k]), op 1 maxFast,
// op 2 minFast. The block's 8 results go to dst; the next block starts
// 8*stride elements further on a and 8 further on dst. m1 and m2 point at
// the masks of the first and second load (eight int32 each); the second is
// read at stride 2 only. Requires ntaps >= 1 and nblk >= 1.
TEXT ·foldLanes8(SB), NOSPLIT, $0-84
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ taps+16(FP), R8
	MOVQ bv+24(FP), R10
	MOVQ m1+32(FP), AX
	VMOVUPS (AX), Y14
	MOVQ m2+40(FP), AX
	VMOVUPS (AX), Y15
	MOVQ ntaps+48(FP), R11
	MOVQ nblk+56(FP), BX
	MOVQ stride+64(FP), DX
	SHLQ $5, DX // bytes per block on a: 8 lanes * stride * 4
	VBROADCASTSS v0+80(FP), Y4
	CMPQ op+72(FP), $0
	JNE  cmp
	CMPQ DX, $64
	JEQ  mul2

mul1:
	VMOVAPS Y4, Y0
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, CX

mul1tap:
	MOVQ (R12), R9
	LOAD1
	MULSTEP
	ADDQ $8, R12
	ADDQ $4, R13
	DECQ CX
	JNZ  mul1tap
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    DX, SI
	DECQ    BX
	JNZ     mul1
	VZEROUPPER
	RET

mul2:
	VMOVAPS Y4, Y0
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, CX

mul2tap:
	MOVQ (R12), R9
	LOAD2
	MULSTEP
	ADDQ $8, R12
	ADDQ $4, R13
	DECQ CX
	JNZ  mul2tap
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    DX, SI
	DECQ    BX
	JNZ     mul2
	VZEROUPPER
	RET

cmp:
	VBROADCASTSS laneConst<>+0(SB), Y7
	VBROADCASTSS laneConst<>+4(SB), Y9
	VBROADCASTSS laneConst<>+8(SB), Y8
	VXORPS       Y10, Y10, Y10
	CMPQ         op+72(FP), $1
	JEQ          cmpinit
	VBROADCASTSS laneConst<>+12(SB), Y10

cmpinit:
	// v0 enters like a tap: its NaN flag in Y6, a NaN replaced by -Inf.
	VXORPS Y10, Y4, Y4
	VCMPPS $3, Y4, Y4, Y6
	VMAXPS Y7, Y4, Y4
	CMPQ   DX, $64
	JEQ    max2

max1:
	VMOVAPS Y4, Y0
	VMOVAPS Y6, Y5
	MOVQ    R8, R12
	MOVQ    R11, CX

max1tap:
	MOVQ (R12), R9
	LOAD1
	MAXSTEP
	ADDQ $8, R12
	DECQ CX
	JNZ  max1tap
	MAXEND
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    DX, SI
	DECQ    BX
	JNZ     max1
	VZEROUPPER
	RET

max2:
	VMOVAPS Y4, Y0
	VMOVAPS Y6, Y5
	MOVQ    R8, R12
	MOVQ    R11, CX

max2tap:
	MOVQ (R12), R9
	LOAD2
	MAXSTEP
	ADDQ $8, R12
	DECQ CX
	JNZ  max2tap
	MAXEND
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    DX, SI
	DECQ    BX
	JNZ     max2
	VZEROUPPER
	RET

// func emitLanes8(d, t, c *float32, m *int32, n, act, cstr int)
//
// Writes n lanes back, 8 per block: d[i] = act(t[i] + c[i·cstr]), the add
// only when c is not nil (t first, as the scalar t + c), the chain c
// broadcast (cstr 0) or per column (cstr 1); act 0 none, 1 ReLU, 2 ReLU6
// with reluFast/relu6Fast's bits: VMAXPS against +0 gives +0 for -0 and
// every negative, VMINPS against 6 caps, and a NaN lane, which VMAXPS would
// turn into +0, becomes the canonical NaN. Loads of t and of a column chain,
// and the stores, are masked: whole blocks through all ones, a last block
// of fewer than 8 lanes through the mask at m (eight int32s), so it touches
// only its lanes. Requires n >= 1.
TEXT ·emitLanes8(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         t+8(FP), SI
	MOVQ         c+16(FP), R8
	MOVQ         m+24(FP), AX
	VMOVUPS      (AX), Y14
	VPCMPEQD     Y13, Y13, Y13
	MOVQ         n+32(FP), BX
	MOVQ         act+40(FP), CX
	MOVQ         cstr+48(FP), DX
	VXORPS       Y5, Y5, Y5
	VBROADCASTSS laneConst<>+16(SB), Y6
	VBROADCASTSS laneConst<>+8(SB), Y8
	TESTQ        R8, R8
	JZ           emit
	TESTQ        DX, DX
	JNZ          emit
	VBROADCASTSS (R8), Y4

emit:
	VMOVAPS Y13, Y12
	CMPQ    BX, $8
	JGE     emitfull
	VMOVAPS    Y14, Y12
	VMASKMOVPS (SI), Y12, Y0
	JMP        emitchain

emitfull:
	VMOVUPS (SI), Y0

emitchain:
	TESTQ      R8, R8
	JZ         emitact
	TESTQ      DX, DX
	JZ         emitadd
	VMASKMOVPS (R8), Y12, Y4
	ADDQ       $32, R8

emitadd:
	VADDPS Y4, Y0, Y0

emitact:
	TESTQ     CX, CX
	JZ        emitstore
	VCMPPS    $3, Y0, Y0, Y1
	VMAXPS    Y5, Y0, Y0
	CMPQ      CX, $2
	JNE       emitnan
	VMINPS    Y6, Y0, Y0

emitnan:
	VBLENDVPS Y1, Y8, Y0, Y0

emitstore:
	VMASKMOVPS Y0, Y12, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $8, BX
	JG         emit
	VZEROUPPER
	RET
