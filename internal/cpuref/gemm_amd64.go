package cpuref

import "repro/internal/cpufeat"

// useAVX selects gemm4x16 for Gemm's full 4x16 tiles. It is set once, here,
// from the shared CPU probe (cpufeat.AVX: AVX in CPUID and the YMM state
// enabled by the OS). Tests clear it to time and check the portable path.
var useAVX = cpufeat.AVX

// gemm4x16 is the AVX microkernel in gemm_amd64.s: C[0:4, 0:16] +=
// A[0:4, 0:kc] * B[0:kc, 0:16], strides in elements, kc >= 1. It does no
// bounds checking; gemmPanel indexes the last element of each operand
// before every call.
//
//go:noescape
func gemm4x16(a, b, c *float32, kc, lda, ldb, ldc int)
