package cpuref

import "repro/internal/cpufeat"

// useAVX selects the AVX kernels for every block of Gemm: gemm4x16 for full
// 4x16 tiles and gemmEdge for the rest. It is set once, here, from the
// shared CPU probe (cpufeat.AVX: AVX in CPUID and the YMM state enabled by
// the OS). Tests clear it to time and check the portable path.
var useAVX = cpufeat.AVX

// gemm4x16 is the AVX microkernel in gemm_amd64.s: C[0:4, 0:16] +=
// A[0:4, 0:kc] * B[0:kc, 0:16], strides in elements, kc >= 1. It does no
// bounds checking; gemmPanel indexes the last element of each operand
// before every call.
//
//go:noescape
func gemm4x16(a, b, c *float32, kc, lda, ldb, ldc int)

// gemmEdge is the AVX fringe kernel in gemm_amd64.s: C[0:rows, 0:cols] +=
// A[0:rows, 0:kc] * B[0:kc, 0:cols] for 1 <= rows <= 4, 1 <= cols <= 16,
// kc >= 1, with gemm4x16's roundings and masked loads and stores past
// cols. Like gemm4x16 it does no bounds checking.
//
//go:noescape
func gemmEdge(a, b, c *float32, kc, lda, ldb, ldc, rows, cols int)
