package cpuref

// useAVX selects gemm4x16 for Gemm's full 4x16 tiles. It is set once, here,
// from the CPU and OS: AVX in CPUID leaf 1 and the YMM state enabled in
// XCR0 (an OS that does not save the upper halves of the YMM registers
// across context switches makes them unusable). Tests clear it to time and
// check the portable path.
var useAVX = avxSupported()

func avxSupported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 0b110
	eax, _ := xgetbv()
	return eax&xmmYmmState == xmmYmmState
}

// gemm4x16 is the AVX microkernel in gemm_amd64.s: C[0:4, 0:16] +=
// A[0:4, 0:kc] * B[0:kc, 0:16], strides in elements, kc >= 1. It does no
// bounds checking; gemmPanel indexes the last element of each operand
// before every call.
//
//go:noescape
func gemm4x16(a, b, c *float32, kc, lda, ldb, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
