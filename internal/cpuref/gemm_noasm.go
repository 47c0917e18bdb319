//go:build !amd64

package cpuref

// useAVX is always false off amd64: gemmTwin runs every block.
var useAVX = false

func gemm4x16(a, b, c *float32, kc, lda, ldb, ldc int) {
	panic("cpuref: gemm4x16 called without AVX")
}

func gemmEdge(a, b, c *float32, kc, lda, ldb, ldc, rows, cols int) {
	panic("cpuref: gemmEdge called without AVX")
}
