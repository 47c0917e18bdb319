//go:build !amd64

package cpufeat

// AVX and AVX2 are x86 extensions: always false off amd64.
var AVX, AVX2 = false, false
