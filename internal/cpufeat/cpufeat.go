// Package cpufeat probes, once at start-up, the x86 vector extensions the
// assembly microkernels need: cpuref's AVX GEMM tile and sim's lane-parallel
// window fold. Each kernel has a portable Go twin that runs when its flag is
// false (every non-amd64 build, and any CPU or OS without the extension), and
// the two produce the same bits, so the flags change speed, never results.
package cpufeat
