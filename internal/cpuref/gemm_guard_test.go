//go:build linux

package cpuref

// gemmEdge's memory safety: its masked loads of B and loads and stores of C
// must touch only the block's columns. Here B's and C's last fringe column
// ends a page that an inaccessible page follows, so an unmasked access past
// it faults and kills the test binary. The image source's gather gets the
// same fence after the activation's last element.

import (
	"math"
	"math/rand/v2"
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail returns n float32s that end where an inaccessible page begins.
func guardedTail(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (4*n+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	fence := (pages - 1) * page
	if err := syscall.Mprotect(mem[fence:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[fence-4*n])), n)
}

func TestGemmEdgeStaysInsideItsColumns(t *testing.T) {
	if !cpuHasAVX {
		t.Skip("CPU has no AVX: gemmEdge cannot run")
	}
	r := rand.New(rand.NewPCG(48, 1))
	for _, w := range []int{1, 8, 9, 15} {
		for _, n := range []int{w, 16 + w} {
			for _, m := range []int{4, 5} {
				const k = 3
				a0, b0, c0 := gemmOracleCase(r, m, k, n)
				a, b, c := guardedTail(t, m*k), guardedTail(t, k*n), guardedTail(t, m*n)
				copy(a, a0)
				copy(b, b0)
				copy(c, c0)
				gemmOracle(a0, b0, c0, m, k, n)
				withAVX(true, func() { Gemm(a, b, c, m, k, n, 1) })
				for i := range c {
					if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
						t.Fatalf("m=%d n=%d: c[%d] = %#08x, oracle %#08x", m, n, i, math.Float32bits(c[i]), math.Float32bits(c0[i]))
					}
				}
			}
		}
	}
	// The image source: the last strip's last column reads the activation's
	// last element, which ends a page, through the 64-byte copy of a one-run
	// strip (w2 = 16), the run copies of strips that straddle output rows
	// (w2 = 9, 13) and the strided gather (s = 2); C's last column ends the
	// other fenced page.
	for _, g := range []struct{ c, h, w, f, s int }{{2, 5, 18, 3, 1}, {1, 6, 11, 3, 1}, {2, 4, 15, 3, 1}, {3, 9, 9, 3, 2}, {2, 7, 7, 1, 2}} {
		k, n := g.c*g.f*g.f, ((g.h-g.f)/g.s+1)*((g.w-g.f)/g.s+1)
		for _, m := range []int{4, 5} {
			a, _, c0 := gemmOracleCase(r, m, k, n)
			in := guardedTail(t, g.c*g.h*g.w)
			for i := range in {
				in[i] = float32(i%19-8) * 0.5
			}
			c := guardedTail(t, m*n)
			copy(c, c0)
			gemmOracle(a, im2colGather(in, g.c, g.h, g.w, g.f, g.s, 0), c0, m, k, n)
			withAVX(true, func() { GemmImage(a, &Image{Data: in, C: g.c, H: g.h, W: g.w, F: g.f, S: g.s}, c, m, 1) })
			for i := range c {
				if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
					t.Fatalf("image %+v m=%d: c[%d] = %#08x, oracle %#08x", g, m, i, math.Float32bits(c[i]), math.Float32bits(c0[i]))
				}
			}
		}
	}
}
