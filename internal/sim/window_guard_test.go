//go:build linux && amd64

package sim

// The lane kernels' memory safety: a run's loads must stay inside the
// elements its lanes reach, and its stores inside its row, at every lane
// count and stride, even where those elements end or start at an
// inaccessible page. A load or store past them (an unmasked tail block, or
// a stride-2 load that reaches one element past the last lane's) faults and
// kills the test binary.

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/ir"
)

// guardedFloats returns two views of n float32s inside anonymous memory
// fenced by inaccessible pages: one ending at the upper fence, one starting
// at the lower one.
func guardedFloats(t *testing.T, n int) (atEnd, atStart []float32) {
	t.Helper()
	page := syscall.Getpagesize()
	if 4*n > page {
		t.Fatalf("%d floats do not fit one page", n)
	}
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	view := func(off int) []float32 { return unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), n) }
	return view(2*page - 4*n), view(page)
}

func TestLaneKernelsStayInsideTheirRow(t *testing.T) {
	if !useLanes {
		t.Skip("CPU has no AVX2: the lane kernels cannot run")
	}
	for _, stride := range []int{1, 2} {
		for lanes := 1; lanes <= 17; lanes++ {
			n := (lanes-1)*stride + 1 // exactly the elements the lanes reach
			atEnd, atStart := guardedFloats(t, n)
			for _, a := range [][]float32{atEnd, atStart} {
				for i := range a {
					a[i] = float32(i)
				}
				got := laneFoldOf(ir.Add, 0.5, a, []int64{0}, stride, lanes)
				for i, v := range got {
					if want := float32(i*stride) + 0.5; v != want {
						t.Fatalf("stride %d lanes %d: lane %d = %v, want %v", stride, lanes, i, v, want)
					}
				}
			}
		}
	}
	for lanes := 1; lanes <= 17; lanes++ {
		atEnd, atStart := guardedFloats(t, lanes)
		for _, d := range [][]float32{atEnd, atStart} {
			wl := &windowLoop{tileNest: &tileNest{act: ir.GemmActRelu6}, lanes: int64(lanes)}
			wl.faD.data = d
			wl.off = make([]int64, wpD+1)
			wl.laneOut = make([]float32, (lanes+7)&^7)
			for i := range wl.laneOut {
				wl.laneOut[i] = float32(i) - 3
			}
			wl.emitLanes()
			for i, v := range d {
				if want := float32(math.Min(math.Max(float64(i)-3, 0), 6)); v != want {
					t.Fatalf("lanes %d: d[%d] = %v, want %v", lanes, i, v, want)
				}
			}
		}
	}
}
