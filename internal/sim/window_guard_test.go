//go:build linux

package sim

// The lane kernels' memory safety, and the write-back's bit identity: a
// run's loads must stay inside the elements its lanes reach, and its stores
// inside its row, at every lane count and stride, even where those elements
// end or start at an inaccessible page. A load or store past them (an
// unmasked tail block, or a stride-2 load that reaches one element past the
// last lane's) faults and kills the test binary.

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
}

// TestEmitBitIdenticalToScalar puts unit-stride rows of 1 to 17 points
// through the one write-back, lanes on and off: act none, ReLU and ReLU6;
// no chain, a broadcast one, a column one, or both (broadcast first); with
// and without the 1/49 scale. Across the rotations every special operand
// (maxMinSpecials) meets T, the broadcast and the column chain, and a last
// rotation sums +Inf and −Inf into a NaN. Each point must match the scalar
// formula through math.Max/math.Min bit for bit — except that where an add
// meets two NaNs only a NaN is required, since Go leaves which payload
// survives undefined (its compiler may commute the add) — a row must take the lane
// kernel exactly when lanes are on and it has more than one point, and D, T
// and the column chain sit against an inaccessible page, so the kernel's
// masked tail may neither read nor write past the row.
func TestEmitBitIdenticalToScalar(t *testing.T) {
	vals := make([]float32, len(maxMinSpecials))
	for i, b := range maxMinSpecials {
		vals[i] = math.Float32frombits(b)
	}
	nv := len(vals)
	inf := float32(math.Inf(1))
	const scale = float32(1.0 / 49)
	// scalar is the formula, and whether one of its adds met two NaNs.
	scalar := func(v, b, c float32, act ir.GemmAct, scaled, hasB, hasC bool) (float32, bool) {
		nans := false
		if scaled {
			v = float32(v * scale)
		}
		if hasB {
			nans = v != v && b != b
			v += b
		}
		if hasC {
			nans = nans || v != v && c != c
			v += c
		}
		switch act {
		case ir.GemmActRelu:
			v = maxF(v, 0)
		case ir.GemmActRelu6:
			v = minF(maxF(v, 0), 6)
		}
		return v, nans
	}
	rows, stop := CountEmitRows()
	defer stop()
	for _, on := range []bool{false, true} {
		restore := SetLanes(on)
		for n := 1; n <= 17; n++ {
			dEnd, dStart := guardedFloats(t, n)
			tEnd, tStart := guardedFloats(t, n)
			cEnd, cStart := guardedFloats(t, n)
			for _, mem := range [][3][]float32{{dEnd, tEnd, cEnd}, {dStart, tStart, cStart}} {
				d, tv, col := mem[0], mem[1], mem[2]
				for rot := 0; rot <= nv; rot++ {
					b := vals[(5*rot+2)%nv]
					for i := range tv {
						tv[i], col[i] = vals[(rot+i)%nv], vals[(3*rot+7*i+1)%nv]
					}
					if rot == nv {
						b = -inf
						for i := range tv {
							tv[i], col[i] = inf, -inf
						}
					}
					for _, act := range []ir.GemmAct{ir.GemmActNone, ir.GemmActRelu, ir.GemmActRelu6} {
						for chains := 0; chains < 4; chains++ {
							hasB, hasC := chains&1 != 0, chains&2 != 0
							for _, scaled := range []bool{false, true} {
								tn := &tileNest{act: act, scaled: scaled, scale: scale}
								tn.faD.data = d
								str := []int64{1, 1}
								if hasB {
									tn.faCh = append(tn.faCh, flatAcc{data: []float32{b}})
									str = append(str, 0)
								}
								if hasC {
									tn.faCh = append(tn.faCh, flatAcc{data: col})
									str = append(str, 1)
								}
								tn.wb = newWriteBack(1, len(tn.faCh))
								tn.wb.ext = append(tn.wb.ext, int64(n))
								tn.wb.str = append(tn.wb.str, str...)
								tn.wb.lanes = true
								tn.wb.plan()
								lanes0 := rows.Lanes.Load()
								tn.walk(tv)
								if got, want := rows.Lanes.Load()-lanes0 == 1, useLanes && n > 1; got != want {
									t.Fatalf("lanes %v n %d: lane path %v, want %v", on, n, got, want)
								}
								for i, v := range d {
									want, nans := scalar(tv[i], b, col[i], act, scaled, hasB, hasC)
									if math.Float32bits(v) != math.Float32bits(want) && !(nans && v != v && want != want) {
										t.Fatalf("lanes %v n %d act %d chains %d scaled %v: d[%d] = %#08x, want %#08x (T %#08x, b %#08x, c %#08x)",
											on, n, act, chains, scaled, i, math.Float32bits(v), math.Float32bits(want),
											math.Float32bits(tv[i]), math.Float32bits(b), math.Float32bits(col[i]))
									}
								}
							}
						}
					}
				}
			}
		}
		restore()
	}
}
