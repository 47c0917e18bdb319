package sim

// The write-back both whole-nest executors share: D = act(T (·scale) +
// chain…), the elementwise tail the thesis (and TVM) fuses into the pass
// that stores a layer's output — bias and residual adds, ReLU/ReLU6, an
// average pool's 1/F². The GEMM executor runs it once per kernel call over
// its C tile, the window executor once per outer point over its private
// tile, or once per merged lane run over the run's results.
//
// The write-part levels form one odometer (walk) whose innermost level is a
// row, and plan routes the rows by their shape once per nest entry. A row
// of two or more points that is unit-stride in D and T and whose chains are
// each broadcast (stride 0) or per column (stride 1) goes to the AVX2
// kernel emitLanes8 (window_amd64.s) where the CPU has it (useLanes) and D
// is disjoint from every chain. Every other row goes to the scalar twin
// emitScalar: one-point rows (a GEMV's outputs, a global average pool's
// per-channel outputs), which stay off the assembly call, strided rows, CPUs without AVX2
// and non-amd64 builds. A lane row with a scale or more than one chain
// keeps the scalar order through a scratch row: T·scale rounded in Go, then
// one kernel pass per chain but the last, each add rounded in chain order,
// then the last chain and the activation (with reluFast's and relu6Fast's
// bits) on the way to D. The scratch is not T itself: a GEMM's broadcast
// write level re-reads the same C-tile row.

import (
	"math"

	"repro/internal/ir"
)

// writeBack is the write-back's per-entry state. The walk's levels run
// outermost first and the last is the row: ext holds their extents, str
// their strides, level-major, for D, T and each chain in order, and off the
// current offsets in that order. plan sets the row's fields.
type writeBack struct {
	ext, str, off, idx []int64
	lanes              bool // D is disjoint from every chain: a row may read its operands before its first store

	n      int64   // points per row
	row    []int64 // the row's strides: D, T, chain…
	kernel bool    // the rows take the lane kernel
	mask   *int32  // the kernel's mask for a row's last block

	tmp []float32 // a lane row's T·scale and pre-added chains
}

// rowHook, when set (tests only), sees every write-back row's path.
var rowHook func(lanes bool)

// newWriteBack sizes the walk for nEpi write-part levels plus a row and nCh
// chains, so that setting up a walk never allocates.
func newWriteBack(nEpi, nCh int) writeBack {
	return writeBack{
		ext: make([]int64, 0, nEpi+1),
		str: make([]int64, 0, (nEpi+1)*(2+nCh)),
		off: make([]int64, 2+nCh),
		idx: make([]int64, nEpi),
	}
}

// plan fixes, once per nest entry, the path the rows the levels describe
// take, by the rule in the header.
func (wb *writeBack) plan() {
	last := len(wb.ext) - 1
	wb.n, wb.row = wb.ext[last], wb.str[last*len(wb.off):]
	k := useLanes && wb.lanes && wb.n > 1 && wb.row[0] == 1 && wb.row[1] == 1
	for _, s := range wb.row[2:] {
		k = k && (s == 0 || s == 1)
	}
	wb.kernel, wb.mask = k, &laneMask[-wb.n&7]
}

// walk writes back every row of the levels in nest order from the offsets in
// wb.off, T read from t. The offsets end where they started.
func (tn *tileNest) walk(t []float32) {
	wb := &tn.wb
	nP, last := len(wb.off), len(wb.ext)-1
	off, idx := wb.off, wb.idx[:last]
	clear(idx)
	for {
		tn.emit(t, off)
		l := last - 1
		for ; l >= 0; l-- {
			str := wb.str[l*nP : l*nP+nP]
			idx[l]++
			if idx[l] < wb.ext[l] {
				for p, s := range str {
					off[p] += s
				}
				break
			}
			idx[l] = 0
			for p, s := range str {
				off[p] -= (wb.ext[l] - 1) * s
			}
		}
		if l < 0 {
			return
		}
	}
}

// emit writes the row at offsets off, T read from t, on the path plan
// chose.
func (tn *tileNest) emit(t []float32, off []int64) {
	wb := &tn.wb
	if rowHook != nil {
		rowHook(wb.kernel)
	}
	if !wb.kernel {
		tn.emitScalar(t, off)
		return
	}
	nc, oT := len(tn.faCh), off[1]
	if tn.scaled || nc > 1 {
		t, oT = tn.preAdd(t, off), 0
	}
	var c *float32
	sc := 0
	if nc > 0 {
		c, sc = &tn.faCh[nc-1].data[off[1+nc]], int(wb.row[1+nc])
	}
	emitLanes8(&tn.faD.data[off[0]], &t[oT], c, wb.mask, int(wb.n), int(tn.act), sc)
}

// preAdd computes a lane row's T·scale (rounded in Go) plus every chain but
// the last (one kernel pass each, without the activation) into the scratch
// row, which it returns.
func (tn *tileNest) preAdd(t []float32, off []int64) []float32 {
	wb := &tn.wb
	n := wb.n
	if int64(len(wb.tmp)) < n {
		wb.tmp = make([]float32, n)
	}
	tmp := wb.tmp[:n]
	t = t[off[1] : off[1]+n]
	if tn.scaled {
		for i, v := range t {
			tmp[i] = float32(v * tn.scale)
		}
		t = tmp
	}
	for j := 0; j < len(tn.faCh)-1; j++ {
		emitLanes8(&tmp[0], &t[0], &tn.faCh[j].data[off[2+j]], wb.mask, int(n), 0, int(wb.row[2+j]))
		t = tmp
	}
	return tmp
}

// emitScalar writes the same row point by point: the scale and each add
// round to float32 in scalar order (the explicit conversion keeps the
// scale's product from fusing with an add), and every read of a point comes
// before its store.
func (tn *tileNest) emitScalar(t []float32, off []int64) {
	d, act, scaled, scale, ch := tn.faD.data, tn.act, tn.scaled, tn.scale, tn.faCh
	str := tn.wb.row
	oD, sD, oT, sT := off[0], str[0], off[1], str[1]
	for i := int64(0); i < tn.wb.n; i++ {
		v := t[oT+i*sT]
		if scaled {
			v = float32(v * scale)
		}
		for j := range ch {
			v += ch[j].data[off[2+j]+i*str[2+j]]
		}
		d[oD+i*sD] = actFast(act, v)
	}
}

// actFast applies a recognized write-back activation through the fast
// helpers below.
func actFast(act ir.GemmAct, v float32) float32 {
	switch act {
	case ir.GemmActRelu:
		return reluFast(v)
	case ir.GemmActRelu6:
		return relu6Fast(v)
	}
	return v
}

// reluFast is bit-identical to float32(math.Max(float64(v), 0)) — the
// scalar closures' max — including -0 → +0 and NaN → the canonical NaN
// math.Max returns (whatever the input NaN's sign and payload). It clears
// every value whose sign bit is set without a branch on the sign, which
// mixed-sign data would mispredict.
func reluFast(v float32) float32 {
	if v != v {
		return canonNaN
	}
	b := math.Float32bits(v)
	return math.Float32frombits(b &^ uint32(int32(b)>>31))
}

var canonNaN = float32(math.NaN())

// relu6Fast is bit-identical to min(max(v, 0), 6) through the same helpers.
func relu6Fast(v float32) float32 {
	v = reluFast(v)
	if v > 6 {
		return 6
	}
	return v
}
