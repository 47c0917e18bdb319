package sim

// Strided-window lowering — the whole-nest match's second executor. The
// thesis unrolls a depthwise convolution's W2×F×F window and a pooling
// window fully (Tables 6.7 and 6.13); lowered one loop at a time, that
// unrolling would be one tiny nest entry per output point, each
// re-evaluating its extents, strides and bounds box for a handful of
// multiply-adds. Every tile nest ir.MatchGemmNest recognizes that the GEMM
// does not take — depthwise convolution, max/min and average pooling (a
// write-back scaled by a float literal), sums over one load, and the
// matmul-shaped nests the GEMM declines at run time, the dense layers'
// GEMVs — runs here instead, once per kernel call:
//
//  1. evaluate the extents and flatten and box-check every access once
//     (tileNest.bind, shared with the GEMM executor);
//  2. classify the reduction-part levels by their accumulator stride: a
//     nonzero stride is a tile level (one accumulator slot per point, the
//     slots distinct), a zero stride a reduction level (a window tap);
//  3. walk the outer odometer advancing only the flat bases, and at each
//     outer point fold every tile slot's window into a register in nest
//     order, store it to its slot of the private tile T, and run the
//     write-back in write-walk order, through the write-back both
//     executors share (emit.go).
//
// Where the CPU has AVX2 (useLanes) and the fold has a lane axis, the fold
// runs on the lane kernel of window_amd64.s instead, 8 outputs per
// instruction (planLanes): a merged run folds a whole row of outer points
// and writes it back as one row. The scalar fold is the portable twin and
// gives the same bits. A product nest with one slot per outer point — a
// GEMV — has no lane axis, and its single accumulator chain would wait on
// the add latency at every tap; where its taps are contiguous it folds four
// consecutive points of the innermost outer level in four accumulators
// instead (planMulti), in portable Go.
//
// Any failed check replays the nest on its twin, counted in
// ExecStats.GemmBailouts. The numerical contract is exact: each slot sees
// the same float32 operations in the same order as the scalar nest (products
// converted with an explicit float32(...) before they are added, max/min
// through maxFast/minFast, bit-identical to the scalar math.Max/math.Min
// round trips, a write-back scale rounded before the chain adds), and the
// phases keep their scalar order — an outer point's window reads happen
// after the previous point's writes and before its own. The reduction phase
// writes only T, which is kernel-private, so the destination may alias the
// operands (or a post-add) and the result is still the scalar one. A merged
// lane run and a four-point fold give up that order, and are taken only
// where the destination is disjoint from everything the fold and the
// write-back read.

import "repro/internal/ir"

// Pointer slots of windowLoop.off: the reduction side, then the write side.
const (
	wpT = iota
	wpA
	wpB
	wpD // then W and the post-add chain loads
)

// windowLoop is the strided-window executor: a non-matmul tile nest plus its
// per-entry scratch.
type windowLoop struct {
	*tileNest
	faW flatAcc  // T as the write-back reads it, over the write-part levels
	op  ir.BinOp // Add, MaxOp or MinOp
	mul bool     // the rhs is LoadA·LoadB

	ptrs []*flatAcc // T, A, B, D, W, chain…: advanced together per outer point
	off  []int64
	oIdx []int64 // outer odometer

	tile, red []int // reduction-part levels: accumulator-strided, reduction

	// Per-entry tables, grown on demand and kept: the A/B/T offsets of
	// every tile slot, the A/B offsets of every window tap (every point of
	// the reduction levels, in nest order), and the outer levels' strides
	// and rewinds, level-major over ptrs.
	slotT, slotA, slotB []int64
	tapA, tapB          []int64
	ostr, orew          []int64

	// The lane plan (planLanes): outputs per merged lane run (0: the
	// scalar fold) and A's element stride between lanes. laneOut receives
	// a run's results, rounded up to whole 8-lane blocks; laneB the
	// per-tap B values (1s for a one-load sum).
	lanes          int64
	laneStr        int
	laneOut, laneB []float32

	// The four-point plan (planMulti): multi selects it; x is the pointer
	// slot of the operand constant along the innermost outer level, w the
	// one that moves.
	multi bool
	x, w  int
}

// laneHook, when set (tests only), sees every window run's plan: its lane
// count and whether it takes the four-point fold.
var laneHook func(lanes int64, multi bool)

// windowLoop compiles the executor, or returns nil when T's write-back
// index is not affine in the write-part variables.
func (c *compiler) windowLoop(g *ir.GemmNest, tn *tileNest) *windowLoop {
	epiVars := append(append([]*ir.Var{}, g.OuterVars...), g.Write.Vars...)
	wl := &windowLoop{tileNest: tn, op: g.Op, mul: g.LoadB != nil}
	wl.faW = flatAcc{acc: c.access(g.T, g.TLoad.Index, epiVars), str: make([]int64, tn.nEpi)}
	if wl.faW.acc == nil {
		return nil
	}
	wl.ptrs = []*flatAcc{&tn.faT, &tn.faA, &tn.faB, &tn.faD, &wl.faW}
	for i := range tn.faCh {
		wl.ptrs = append(wl.ptrs, &tn.faCh[i])
	}
	nR, nP := tn.nRed, len(wl.ptrs)
	wl.off = make([]int64, nP)
	wl.oIdx = make([]int64, tn.nOuter)
	wl.tile = make([]int, 0, nR)
	wl.red = make([]int, 0, nR)
	wl.ostr = make([]int64, tn.nOuter*nP)
	wl.orew = make([]int64, tn.nOuter*nP)
	return wl
}

func (wl *windowLoop) run(e *cenv) {
	switch wl.prepare(e) {
	case gemmOK:
		if st := e.m.stats; st != nil {
			st.WindowRuns.Add(1)
		}
		if laneHook != nil {
			laneHook(wl.lanes, wl.multi)
		}
		wl.execute(e)
	case gemmBail:
		if st := e.m.stats; st != nil {
			st.GemmBailouts.Add(1)
		}
		wl.twin(e)
	default:
		wl.twin(e)
	}
}

// prepare binds the nest, classifies the reduction-part levels and builds
// the slot and window tables.
func (wl *windowLoop) prepare(e *cenv) int {
	if r := wl.bind(e); r != gemmOK {
		return r
	}
	if !wl.faW.flatten(e, wl.eext) {
		return gemmBail
	}
	sT := wl.faT.str
	tile, red := wl.tile[:0], wl.red[:0]
	for r := wl.nOuter; r < wl.nRed; r++ {
		switch {
		case wl.ext[r] == 1:
		case sT[r] < 0:
			return gemmBail
		case sT[r] > 0:
			tile = append(tile, r)
		default:
			red = append(red, r)
		}
	}
	// Folding each slot on its own keeps the scalar order only if no two
	// tile points share a slot.
	sortIdxBy(tile, func(r int) int64 { return sT[r] })
	span := int64(0)
	for _, r := range tile {
		if sT[r] <= span {
			return gemmBail
		}
		span += sT[r] * (wl.ext[r] - 1)
	}
	wl.tile, wl.red = tile, red

	// Tile slots, in any order: each slot's fold is independent.
	n := int64(1)
	for _, r := range tile {
		n *= wl.ext[r]
	}
	wl.slotT, wl.slotA, wl.slotB = grown(wl.slotT, n), grown(wl.slotA, n), grown(wl.slotB, n)
	size := int64(1)
	for _, r := range tile {
		expand(wl.slotT, size, wl.ext[r], sT[r])
		expand(wl.slotA, size, wl.ext[r], wl.faA.str[r])
		expand(wl.slotB, size, wl.ext[r], wl.faB.str[r])
		size *= wl.ext[r]
	}

	// Window taps: every point of the reduction levels, the first level
	// slowest, so each slot folds in the scalar nest's order.
	n = 1
	for _, r := range red {
		n *= wl.ext[r]
	}
	wl.tapA, wl.tapB = grown(wl.tapA, n), grown(wl.tapB, n)
	size = 1
	for i := len(red) - 1; i >= 0; i-- {
		r := red[i]
		expand(wl.tapA, size, wl.ext[r], wl.faA.str[r])
		expand(wl.tapB, size, wl.ext[r], wl.faB.str[r])
		size *= wl.ext[r]
	}

	nP := len(wl.ptrs)
	for l := 0; l < wl.nOuter; l++ {
		for p, fa := range wl.ptrs {
			wl.ostr[l*nP+p] = fa.str[l]
			wl.orew[l*nP+p] = (wl.ext[l] - 1) * fa.str[l]
		}
	}
	wl.lanes, wl.multi = 0, false
	if useLanes {
		wl.planLanes()
	}
	if wl.lanes == 0 {
		wl.planMulti()
	}

	// The write-back walk: the write-part levels, the innermost the row; or
	// one row, of a merged run's lanes (T their results in laneOut, the
	// chain constant along them) or of a single point.
	wb := &wl.wb
	wb.ext, wb.str = wb.ext[:0], wb.str[:0]
	for l := wl.nOuter; l < wl.nEpi && wl.lanes == 0; l++ {
		wb.ext = append(wb.ext, wl.eext[l])
		for _, fa := range wl.ptrs[wpD:] {
			wb.str = append(wb.str, fa.str[l])
		}
	}
	if len(wb.ext) == 0 {
		wb.ext = append(wb.ext, max(wl.lanes, 1))
		wb.str = append(wb.str, 1, 1)
		for range wl.faCh {
			wb.str = append(wb.str, 0)
		}
	}
	wb.plan()
	return gemmOK
}

// planMulti sets the four-point plan for a product nest with one slot per
// outer point when one operand (x) is constant along the innermost outer
// level, the other (w) moves along it, and both read their window taps as
// 0, 1, …, n-1: a dense layer's input and weight rows. Four points fold
// together, so the next three points' windows are read before the current
// point's write-back; that needs D's reach disjoint from everything the fold
// and the write-back read. Every other nest keeps the per-point fold.
func (wl *windowLoop) planMulti() {
	m := wl.nOuter - 1
	if !wl.mul || len(wl.tile) > 0 || m < 0 || wl.ext[m] < 4 ||
		!wl.unitTaps(wl.faA.str) || !wl.unitTaps(wl.faB.str) {
		return
	}
	switch sA, sB := wl.faA.str[m], wl.faB.str[m]; {
	case sA == 0 && sB != 0:
		wl.x, wl.w = wpA, wpB
	case sB == 0 && sA != 0:
		wl.x, wl.w = wpB, wpA
	default:
		return
	}
	if !wl.disjointD() {
		return
	}
	wl.multi = true
}

// unitTaps reports whether the window taps of an operand with strides str
// are 0, 1, …, n-1 in nest order.
func (wl *windowLoop) unitTaps(str []int64) bool {
	want := int64(1)
	for i := len(wl.red) - 1; i >= 0; i-- {
		r := wl.red[i]
		if str[r] != want {
			return false
		}
		want *= wl.ext[r]
	}
	return true
}

// planLanes sets the lane plan when the fold has a lane axis: outputs whose
// A windows start 1 or 2 elements apart and whose B operand, if any, is the
// same for all of them. The axis is the tile slots (at most one tile
// level; none in a pool) merged with the innermost outer level, as far as
// mergeable allows, and it needs two lanes or more: a one-lane run (a
// global average pool's 1×1 output) would fold one output per lane-kernel
// call. Every other nest keeps the scalar fold.
func (wl *windowLoop) planLanes() {
	m := wl.nOuter - 1
	if len(wl.tile) > 1 || m < 0 {
		return
	}
	nS, sA := int64(1), wl.faA.str[m]
	if len(wl.tile) == 1 {
		r := wl.tile[0]
		if wl.mul && wl.faB.str[r] != 0 {
			return
		}
		nS, sA = wl.ext[r], wl.faA.str[r]
	}
	if nS*wl.ext[m] < 2 || sA != 1 && sA != 2 || !wl.mergeable(m, nS, sA) {
		return
	}
	wl.lanes, wl.laneStr = nS*wl.ext[m], int(sA)
	if n := (wl.lanes + 7) &^ 7; int64(cap(wl.laneOut)) < n {
		wl.laneOut = make([]float32, n)
	}
	n := len(wl.tapA)
	if cap(wl.laneB) < n {
		wl.laneB = make([]float32, n)
	}
	wl.laneB = wl.laneB[:n]
	if !wl.mul {
		for k := range wl.laneB {
			wl.laneB[k] = 1 // x*1 is exactly x: a sum folds as products
		}
	}
}

// mergeable reports whether the lanes can span outer level m (nS slots per
// point, lanes sA elements apart on A) as one merged run: one fold of the
// whole row, then one write-back row of it. That needs
// m's A stride to continue the lanes' progression and B constant along m;
// the write-back to be the row D[0:lanes] = act(T + c): at most one chain
// load c, constant along the row, the one non-trivial write level (if any)
// the tile level, D unit-strided along the lanes and T read where the fold
// stored it; and D's reach disjoint from A's, B's and c's. A merged run
// reads every window of the row before its first write-back, and reads c
// once, where the scalar order interleaves them with the writes; the
// disjointness makes that unobservable.
func (wl *windowLoop) mergeable(m int, nS, sA int64) bool {
	if wl.faA.str[m] != nS*sA || wl.mul && wl.faB.str[m] != 0 || wl.faD.str[m] != nS ||
		len(wl.faCh) > 1 || len(wl.faCh) == 1 && wl.faCh[0].str[m] != 0 || wl.faW.base != wl.faT.base {
		return false
	}
	for l := 0; l < wl.nOuter; l++ {
		if wl.faW.str[l] != wl.faT.str[l] {
			return false
		}
	}
	levels := 0
	for i := wl.nOuter; i < wl.nEpi; i++ {
		if wl.eext[i] == 1 {
			continue
		}
		if len(wl.tile) == 0 || wl.epiToRed[i] != wl.tile[0] || wl.faD.str[i] != 1 ||
			wl.faW.str[i] != wl.faT.str[wl.tile[0]] || len(wl.faCh) == 1 && wl.faCh[0].str[i] != 0 {
			return false
		}
		levels++
	}
	return levels == len(wl.tile) && wl.disjointD()
}

// disjointD reports whether D's reach is disjoint from A's, B's and (as bind
// found for the write-back) every chain load's.
func (wl *windowLoop) disjointD() bool {
	d := wl.faD.reach(wl.eext)
	return wl.wb.lanes && !overlaps(d, wl.faA.reach(wl.ext)) && !(wl.mul && overlaps(d, wl.faB.reach(wl.ext)))
}

// reach returns the elements of fa's binding the nest reaches over ext.
func (fa *flatAcc) reach(ext []int64) []float32 {
	lo, hi := fa.base, fa.base
	for l, s := range fa.str {
		if s > 0 {
			hi += s * (ext[l] - 1)
		} else {
			lo += s * (ext[l] - 1)
		}
	}
	return fa.data[lo : hi+1]
}

// grown returns buf resliced to n entries with buf[0] == 0, reallocating
// only when a larger binding than any before arrives.
func grown(buf []int64, n int64) []int64 {
	if int64(cap(buf)) < n {
		buf = make([]int64, n)
	}
	buf = buf[:n]
	buf[0] = 0
	return buf
}

// expand extends the table of the first size points of a box by one level of
// extent n and stride s, the earlier levels varying fastest.
func expand(tab []int64, size, n, s int64) {
	for i := int64(1); i < n; i++ {
		for j := int64(0); j < size; j++ {
			tab[i*size+j] = tab[j] + i*s
		}
	}
}

// execute walks the outer odometer: per outer point, the reduction phase
// (fold) and then the write-back phase, exactly the scalar phase order; or,
// under a lane plan, the same two phases once per merged row; or, under the
// four-point plan, once per row of the innermost outer level (multiRow).
func (wl *windowLoop) execute(e *cenv) {
	v0 := wl.initVal(e)
	off := wl.off
	for p, fa := range wl.ptrs {
		off[p] = fa.base
	}
	nP := len(off)
	idx := wl.oIdx
	clear(idx)
	if wl.lanes > 0 || wl.multi {
		idx = idx[:len(idx)-1] // one row run covers the innermost outer level
	}
	for {
		switch {
		case wl.lanes > 0:
			wl.laneFold(v0)
			o := wl.wb.off
			o[0], o[1] = off[wpD], 0 // T: the run's results, from laneOut[0]
			for ch := range wl.faCh {
				o[2+ch] = off[wpD+2+ch]
			}
			wl.emit(wl.laneOut, o)
		case wl.multi:
			wl.multiRow(v0)
		default:
			wl.fold(v0)
			wl.writeBack()
		}
		l := len(idx) - 1
		for ; l >= 0; l-- {
			idx[l]++
			if idx[l] < wl.ext[l] {
				for p, d := range wl.ostr[l*nP : l*nP+nP] {
					off[p] += d
				}
				break
			}
			idx[l] = 0
			for p, d := range wl.orew[l*nP : l*nP+nP] {
				off[p] -= d
			}
		}
		if l < 0 {
			return
		}
	}
}

// laneMask holds the load masks of a block's lanes: the eight int32s from
// laneMask[8-k] enable the first k elements of a load.
var laneMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// laneFold folds the current merged run into laneOut: lane i's window starts
// laneStr·i elements past the run's first, B's values are gathered once per
// run (constant along the lanes), whole 8-lane blocks run in one kernel call
// and the tail in a second whose loads are masked to the elements its lanes
// reach, so no load leaves the box bind checked.
func (wl *windowLoop) laneFold(v0 float32) {
	a, taps, bv := wl.faA.data[wl.off[wpA]:], wl.tapA, wl.laneB
	if wl.mul {
		b, oB := wl.faB.data, wl.off[wpB]
		for k, tb := range wl.tapB {
			bv[k] = b[oB+tb]
		}
	}
	op := 0 // foldLanes8's op: products and sums 0, max 1, min 2
	switch wl.op {
	case ir.MaxOp:
		op = 1
	case ir.MinOp:
		op = 2
	}
	n, s := int(wl.lanes), wl.laneStr
	full := n &^ 7
	if full > 0 {
		foldLanes8(&wl.laneOut[0], &a[0], &taps[0], &bv[0], &laneMask[0], &laneMask[0],
			len(taps), full/8, s, op, v0)
	}
	if t := n - full; t > 0 {
		k1, k2 := t, 0
		if s == 2 {
			k1, k2 = min(2*t-1, 8), max(2*t-8, 0) // elements 0..2t-2, loaded as 0..7 and 7..14
		}
		foldLanes8(&wl.laneOut[full], &a[full*s], &taps[0], &bv[0], &laneMask[8-k1], &laneMask[8-k2],
			len(taps), 1, s, op, v0)
	}
}

// fold reduces every tile slot's window into a register, starting from the
// init value, taps in nest order, and stores it to the slot. It is the
// portable twin of the lane path. The op is hoisted out of the loops, so
// each case is the whole microkernel. Products fold four slots at a time:
// four independent accumulators keep the adds' latency off the critical
// path, and each slot still sees its own taps in order.
func (wl *windowLoop) fold(v0 float32) {
	t, a, b := wl.faT.data, wl.faA.data, wl.faB.data
	oT, oA, oB := wl.off[wpT], wl.off[wpA], wl.off[wpB]
	slotT, slotA, slotB, tapA, tapB := wl.slotT, wl.slotA, wl.slotB, wl.tapA, wl.tapB
	switch {
	case wl.mul:
		s := 0
		for ; s+4 <= len(slotT); s += 4 {
			pa0, pa1, pa2, pa3 := oA+slotA[s], oA+slotA[s+1], oA+slotA[s+2], oA+slotA[s+3]
			pb0, pb1, pb2, pb3 := oB+slotB[s], oB+slotB[s+1], oB+slotB[s+2], oB+slotB[s+3]
			acc0, acc1, acc2, acc3 := v0, v0, v0, v0
			for k, ta := range tapA {
				tb := tapB[k]
				acc0 += float32(a[pa0+ta] * b[pb0+tb])
				acc1 += float32(a[pa1+ta] * b[pb1+tb])
				acc2 += float32(a[pa2+ta] * b[pb2+tb])
				acc3 += float32(a[pa3+ta] * b[pb3+tb])
			}
			t[oT+slotT[s]] = acc0
			t[oT+slotT[s+1]] = acc1
			t[oT+slotT[s+2]] = acc2
			t[oT+slotT[s+3]] = acc3
		}
		for ; s < len(slotT); s++ {
			pa, pb := oA+slotA[s], oB+slotB[s]
			acc := v0
			for k, ta := range tapA {
				acc += float32(a[pa+ta] * b[pb+tapB[k]])
			}
			t[oT+slotT[s]] = acc
		}
	case wl.op == ir.Add:
		for s, st := range slotT {
			pa := oA + slotA[s]
			acc := v0
			for _, ta := range tapA {
				acc += a[pa+ta]
			}
			t[oT+st] = acc
		}
	case wl.op == ir.MaxOp:
		for s, st := range slotT {
			pa := oA + slotA[s]
			acc := v0
			for _, ta := range tapA {
				acc = maxFast(acc, a[pa+ta])
			}
			t[oT+st] = acc
		}
	default:
		for s, st := range slotT {
			pa := oA + slotA[s]
			acc := v0
			for _, ta := range tapA {
				acc = minFast(acc, a[pa+ta])
			}
			t[oT+st] = acc
		}
	}
}

// multiRow runs the innermost outer level's points from the current offsets
// under the four-point plan: four points fold together, each accumulator
// seeing its own taps in nest order, then each point stores its slot and
// writes back, in point order; the last n mod 4 points take the per-point
// fold. The offsets end where they started.
func (wl *windowLoop) multiRow(v0 float32) {
	m := wl.nOuter - 1
	nP := len(wl.off)
	off, step := wl.off, wl.ostr[m*nP:m*nP+nP]
	x, w, sw := wl.ptrs[wl.x].data, wl.ptrs[wl.w].data, step[wl.w]
	k := int64(len(wl.tapA))
	t := wl.faT.data
	var acc [4]float32
	n, i := wl.ext[m], int64(0)
	for ; i+4 <= n; i += 4 {
		ox, ow := off[wl.x], off[wl.w]
		acc[0], acc[1], acc[2], acc[3] = dot4(x[ox:ox+k],
			w[ow:ow+k], w[ow+sw:ow+sw+k], w[ow+2*sw:ow+2*sw+k], w[ow+3*sw:ow+3*sw+k], v0)
		for _, v := range acc {
			t[off[wpT]] = v
			wl.writeBack()
			for p, d := range step {
				off[p] += d
			}
		}
	}
	for ; i < n; i++ {
		wl.fold(v0)
		wl.writeBack()
		for p, d := range step {
			off[p] += d
		}
	}
	for p, d := range step {
		off[p] -= n * d
	}
}

// dot4 folds four outputs that share the operand x over contiguous taps:
// a_j = v0 + float32(x[0]·w_j[0]) + float32(x[1]·w_j[1]) + …, every product
// rounded before its add and the adds in tap order, in four independent
// chains. Which side of the product x is on is unobservable: a float32
// multiply gives the same bits either way, except for which payload
// survives when two NaNs meet, which Go does not define (its compiler may
// commute the operands itself).
func dot4(x, w0, w1, w2, w3 []float32, v0 float32) (a0, a1, a2, a3 float32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	a0, a1, a2, a3 = v0, v0, v0, v0
	for k, xv := range x {
		a0 += float32(xv * w0[k])
		a1 += float32(xv * w1[k])
		a2 += float32(xv * w2[k])
		a3 += float32(xv * w3[k])
	}
	return a0, a1, a2, a3
}

// writeBack runs the write-part nest at the current outer point.
func (wl *windowLoop) writeBack() {
	copy(wl.wb.off, wl.off[wpD:])
	wl.walk(wl.faW.data)
}
