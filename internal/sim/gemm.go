package sim

// Whole-nest lowering — the vector tier's top rung. When the structural
// matcher (ir.MatchGemmNest) recognizes an {init, reduce, write-back} tile
// nest, the compiler takes the *entire* nest off the loop ladder and gives
// it to one of two executors that share its compiled front end (tileNest:
// extents, level maps, flattened accesses, replay twin): a matmul-shaped
// nest (conv, dense) runs here on the cache-blocked cpuref.Gemm, every other
// tile nest (depthwise convolution, pooling) on the strided-window
// microkernel of window.go. A matmul-shaped nest the GEMM declines at run
// time as too narrow or too small (the dense layers' GEMVs) runs on a window
// loop compiled from the same front end.
//
// The GEMM executor fuses the write-back's elementwise tail (bias add,
// residual add, ReLU/ReLU6) into its epilogue, one pass of the write-back
// both executors share (emit.go) over the C tile. Everything the matcher
// could not prove syntactically is verified here at run time, once per nest
// entry, against the evaluated strides:
//
//   - every reduction-nest level classifies as exactly one of k (reduction),
//     m (A rows), n (B columns) or broadcast, with the k levels forming A's
//     contiguous minor axis and the m levels tiling A's rows exactly;
//   - the B operand is either already the row-major [K,N] matrix (pointwise
//     conv, dense — zero copy) or a [C1,H,W] input whose k/n strides spell
//     out the patch matrix of an (F,s) convolution, in which case
//     cpuref.GemmImage gathers it one 16-column strip at a time straight
//     from the input (implicit GEMM: the patch matrix is never built);
//   - the write-back nest walks a contiguous column range of each output row
//     and the destination is injective over the nest (no write ever lands on
//     another write's slot), so epilogue order cannot be observed;
//   - no operand aliases the destination or the accumulator tile.
//
// Any failed check replays the nest on its twin, plain closures compiled
// from the same nest, counted in ExecStats.GemmBailouts — the same
// bit-identity discipline as the pad and copy lowerings' guard bailouts.
// The numerical contract is exact: cpuref.Gemm accumulates in
// ascending-k order with per-step float32 rounding (no FMA contraction), the
// bias/residual adds happen after the full k sum in scalar evaluation order,
// and the activation helpers are bit-identical to the scalar closures'
// math.Max/math.Min round trips (including NaN and signed-zero behavior).
//
// The compiled executors, their scratch (C tile, the image source's strip
// and offset tables, window tables) and the verified lowering live with the
// per-machine compiled kernel, so a host.RunBatch worker pays the lowering
// once and reuses the scratch for every image in the batch.

import (
	"math"

	"repro/internal/cpuref"
	"repro/internal/ir"
)

const (
	// gemmMinCols: with fewer output columns than this per row, most of a
	// 16-wide GEMM tile's lanes idle, so the nest goes to the window
	// executor instead (uncounted): a one-column GEMV folds four outputs per
	// pass there.
	gemmMinCols = 8
	// gemmMinMACs: below this many multiply-accumulates the per-entry stride
	// verification outweighs the GEMM win; the window executor takes it.
	gemmMinMACs = 4096
)

// Reduction-level classes assigned by verifyAssign.
const (
	gclsDrop int8 = iota // extent 1: contributes nothing
	gclsK                // reduction level (no tile/dest dependence)
	gclsM                // tiles A's row axis
	gclsN                // tiles B's column axis
	gclsB                // broadcast: only the destination depends on it
)

// tryGemm outcomes.
const (
	gemmOK   = iota // executed on the GEMM path
	gemmSkip        // unprofitable / zero-trip: run the window or the twin, not a bailout
	gemmBail        // guard failure: run the twin, counted in ExecStats
)

// affineAcc is one buffer access in compiled form: everything needed to
// evaluate its flat base/strides and its bounds box once per nest entry.
type affineAcc struct {
	ref   func(*cenv) []float32
	dims  []intFn   // buffer extents (possibly symbolic)
	bases []intFn   // per-dim affine base
	coefs [][]intFn // per-dim, per-nest-var affine coefficient
}

// access compiles the affine decomposition (ir.LinearizeAccess) of one
// buffer access, or nil when any index is not affine in the nest.
func (c *compiler) access(buf *ir.Buffer, index []ir.Expr, vars []*ir.Var) *affineAcc {
	ap, ok := ir.LinearizeAccess(buf, index, vars)
	if !ok {
		return nil
	}
	a := &affineAcc{ref: c.bufferRef(buf)}
	for d, lin := range ap.Dims {
		a.dims = append(a.dims, c.intFn(buf.Shape[d]))
		a.bases = append(a.bases, c.intFn(lin.Base))
		cf := make([]intFn, len(vars))
		for i, coeff := range lin.Coeffs {
			cf[i] = c.intFn(coeff)
		}
		a.coefs = append(a.coefs, cf)
	}
	return a
}

// flatAcc is a compiled buffer access plus its per-entry flattening: the
// flat base/stride form evaluated against the current environment, with the
// bounds box already checked.
type flatAcc struct {
	acc  *affineAcc
	str  []int64
	base int64
	data []float32
}

// tileNest is the compiled front end both whole-nest executors share: the
// extents, the level maps between the three phases, the compiled accesses
// and the replay twin. Machines are single-threaded, so the per-entry
// scratch lives with the compiled program and is reused across runs
// (RunBatch amortization).
type tileNest struct {
	nOuter, nRed, nEpi int

	redExt  []intFn // outer extents ++ reduction-part extents
	epiExt  []intFn // outer extents ++ write-part extents
	initExt []intFn // init-part extents

	initToRed []int // init level -> reduction-list index
	epiToRed  []int // epi level -> reduction-list index, -1 if not shared

	faT, faA, faB, faD flatAcc // faB.acc is nil for a one-load rhs
	faCh               []flatAcc

	initVal floatFn
	act     ir.GemmAct
	scaled  bool // the write-back reads T·scale (the window executor only)
	scale   float32
	twin    stmtFn // scalar/vector replay for skips and bailouts

	ext, eext, iext []int64
	wb              writeBack
}

// wholeNest lowers a nest the structural matcher recognizes onto one of its
// two executors: matmul-shaped nests onto cpuref.Gemm (gemmLoop), with a
// window loop over the same front end for the entries the GEMM declines;
// every other tile nest — depthwise convolution, max/min pooling, sums over
// one load, and any scaled write-back — onto the strided-window microkernel
// (window.go). nil means "not recognized", and the caller tries the copy and
// pad lowerings, then the closures.
func (c *compiler) wholeNest(f *ir.For) stmtFn {
	g := ir.MatchGemmNest(f)
	// The accumulator tile must be kernel-private: allocated here and never
	// referenced outside the nest, so replacing its per-element history with
	// one bulk kernel is unobservable.
	if g == nil || c.kernel == nil || !gemmBufPrivate(c.kernel.Body, f, g.T) {
		return nil
	}
	tn := c.tileNest(g)
	if tn == nil {
		return nil
	}
	gemm := g.Matmul && g.Scale == nil // the GEMM epilogue has no scale
	wl := c.windowLoop(g, tn)
	var run stmtFn
	switch {
	case gemm:
		gl := newGemmLoop(tn)
		gl.win = wl // nil: a declined entry replays on the twin
		run = gl.run
	case wl != nil:
		run = wl.run
	default:
		return nil
	}
	tn.twin = c.twin(f)
	if gemm {
		c.nGemm++
	} else {
		c.nWindow++
	}
	return run
}

// tileNest compiles the shared front end, or returns nil when an access is
// not affine in its phase's variables.
func (c *compiler) tileNest(g *ir.GemmNest) *tileNest {
	redVars := append(append([]*ir.Var{}, g.OuterVars...), g.Red.Vars...)
	epiVars := append(append([]*ir.Var{}, g.OuterVars...), g.Write.Vars...)
	tn := &tileNest{
		nOuter: len(g.OuterVars),
		nRed:   len(redVars),
		nEpi:   len(epiVars),
		act:    g.Act,
		scaled: g.Scale != nil,
	}
	if tn.scaled {
		tn.scale = float32(g.Scale.Value) // the interpreter's rounding of the literal
	}
	for _, x := range g.OuterExtents {
		tn.redExt = append(tn.redExt, c.intFn(x))
		tn.epiExt = append(tn.epiExt, c.intFn(x))
	}
	for _, x := range g.Red.Extents {
		tn.redExt = append(tn.redExt, c.intFn(x))
	}
	for _, x := range g.Write.Extents {
		tn.epiExt = append(tn.epiExt, c.intFn(x))
	}
	for _, x := range g.Init.Extents {
		tn.initExt = append(tn.initExt, c.intFn(x))
	}
	findRed := func(v *ir.Var) int {
		for i, rv := range redVars {
			if rv == v {
				return i
			}
		}
		return -1
	}
	for _, v := range g.Init.Vars {
		r := findRed(v)
		if r < 0 {
			return nil // matcher guarantees this; belt and braces
		}
		tn.initToRed = append(tn.initToRed, r)
	}
	for _, v := range epiVars {
		tn.epiToRed = append(tn.epiToRed, findRed(v))
	}

	tn.faT.acc = c.access(g.T, g.Red.Store.Index, redVars)
	tn.faA.acc = c.access(g.LoadA.Buf, g.LoadA.Index, redVars)
	tn.faD.acc = c.access(g.D, g.Write.Store.Index, epiVars)
	if tn.faT.acc == nil || tn.faA.acc == nil || tn.faD.acc == nil {
		return nil
	}
	if g.LoadB != nil {
		if tn.faB.acc = c.access(g.LoadB.Buf, g.LoadB.Index, redVars); tn.faB.acc == nil {
			return nil
		}
	}
	for _, ld := range g.Chain {
		a := c.access(ld.Buf, ld.Index, epiVars)
		if a == nil {
			return nil
		}
		tn.faCh = append(tn.faCh, flatAcc{acc: a})
	}
	tn.initVal = c.floatFn(g.Init.Store.Value)

	nR, nE := tn.nRed, tn.nEpi
	tn.ext = make([]int64, nR)
	tn.eext = make([]int64, nE)
	tn.iext = make([]int64, len(tn.initExt))
	tn.faT.str = make([]int64, nR)
	tn.faA.str = make([]int64, nR)
	tn.faB.str = make([]int64, nR)
	tn.faD.str = make([]int64, nE)
	for i := range tn.faCh {
		tn.faCh[i].str = make([]int64, nE)
	}
	tn.wb = newWriteBack(nE, len(tn.faCh))
	return tn
}

// gemmBufPrivate reports whether b is allocated by the kernel itself and
// every load/store of b sits inside nest f.
func gemmBufPrivate(body ir.Stmt, f *ir.For, b *ir.Buffer) bool {
	refs := func(s ir.Stmt) int {
		n := 0
		ir.WalkStmt(s, func(st ir.Stmt) {
			if sto, ok := st.(*ir.Store); ok && sto.Buf == b {
				n++
			}
		})
		ir.WalkExprs(s, func(x ir.Expr) {
			if ld, ok := x.(*ir.Load); ok && ld.Buf == b {
				n++
			}
		})
		return n
	}
	alloc := false
	ir.WalkStmt(body, func(st ir.Stmt) {
		if al, ok := st.(*ir.Alloc); ok && al.Buf == b {
			alloc = true
		}
	})
	return alloc && refs(body) == refs(f)
}

// bind evaluates the extents and flattens every access once per nest entry:
// gemmSkip on a zero-trip level (the twin reproduces the scalar no-op),
// gemmBail when a phase's extents disagree or an access leaves its box.
func (tn *tileNest) bind(e *cenv) int {
	for i, fn := range tn.redExt {
		v := fn(e)
		if v <= 0 {
			return gemmSkip
		}
		tn.ext[i] = v
	}
	for i, fn := range tn.epiExt {
		v := fn(e)
		if v <= 0 {
			return gemmSkip
		}
		tn.eext[i] = v
	}
	for i, fn := range tn.initExt {
		v := fn(e)
		if v <= 0 {
			return gemmSkip
		}
		tn.iext[i] = v
	}
	// The init loops must cover exactly the reduction's tile walk, and every
	// shared write-back level must agree with its reduction extent.
	for i, r := range tn.initToRed {
		if tn.iext[i] != tn.ext[r] {
			return gemmBail
		}
	}
	for i := tn.nOuter; i < tn.nEpi; i++ {
		if r := tn.epiToRed[i]; r >= 0 && tn.eext[i] != tn.ext[r] {
			return gemmBail
		}
	}
	if !tn.faT.flatten(e, tn.ext) ||
		!tn.faA.flatten(e, tn.ext) ||
		(tn.faB.acc != nil && !tn.faB.flatten(e, tn.ext)) ||
		!tn.faD.flatten(e, tn.eext) {
		return gemmBail
	}
	// A write-back row may read its operands before its first store only
	// where D's reach is disjoint from every chain's.
	d := tn.faD.reach(tn.eext)
	tn.wb.lanes = true
	for i := range tn.faCh {
		if !tn.faCh[i].flatten(e, tn.eext) {
			return gemmBail
		}
		if overlaps(d, tn.faCh[i].reach(tn.eext)) {
			tn.wb.lanes = false
		}
	}
	return gemmOK
}

// flatten evaluates fa's flat base/strides over the given extents and checks
// the per-dimension bounds box plus the flat upper bound: false means some
// access of the nest would leave its buffer, and the caller replays the
// closures to reproduce the exact panic.
func (fa *flatAcc) flatten(e *cenv, ext []int64) bool {
	a := fa.acc
	fa.data = a.ref(e)
	str := fa.str
	for l := range str {
		str[l] = 0
	}
	fb, maxFlat := int64(0), int64(0)
	for d := range a.dims {
		dim := a.dims[d](e)
		base := a.bases[d](e)
		lo, hi := base, base
		for l := range ext {
			cv := a.coefs[d][l](e)
			if cv >= 0 {
				hi += cv * (ext[l] - 1)
			} else {
				lo += cv * (ext[l] - 1)
			}
			str[l] = str[l]*dim + cv
		}
		if lo < 0 || hi >= dim {
			return false
		}
		fb = fb*dim + base
		maxFlat = maxFlat*dim + hi
	}
	if maxFlat >= int64(len(fa.data)) {
		return false
	}
	fa.base = fb
	return true
}

// gemmLoop is the GEMM executor: a matmul-shaped tile nest plus its
// run-time scratch.
type gemmLoop struct {
	*tileNest
	win *windowLoop // runs the entries tryGemm declines

	cls                          []int8
	sDr                          []int64 // destination stride per reduction-list var
	nrs                          []int64 // column radix per n-classified var
	bc0, bc1, bc2                []int64 // per-dim B coefficients (image probe)
	kIdx, mIdx, nIdx, eIdx, dIdx []int

	gA, gB        *flatAcc
	M, K, N, nCov int64
	direct        bool
	img           cpuref.Image // the image source when !direct, with its strip

	chRow []int64 // each chain's stride along a row: 1 column-shaped, 0 row-invariant

	cbuf []float32
}

func newGemmLoop(tn *tileNest) *gemmLoop {
	nR, nE, nCh := tn.nRed, tn.nEpi, len(tn.faCh)
	gl := &gemmLoop{tileNest: tn}
	gl.cls = make([]int8, nR)
	gl.sDr = make([]int64, nR)
	gl.nrs = make([]int64, nR)
	gl.bc0 = make([]int64, nR)
	gl.bc1 = make([]int64, nR)
	gl.bc2 = make([]int64, nR)
	gl.kIdx = make([]int, 0, nR)
	gl.mIdx = make([]int, 0, nR)
	gl.nIdx = make([]int, 0, nR)
	gl.eIdx = make([]int, 0, nE)
	gl.dIdx = make([]int, 0, nE)
	gl.chRow = make([]int64, nCh)
	return gl
}

func (gl *gemmLoop) run(e *cenv) {
	switch gl.tryGemm(e) {
	case gemmOK:
		if st := e.m.stats; st != nil {
			st.GemmRuns.Add(1)
		}
	case gemmBail:
		if st := e.m.stats; st != nil {
			st.GemmBailouts.Add(1)
		}
		gl.twin(e)
	default:
		if gl.win != nil {
			gl.win.run(e)
		} else {
			gl.twin(e)
		}
	}
}

func (gl *gemmLoop) tryGemm(e *cenv) int {
	if r := gl.bind(e); r != gemmOK {
		return r
	}
	for i := 0; i < gl.nEpi; i++ {
		if gl.faD.str[i] < 0 {
			return gemmBail
		}
	}
	for r := range gl.sDr {
		gl.sDr[r] = 0
	}
	for i := 0; i < gl.nEpi; i++ {
		if r := gl.epiToRed[i]; r >= 0 {
			gl.sDr[r] = gl.faD.str[i]
		}
	}
	if !gl.verifyAssign(e, &gl.faA, &gl.faB) && !gl.verifyAssign(e, &gl.faB, &gl.faA) {
		return gemmBail
	}
	if !gl.verifyEpi() {
		return gemmBail
	}
	if gl.nCov < gemmMinCols || gl.M*gl.K*gl.nCov < gemmMinMACs {
		return gemmSkip
	}
	// Aliasing: the GEMM reads all of A/B up front and the epilogue rewrites
	// D afterwards, so any overlap between operands, tile and destination
	// could observe a different interleaving than the scalar nest.
	if overlaps(gl.faD.data, gl.gA.data) || overlaps(gl.faD.data, gl.gB.data) ||
		overlaps(gl.faD.data, gl.faT.data) ||
		overlaps(gl.faT.data, gl.gA.data) || overlaps(gl.faT.data, gl.gB.data) {
		return gemmBail
	}
	for i := range gl.faCh {
		if overlaps(gl.faCh[i].data, gl.faD.data) || overlaps(gl.faCh[i].data, gl.faT.data) {
			return gemmBail
		}
	}
	gl.execute(e)
	return gemmOK
}

// verifyAssign classifies every reduction-nest level against the operand
// assignment (fa = row operand A, fb = column operand B) and checks the A
// layout and B mode. The product's operand order is commutative for the
// rounding contract (a single float32 multiply), so the caller tries both.
func (gl *gemmLoop) verifyAssign(e *cenv, fa, fb *flatAcc) bool {
	sT, sa, sb := gl.faT.str, fa.str, fb.str
	kIdx, mIdx, nIdx := gl.kIdx[:0], gl.mIdx[:0], gl.nIdx[:0]
	for r := 0; r < gl.nRed; r++ {
		gl.nrs[r] = 0
		if gl.ext[r] == 1 {
			gl.cls[r] = gclsDrop
			continue
		}
		st, sA, sB, sd := sT[r], sa[r], sb[r], gl.sDr[r]
		if st < 0 || sA < 0 || sB < 0 {
			return false
		}
		switch {
		case st == 0 && sd == 0:
			// Pure reduction level. At an outer position the scalar program
			// re-initializes the tile between its iterations, which a single
			// GEMM would sum across — bail.
			if r < gl.nOuter || (sA == 0 && sB == 0) {
				return false
			}
			gl.cls[r] = gclsK
			kIdx = append(kIdx, r)
		case r >= gl.nOuter && st == 0:
			// Output-shaped level without its own tile slot: the scalar nest
			// interleaves different (m,n) sums through one accumulator.
			return false
		case sA != 0 && sB != 0:
			return false // drives both operands: not matmul-shaped
		case sA != 0:
			gl.cls[r] = gclsM
			mIdx = append(mIdx, r)
		case sB != 0:
			gl.cls[r] = gclsN
			nIdx = append(nIdx, r)
		default:
			if sd == 0 {
				return false
			}
			gl.cls[r] = gclsB
		}
	}
	// k levels must form A's contiguous minor axis in nest order.
	K := int64(1)
	for i := len(kIdx) - 1; i >= 0; i-- {
		if sa[kIdx[i]] != K {
			return false
		}
		K *= gl.ext[kIdx[i]]
	}
	// m levels must tile A's row axis exactly: strides K, K·e1, K·e1·e2, …
	sortIdxBy(mIdx, func(r int) int64 { return sa[r] })
	M, want := int64(1), K
	for _, r := range mIdx {
		if sa[r] != want {
			return false
		}
		want *= gl.ext[r]
		M *= gl.ext[r]
	}
	gl.M, gl.K = M, K
	gl.kIdx, gl.mIdx, gl.nIdx = kIdx, mIdx, nIdx
	if gl.tryDirectB(fa, fb) || gl.tryImageB(e, fb) {
		gl.gA, gl.gB = fa, fb
		return true
	}
	return false
}

// tryDirectB checks whether fb is already the row-major [K,N] matrix: the n
// levels tile its minor axis exactly and every k level strides by whole rows.
// Zero-copy (pointwise conv after fold, dense).
func (gl *gemmLoop) tryDirectB(fa, fb *flatAcc) bool {
	sb := fb.str
	sortIdxBy(gl.nIdx, func(r int) int64 { return sb[r] })
	N, want := int64(1), int64(1)
	for _, r := range gl.nIdx {
		if sb[r] != want {
			return false
		}
		gl.nrs[r] = sb[r]
		want *= gl.ext[r]
		N *= gl.ext[r]
	}
	for _, r := range gl.kIdx {
		if sb[r] != N*fa.str[r] {
			return false
		}
	}
	gl.N = N
	gl.direct = true
	return true
}

// tryImageB checks whether fb is a rank-3 [C1,H,W] input addressed as
// in[c, s·y+fy, s·x+fx]: the k levels decompose into (channel, fy, fx)
// phases with the patch-row radix (c·F+fy)·F+fx, and the n levels walk the
// output pixels with uniform stride s. On success the operand becomes the
// image source of cpuref.GemmImage over the first Kc channels, whose
// [Kc·F·F, h2·w2] patch matrix the GEMM gathers strip by strip.
func (gl *gemmLoop) tryImageB(e *cenv, fb *flatAcc) bool {
	a := fb.acc
	if len(a.dims) != 3 {
		return false
	}
	var dims [3]int64
	for d := 0; d < 3; d++ {
		if a.bases[d](e) != 0 {
			return false
		}
		dims[d] = a.dims[d](e)
	}
	probe := func(r int) bool {
		gl.bc0[r] = a.coefs[0][r](e)
		gl.bc1[r] = a.coefs[1][r](e)
		gl.bc2[r] = a.coefs[2][r](e)
		if gl.bc0[r] < 0 || gl.bc1[r] < 0 || gl.bc2[r] < 0 {
			return false
		}
		nz := 0
		if gl.bc0[r] != 0 {
			nz++
		}
		if gl.bc1[r] != 0 {
			nz++
		}
		if gl.bc2[r] != 0 {
			nz++
		}
		return nz == 1
	}
	// k phases, minor to major: fx (input x), fy (input y), channel.
	Fx, Fy, Kc := int64(1), int64(1), int64(1)
	phase := 2
	ka := int64(1)
	for i := len(gl.kIdx) - 1; i >= 0; i-- {
		r := gl.kIdx[i]
		if !probe(r) {
			return false
		}
		switch {
		case gl.bc2[r] != 0:
			if phase != 2 || gl.bc2[r] != ka || ka != Fx {
				return false
			}
			Fx *= gl.ext[r]
		case gl.bc1[r] != 0:
			if phase == 0 || gl.bc1[r] != Fy || ka != Fx*Fy {
				return false
			}
			phase = 1
			Fy *= gl.ext[r]
		default:
			if gl.bc0[r] != Kc || ka != Fx*Fy*Kc {
				return false
			}
			phase = 0
			Kc *= gl.ext[r]
		}
		ka *= gl.ext[r]
	}
	if Fx != Fy {
		return false // the image source gathers square windows
	}
	f := Fx
	// n levels: output x on the minor input dim, output y on the middle one,
	// all scaled by one convolution stride.
	s := int64(0)
	for _, r := range gl.nIdx {
		if !probe(r) || gl.bc0[r] != 0 {
			return false
		}
		v := gl.bc2[r]
		if v == 0 {
			v = gl.bc1[r]
		}
		if s == 0 || v < s {
			s = v
		}
	}
	if s == 0 {
		s = 1
	}
	sortIdxBy(gl.nIdx, func(r int) int64 { return gl.bc2[r] + gl.bc1[r] })
	w2x, h2y := int64(1), int64(1)
	for _, r := range gl.nIdx {
		if gl.bc2[r] == 0 {
			continue
		}
		if gl.bc2[r] != w2x*s {
			return false
		}
		w2x *= gl.ext[r]
	}
	for _, r := range gl.nIdx {
		if gl.bc1[r] == 0 {
			continue
		}
		if gl.bc1[r] != h2y*s {
			return false
		}
		h2y *= gl.ext[r]
	}
	if dims[1] < f || dims[2] < f {
		return false
	}
	w2 := (dims[2]-f)/s + 1
	h2 := (dims[1]-f)/s + 1
	// The x levels must cover a full output row (the patch matrix's columns
	// are output pixels in row-major order); partial y coverage just reads
	// fewer of its columns.
	if w2x != w2 || h2y > h2 || Kc > dims[0] {
		return false
	}
	// The image source reads all h2 output rows of the first Kc channels,
	// which may exceed the scalar-touched region the bounds box proved —
	// require the binding to cover them.
	if Kc*dims[1]*dims[2] > int64(len(fb.data)) {
		return false
	}
	for _, r := range gl.nIdx {
		if gl.bc2[r] != 0 {
			gl.nrs[r] = gl.bc2[r] / s
		} else {
			gl.nrs[r] = gl.bc1[r] / s * w2
		}
	}
	gl.N = h2 * w2
	gl.direct = false
	gl.img.Data = fb.data
	gl.img.C, gl.img.H, gl.img.W, gl.img.F, gl.img.S = int(Kc), int(dims[1]), int(dims[2]), int(f), int(s)
	return true
}

// verifyEpi checks the write-back nest: its n levels walk a contiguous
// [0,nCov) column prefix of each output row, every post-add chain is either
// column-shaped (residual) or row-invariant (bias), and the destination is
// injective over the nest so emission order is unobservable.
func (gl *gemmLoop) verifyEpi() bool {
	eIdx := gl.eIdx[:0]
	for i := 0; i < gl.nEpi; i++ {
		if r := gl.epiToRed[i]; r >= 0 && gl.cls[r] == gclsN {
			eIdx = append(eIdx, i)
		}
	}
	sortIdxBy(eIdx, func(i int) int64 { return gl.nrs[gl.epiToRed[i]] })
	nCov, want := int64(1), int64(1)
	for _, i := range eIdx {
		r := gl.epiToRed[i]
		if gl.nrs[r] != want || gl.faD.str[i] != gl.nrs[r] {
			return false
		}
		want *= gl.eext[i]
		nCov *= gl.eext[i]
	}
	if nCov > gl.N {
		return false
	}
	gl.nCov = nCov
	for ch := range gl.faCh {
		col, inv := true, true
		for _, i := range eIdx {
			sc := gl.faCh[ch].str[i]
			if sc != gl.nrs[gl.epiToRed[i]] {
				col = false
			}
			if sc != 0 {
				inv = false
			}
		}
		if !col && !inv {
			return false
		}
		gl.chRow[ch] = 0
		if col {
			gl.chRow[ch] = 1
		}
	}
	dIdx := gl.dIdx[:0]
	for i := 0; i < gl.nEpi; i++ {
		if gl.eext[i] > 1 {
			dIdx = append(dIdx, i)
		}
	}
	sortIdxBy(dIdx, func(i int) int64 { return gl.faD.str[i] })
	span := int64(0)
	for _, i := range dIdx {
		sd := gl.faD.str[i]
		if sd <= span {
			return false
		}
		span += sd * (gl.eext[i] - 1)
	}
	return true
}

func (gl *gemmLoop) execute(e *cenv) {
	m, k, n := gl.M, gl.K, gl.N
	mn := m * n
	if int64(cap(gl.cbuf)) < mn {
		gl.cbuf = make([]float32, mn)
	}
	cb := gl.cbuf[:mn]
	v0 := gl.initVal(e)
	if math.Float32bits(v0) == 0 {
		clear(cb)
	} else {
		for i := range cb {
			cb[i] = v0
		}
	}
	a := gl.gA.data[gl.gA.base:]
	// workers=1: machines run inside RunBatch's worker pool — nesting a
	// goroutine fan-out here would oversubscribe the host (see
	// cpuref.Conv2DGEMM).
	if gl.direct {
		cpuref.Gemm(a, gl.gB.data[gl.gB.base:], cb, int(m), int(k), int(n), 1)
	} else {
		cpuref.GemmImage(a, &gl.img, cb, int(m), 1)
	}
	gl.epilogue(cb)
}

// epilogue writes the C tile back through the shared write-back (emit.go):
// one walk level per write-back level outside the column range, in nest
// order, and the [0,nCov) column range as the row, contiguous in D, in the
// tile and in every column-shaped chain.
func (gl *gemmLoop) epilogue(cb []float32) {
	wb := &gl.wb
	wb.ext, wb.str = wb.ext[:0], wb.str[:0]
	for i := 0; i < gl.nEpi; i++ {
		r := gl.epiToRed[i]
		if r >= 0 && gl.cls[r] == gclsN {
			continue
		}
		sC := int64(0)
		if r >= 0 && gl.cls[r] == gclsM {
			sC = gl.gA.str[r] / gl.K * gl.N
		}
		wb.ext = append(wb.ext, gl.eext[i])
		wb.str = append(wb.str, gl.faD.str[i], sC)
		for ch := range gl.faCh {
			wb.str = append(wb.str, gl.faCh[ch].str[i])
		}
	}
	wb.ext = append(wb.ext, gl.nCov)
	wb.str = append(wb.str, 1, 1)
	wb.str = append(wb.str, gl.chRow...)
	wb.plan()
	wb.off[0], wb.off[1] = gl.faD.base, 0
	for ch := range gl.faCh {
		wb.off[2+ch] = gl.faCh[ch].base
	}
	gl.walk(cb)
}

// sortIdxBy insertion-sorts idx ascending by key — the lists are a handful
// of loop levels, and this allocates nothing.
func sortIdxBy(idx []int, key func(int) int64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && key(idx[j-1]) > key(idx[j]); j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}
