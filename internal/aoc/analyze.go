// Package aoc models the Intel FPGA SDK for OpenCL offline compiler (AOC)
// plus the Quartus fitter and router, as the thesis uses them (§2.4): it
// takes IR kernels and produces, for each, the load-store units AOC would
// infer (with coalescing widths, replication, caching and alignment), the DSP
// and soft-logic area, loop initiation intervals and pipelining/serialization
// decisions, and per-design fmax, fit and routability verdicts. It also
// provides the analytic cycle/traffic model used for kernel timing.
//
// AOC is treated exactly as the thesis treats it: a black box with observable
// behaviours. Each behaviour modeled here is one the thesis measures or cites
// from the Intel manuals; the constants live in calib.go.
package aoc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fpga"
	"repro/internal/ir"
)

// Options are the compiler flags the thesis passes to AOC (§4.10).
type Options struct {
	// FPRelaxed is -fp-relaxed: balanced reduction trees, enabling the
	// single-cycle float accumulator (II=1 for local accumulations).
	FPRelaxed bool
	// FPC is -fpc: fused multiply-accumulate without intermediate rounding,
	// so a MAC costs one DSP instead of two.
	FPC bool
	// Int8 models the §8.1 future-work quantized deployment: 8-bit
	// weights/activations packed two multiplies per DSP (18x18 mode), with
	// LSU widths, caches and traffic shrunk 4x. Functional int8 arithmetic
	// lives in cpuref; this flag drives the area/timing projection.
	Int8 bool
}

// DefaultOptions mirror the thesis: both float optimizations on for every
// bitstream.
var DefaultOptions = Options{FPRelaxed: true, FPC: true}

// LSUKind classifies load-store units (§2.4.3).
type LSUKind int

const (
	BurstCoalesced LSUKind = iota
	// Streaming LSUs serve strictly sequential accesses as a FIFO burst
	// stream (§2.4.3); cheaper than burst-coalesced units.
	Streaming
	// Prefetching LSUs burst-read ahead assuming near-sequential addresses.
	Prefetching
	Pipelined // on-chip (local/private) access
)

func (k LSUKind) String() string {
	switch k {
	case Streaming:
		return "streaming"
	case Prefetching:
		return "prefetching"
	case Pipelined:
		return "pipelined"
	}
	return "burst-coalesced"
}

// LSU is one inferred load-store unit site.
type LSU struct {
	Buf     *ir.Buffer
	IsWrite bool
	Kind    LSUKind
	// WidthWords is the coalesced access width in 32-bit lanes.
	WidthWords int
	// Replicas is the number of parallel LSU copies for non-contiguous
	// unrolled accesses.
	Replicas int
	// Cached marks a cached burst-coalesced LSU (BRAM-backed).
	Cached bool
	// Nonaligned marks accesses whose alignment AOC cannot prove (symbolic
	// strides, §5.3).
	Nonaligned bool
	// WriteAck marks stores participating in a read-after-write dependence.
	WriteAck bool
	// elemBytes is the element size this site moves (4 for float32, 1 for
	// the int8 projection).
	elemBytes int
	// loops records the enclosing non-unrolled loops, outermost first, with
	// whether this site's address depends on each. Dependent loops multiply
	// traffic. Invariant loops are reuse loops: their re-reads are served by
	// the inferred cache only while the working-set slice fits it (§2.4.3's
	// 256–512 kbit caches); larger slices are re-fetched from external
	// memory every iteration — the effect that starves the thesis's 3×3
	// convolutions of bandwidth (§6.5).
	loops []siteLoop
}

type siteLoop struct {
	extent    ir.Expr
	dependent bool
}

// lsuCacheBytes is the inferred cache capacity (512 kbit).
const lsuCacheBytes = 65536

// trafficBytes evaluates this site's external-memory traffic for one kernel
// invocation under the given symbolic-shape bindings.
func (l *LSU) trafficBytes(bind map[*ir.Var]int64) int64 {
	if l.Kind == Pipelined {
		return 0
	}
	eb := l.elemBytes
	if eb == 0 {
		eb = 4
	}
	n := int64(eb * l.WidthWords * l.Replicas)
	// Dependent traffic below each loop level, innermost outward.
	for i := len(l.loops) - 1; i >= 0; i-- {
		lp := l.loops[i]
		trips := evalInt(lp.extent, bind)
		if lp.dependent {
			n *= trips
			continue
		}
		// Reuse loop: free only if the slice touched per iteration fits the
		// cache (reads only — writes always go out).
		if !l.IsWrite && n <= lsuCacheBytes {
			continue
		}
		n *= trips
	}
	return n
}

// node is the timing-model tree mirroring the kernel's loop structure.
type node interface{ isNode() }

type blockNode struct{ children []node }

type leafNode struct{ stmts int }

const (
	modeUnrolled = iota
	modePipelined
	modeSerial
)

type loopNode struct {
	extent ir.Expr
	mode   int
	ii     int
	child  node
}

func (*blockNode) isNode() {}
func (*leafNode) isNode()  {}
func (*loopNode) isNode()  {}

// KernelModel is the compilation result for one kernel.
type KernelModel struct {
	Kernel *ir.Kernel
	LSUs   []*LSU
	// DSPs used by the kernel's datapath (replicated by unrolling).
	DSPs int
	Area fpga.Resources
	// Demand is the abstract routing-congestion contribution (fanout of
	// distributing operands from LSUs into the datapath).
	Demand float64
	// MaxWidthWords is the widest LSU access, for bandwidth sanity checks.
	MaxWidthWords int

	root node
	opts Options
	// scalars maps scalar-argument names to the kernel's own vars, so a
	// cached model can evaluate bindings built against a *different* (but
	// structurally identical) kernel instance: binding maps are keyed by
	// *ir.Var pointer, and rebind translates foreign pointers by name.
	scalars map[string]*ir.Var
}

// analysisCtx carries the enclosing-loop context during the walk.
type loopCtx struct {
	f        *ir.For
	unrolled bool
}

type analyzer struct {
	board *fpga.Board
	opts  Options
	model *KernelModel
	// auto records loops treated as unrolled by the Quartus auto-unroller.
	auto map[*ir.For]bool
}

// Analyze compiles a single kernel against a board, producing its LSUs, area
// and timing model. The kernel must validate.
//
// Analyze is safe for concurrent use: it never mutates the input IR (the
// auto-unroll marks live in a per-call side table, see markAutoUnroll), every
// call builds a fresh analyzer and KernelModel, and the only package-level
// state it reads — the calibration constants and the routeCapacity table —
// is immutable after init. Callers may therefore analyze distinct kernels,
// or even the same *ir.Kernel, from multiple goroutines, provided they do
// not concurrently mutate the kernel themselves. The returned KernelModel is
// immutable: Cycles, trafficBytes and TimeUS are pure reads, so one model
// may be shared across designs and goroutines (CompileCache relies on this).
func Analyze(k *ir.Kernel, board *fpga.Board, opts Options) (*KernelModel, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("aoc: %w", err)
	}
	a := &analyzer{board: board, opts: opts, model: &KernelModel{Kernel: k, opts: opts}}
	a.model.scalars = make(map[string]*ir.Var, len(k.ScalarArgs))
	for _, v := range k.ScalarArgs {
		a.model.scalars[v.Name] = v
	}
	a.markAutoUnroll(k.Body)
	root := a.walk(k.Body, nil)
	a.model.root = root
	if opts.Int8 {
		// 18x18 DSP mode packs two int8 multiplies per block (§6.5/§8.1).
		a.model.DSPs = (a.model.DSPs + 1) / 2
	}
	a.area()
	return a.model, nil
}

// markAutoUnroll implements the Quartus < 19.1 behaviour of fully unrolling
// small constant-trip loops (§6.3.1 fn. 4): bottom-up, a loop is auto-unrolled
// when its extent is a small constant, everything below it is already
// unrolled, and the cumulative replication stays small. Marks are applied by
// setting For.Unroll = -1 in place on a cloned view — we must not mutate the
// caller's IR, so marks are recorded in a side table instead.
func (a *analyzer) markAutoUnroll(s ir.Stmt) {
	a.auto = map[*ir.For]bool{}
	if !a.board.AutoUnrollsSmallLoops() {
		return
	}
	var visit func(s ir.Stmt) (repl int64, allUnrolled bool)
	visit = func(s ir.Stmt) (int64, bool) {
		switch x := s.(type) {
		case nil:
			return 1, true
		case *ir.Block:
			r, all := int64(1), true
			for _, c := range x.Stmts {
				cr, ca := visit(c)
				if cr > r {
					r = cr
				}
				all = all && ca
			}
			return r, all
		case *ir.For:
			cr, ca := visit(x.Body)
			if x.Unroll == -1 {
				n, _ := ir.IsConst(x.Extent)
				return cr * n, ca
			}
			n, constant := ir.IsConst(x.Extent)
			if constant && ca && n <= autoUnrollMaxTrip && cr*n <= autoUnrollMaxRepl {
				a.auto[x] = true
				return cr * n, true
			}
			return cr, false
		case *ir.IfThen:
			r1, a1 := visit(x.Then)
			r2, a2 := visit(x.Else)
			if r2 > r1 {
				r1 = r2
			}
			return r1, a1 && a2
		default:
			return 1, true
		}
	}
	visit(s)
}

func (a *analyzer) isUnrolled(f *ir.For) bool {
	return f.Unroll == -1 || a.auto[f]
}

// walk builds the timing tree and infers LSUs/DSPs as it descends.
func (a *analyzer) walk(s ir.Stmt, ctx []loopCtx) node {
	switch x := s.(type) {
	case nil:
		return &leafNode{stmts: 0}
	case *ir.Block:
		b := &blockNode{}
		for _, c := range x.Stmts {
			b.children = append(b.children, a.walk(c, ctx))
		}
		return b
	case *ir.Alloc:
		return &leafNode{stmts: 0}
	case *ir.For:
		un := a.isUnrolled(x)
		child := a.walk(x.Body, append(ctx, loopCtx{f: x, unrolled: un}))
		ln := &loopNode{extent: x.Extent, child: child}
		switch {
		case un:
			ln.mode = modeUnrolled
		case a.isSerial(x), a.isOuterGlobalAccum(x, ctx):
			ln.mode = modeSerial
		default:
			ln.mode = modePipelined
			ln.ii = a.loopII(x)
		}
		return ln
	case *ir.Store:
		a.accessSite(x.Buf, x.Index, true, ctx)
		a.exprSites(x.Value, ctx)
		a.countDSPs(x, ctx)
		return &leafNode{stmts: 1}
	case *ir.ChannelWrite:
		a.exprSites(x.Value, ctx)
		a.countDSPsExpr(x.Value, ctx, nil)
		return &leafNode{stmts: 1}
	case *ir.IfThen:
		a.exprSites(x.Cond, ctx)
		t := a.walk(x.Then, ctx)
		e := a.walk(x.Else, ctx)
		return &blockNode{children: []node{t, e}}
	}
	// Invariant: the switch is exhaustive over ir's statement kinds; a new IR
	// node must be taught to the analyzer before it can be compiled.
	panic(fmt.Sprintf("aoc: unknown stmt %T", s))
}

// exprSites records access sites for loads inside an expression.
func (a *analyzer) exprSites(e ir.Expr, ctx []loopCtx) {
	ir.WalkExpr(e, func(x ir.Expr) {
		if l, ok := x.(*ir.Load); ok {
			a.accessSite(l.Buf, l.Index, false, ctx)
		}
	})
}

// isSerial reports whether AOC must serialize the loop: its body contains two
// distinct statement regions coupled by a read-after-write dependence through
// a *global* buffer (§3.2 issue 1 — the naive TVM schedule's scratchpad).
func (a *analyzer) isSerial(f *ir.For) bool {
	blk, ok := f.Body.(*ir.Block)
	if !ok {
		return false
	}
	// Gather per-child stored and loaded global buffers.
	type rw struct{ stores, loads map[*ir.Buffer]bool }
	infos := make([]rw, len(blk.Stmts))
	for i, c := range blk.Stmts {
		infos[i] = rw{stores: map[*ir.Buffer]bool{}, loads: map[*ir.Buffer]bool{}}
		ir.WalkStmt(c, func(s ir.Stmt) {
			if st, ok := s.(*ir.Store); ok && st.Buf.Scope == ir.Global {
				infos[i].stores[st.Buf] = true
			}
		})
		collectStmtLoads(c, func(b *ir.Buffer) {
			if b.Scope == ir.Global {
				infos[i].loads[b] = true
			}
		})
	}
	for i := range infos {
		for j := range infos {
			if i == j {
				continue
			}
			for b := range infos[i].stores {
				if infos[j].loads[b] {
					return true
				}
			}
		}
	}
	return false
}

func collectStmtLoads(s ir.Stmt, fn func(*ir.Buffer)) {
	ir.WalkExprs(s, func(e ir.Expr) {
		if l, ok := e.(*ir.Load); ok {
			fn(l.Buf)
		}
	})
}

// isOuterGlobalAccum reproduces the second serialization the thesis observes
// for F>1 convolutions (§6.4.3): "in the baseline 3×3 convolution, data
// dependencies prevent pipelining in two loops". A loop that carries an
// accumulation through a *global* scratchpad and whose body still contains a
// non-unrolled inner loop region cannot overlap its iterations: each
// iteration is a variable-latency region ending in a global read-modify-
// write. Only the outermost such loop of a chain serializes (the thesis
// names ax1 and rc, not ry/rx): if the parent loop carries the same
// dependence, this one stays pipelined at the accumulation II.
func (a *analyzer) isOuterGlobalAccum(f *ir.For, ctx []loopCtx) bool {
	if global, _ := accumulates(f); !global {
		return false
	}
	hasInnerLoop := false
	ir.WalkStmt(f.Body, func(s ir.Stmt) {
		if inner, ok := s.(*ir.For); ok && !a.isUnrolled(inner) {
			hasInnerLoop = true
		}
	})
	if !hasInnerLoop {
		return false
	}
	for i := len(ctx) - 1; i >= 0; i-- {
		if ctx[i].unrolled {
			continue
		}
		global, _ := accumulates(ctx[i].f)
		return !global
	}
	return true
}

// accumulates reports whether the loop carries an accumulation dependence:
// a store in its body of buf[idx] = g(load buf[...]) with idx invariant to
// the loop variable. It reports separately whether such a store's buffer is
// global and whether one is on-chip.
func accumulates(f *ir.For) (global, onChip bool) {
	ir.WalkStmt(f.Body, func(s ir.Stmt) {
		st, ok := s.(*ir.Store)
		if !ok {
			return
		}
		selfRead := false
		ir.WalkExpr(st.Value, func(e ir.Expr) {
			if l, ok := e.(*ir.Load); ok && l.Buf == st.Buf {
				selfRead = true
			}
		})
		if !selfRead {
			return
		}
		for _, ix := range st.Index {
			if ir.UsesVar(ix, f.Var) {
				return
			}
		}
		if st.Buf.Scope == ir.Global {
			global = true
		} else {
			onChip = true
		}
	})
	return global, onChip
}

// loopII returns the initiation interval the loop sustains: an accumulation
// it carries (see accumulates) sets the II by where the accumulator lives
// (§5.1.1) and by -fp-relaxed.
func (a *analyzer) loopII(f *ir.For) int {
	switch global, onChip := accumulates(f); {
	case global:
		return iiGlobalAccum
	case onChip && a.opts.FPRelaxed:
		return iiLocalAccumRelaxed
	case onChip:
		return iiLocalAccumStrict
	}
	return 1
}

// accessSite infers the LSU for one load/store site given the enclosing loops.
func (a *analyzer) accessSite(buf *ir.Buffer, idx []ir.Expr, isWrite bool, ctx []loopCtx) {
	l := &LSU{Buf: buf, IsWrite: isWrite, WidthWords: 1, Replicas: 1, elemBytes: 4}
	if a.opts.Int8 {
		l.elemBytes = 1
	}
	if buf.Scope != ir.Global && buf.Scope != ir.Constant {
		l.Kind = Pipelined
		// On-chip accesses replicate ports with unrolling but need no
		// coalescing analysis; the banking cost lands in the area model.
		for _, c := range ctx {
			if c.unrolled {
				if coef, known := flatCoef(buf, idx, c.f.Var); !known || coef != 0 {
					n, _ := ir.IsConst(c.f.Extent)
					l.Replicas *= int(n)
				}
			}
		}
		a.model.LSUs = append(a.model.LSUs, l)
		return
	}
	l.Kind = BurstCoalesced
	if buf.ExplicitStrides {
		// Symbolic strides: AOC cannot prove contiguity or alignment (§5.3).
		l.Nonaligned = true
	}
	// Coalescing/replication across unrolled loops.
	type cu struct {
		coef   int64
		known  bool
		extent int64
	}
	var units []cu
	for _, c := range ctx {
		if !c.unrolled {
			continue
		}
		n, _ := ir.IsConst(c.f.Extent)
		coef, known := flatCoef(buf, idx, c.f.Var)
		if buf.ExplicitStrides {
			known = false
		}
		units = append(units, cu{coef: coef, known: known, extent: n})
	}
	// Vars with unit stride coalesce into one wide access (their spans
	// overlap or abut — the thesis reports width 32·W2vec·F for the conv
	// input); others extend the contiguity chain when their stride equals
	// the width accumulated so far, and replicate the LSU otherwise. Sorting
	// by stride makes the chain (rx:1, ry:F, rci:F·F) resolve regardless of
	// loop order.
	sort.SliceStable(units, func(i, j int) bool {
		if units[i].known != units[j].known {
			return units[i].known
		}
		return units[i].coef < units[j].coef
	})
	for _, u := range units {
		switch {
		case u.known && u.coef == 0:
			// Broadcast: same address for every lane.
		case u.known && u.coef == 1:
			l.WidthWords *= int(u.extent)
		case u.known && int64(l.WidthWords) == u.coef:
			// Perfectly nested contiguity chain (e.g. rci stride F·F after
			// ry,rx coalesced).
			l.WidthWords *= int(u.extent)
		case u.known && u.coef > 1 && u.coef <= strideCoalesceMax:
			// Small constant stride (e.g. stride-2 convolution columns):
			// the burst-coalesced LSU fetches the covering span and drops
			// the gaps — wider access, same unit (over-fetch is charged to
			// width, and therefore to traffic).
			l.WidthWords += int(u.coef) * (int(u.extent) - 1)
		default:
			l.Replicas *= int(u.extent)
		}
	}
	// Classify enclosing loops as address-dependent (traffic multipliers) or
	// reuse loops. A read with any non-trivial reuse loop gets a cached
	// burst-coalesced LSU (§2.4.3 "when the access pattern seems
	// repetitive"); whether the cache actually captures the reuse is decided
	// per invocation in trafficBytes against the cache capacity.
	var innermostDep *ir.Var
	hasReuse := false
	for _, c := range ctx {
		if c.unrolled {
			continue
		}
		dependsOn := false
		for _, ix := range idx {
			if ir.UsesVar(ix, c.f.Var) {
				dependsOn = true
				break
			}
		}
		l.loops = append(l.loops, siteLoop{extent: c.f.Extent, dependent: dependsOn || isWrite})
		if dependsOn {
			innermostDep = c.f.Var
		}
		if !dependsOn && !isWrite {
			if n, constant := ir.IsConst(c.f.Extent); !constant || n > 1 {
				l.Cached = true
				hasReuse = true
			}
		}
	}
	// LSU kind refinement (§2.4.3): with no reuse and a strictly sequential
	// innermost step the compiler emits a streaming LSU; near-sequential
	// forward strides get a prefetching LSU; everything else stays
	// burst-coalesced (cached when the pattern is repetitive).
	if !l.Nonaligned && !hasReuse && innermostDep != nil {
		if coef, known := flatCoef(buf, idx, innermostDep); known && coef > 0 {
			if coef == int64(l.WidthWords) {
				l.Kind = Streaming
			} else {
				l.Kind = Prefetching
			}
		}
	}
	if isWrite {
		// RAW detection: does this kernel also load the buffer?
		loads := false
		ir.WalkExprs(a.model.Kernel.Body, func(e ir.Expr) {
			if ld, ok := e.(*ir.Load); ok && ld.Buf == buf {
				loads = true
			}
		})
		l.WriteAck = loads
	}
	if l.WidthWords > a.model.MaxWidthWords {
		a.model.MaxWidthWords = l.WidthWords
	}
	a.model.LSUs = append(a.model.LSUs, l)
}

// flatCoef computes d(flatAddress)/d(v) for a multi-dimensional access,
// returning (coef, known). Each dimension's coefficient of v comes from ir's
// affine analysis (LinearizeAccess over v alone, so a subscript that is not
// affine in some other loop does not hide v's stride); row-major strides come
// from the buffer shape. A symbolic coefficient is unknown, and symbolic
// extents make any dimension with a v-dependent subscript unknown, except the
// innermost (whose stride is the constant 1) — exactly the property the
// thesis exploits with its stride-1 workaround (Listing 5.11).
func flatCoef(buf *ir.Buffer, idx []ir.Expr, v *ir.Var) (int64, bool) {
	if invariantIn(idx, v) {
		return 0, true
	}
	ap, ok := ir.LinearizeAccess(buf, idx, []*ir.Var{v})
	if !ok {
		return 0, false
	}
	total := int64(0)
	stride := int64(1)
	strideKnown := true
	for d := len(idx) - 1; d >= 0; d-- {
		c, ok := ir.IsConst(ap.Dims[d].Coeffs[0])
		if !ok {
			return 0, false
		}
		if c != 0 {
			if !strideKnown {
				return 0, false
			}
			total += c * stride
		}
		if n, constant := ir.IsConst(buf.Shape[d]); constant {
			if strideKnown {
				stride *= n
			}
		} else {
			strideKnown = false
		}
	}
	return total, true
}

// invariantIn reports whether no subscript names v or any Load, Call,
// ChannelRead or FloatImm. ir.Linearize accepts every such subscript with
// coefficient 0 on v, so the address does not move along v; this one walk
// answers the common case without LinearizeAccess's allocations.
func invariantIn(idx []ir.Expr, v *ir.Var) bool {
	for _, e := range idx {
		if !freeOf(e, v) {
			return false
		}
	}
	return true
}

func freeOf(e ir.Expr, v *ir.Var) bool {
	switch x := e.(type) {
	case *ir.IntImm:
		return true
	case *ir.Var:
		return x != v
	case *ir.Binary:
		return freeOf(x.A, v) && freeOf(x.B, v)
	case *ir.Select:
		return freeOf(x.Cond, v) && freeOf(x.A, v) && freeOf(x.B, v)
	}
	return false
}

// countDSPs charges datapath DSPs for a store's value expression, replicated
// by the enclosing unrolled loops.
func (a *analyzer) countDSPs(st *ir.Store, ctx []loopCtx) {
	a.countDSPsExpr(st.Value, ctx, st.Buf)
}

func (a *analyzer) countDSPsExpr(value ir.Expr, ctx []loopCtx, accBuf *ir.Buffer) {
	repl := 1
	for _, c := range ctx {
		if c.unrolled {
			n, _ := ir.IsConst(c.f.Extent)
			repl *= int(n)
		}
	}
	dsps := 0
	// MAC fusion with -fpc: acc = acc + a*b is one DSP.
	if accBuf != nil && a.opts.FPC {
		if bin, ok := value.(*ir.Binary); ok && bin.Op == ir.Add {
			if ld, ok := bin.A.(*ir.Load); ok && ld.Buf == accBuf {
				if mul, ok := bin.B.(*ir.Binary); ok && mul.Op == ir.Mul {
					a.model.DSPs += repl
					// Remaining operand subtrees may still hold float ops.
					a.model.DSPs += repl * countOps(mul.A)
					a.model.DSPs += repl * countOps(mul.B)
					return
				}
			}
		}
	}
	dsps = countOps(value)
	a.model.DSPs += repl * dsps
}

// countOps counts DSP-mapped float operations in an expression: mul, add,
// sub each take a DSP; divide and exp take their fixed costs; integer address
// arithmetic is free (ALMs).
func countOps(e ir.Expr) int {
	n := 0
	ir.WalkExpr(e, func(x ir.Expr) {
		switch v := x.(type) {
		case *ir.Binary:
			if isFloatExpr(v.A) || isFloatExpr(v.B) {
				switch v.Op {
				case ir.Add, ir.Sub, ir.Mul:
					n++
				case ir.Div:
					n += divDSPs
				}
			}
		case *ir.Call:
			if v.Fn == "exp" {
				n += expDSPs
			}
		}
	})
	return n
}

// isFloatExpr distinguishes datapath (float) arithmetic from address (int)
// arithmetic: anything rooted at a Load, FloatImm, ChannelRead or float call.
func isFloatExpr(e ir.Expr) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x.(type) {
		case *ir.Load, *ir.FloatImm, *ir.ChannelRead:
			found = true
		case *ir.Call:
			found = true
		}
	})
	return found
}

// area fills the kernel's resource estimate from its LSUs, loops and DSPs.
func (a *analyzer) area() {
	m := a.model
	k := m.Kernel
	res := fpga.Resources{ALUTs: kernelBaseALUT, FFs: kernelBaseFF, RAMs: kernelBaseRAM}

	// Loop control for every loop that still exists in hardware.
	ir.WalkStmt(k.Body, func(s ir.Stmt) {
		if f, ok := s.(*ir.For); ok && !a.isUnrolled(f) {
			res.ALUTs += loopALUT
			res.FFs += loopFF
		}
	})

	demand := float64(m.DSPs) * demandDSPWeight
	for _, l := range m.LSUs {
		if l.Kind == Pipelined {
			res.ALUTs += pipelinedLSUALUT * l.Replicas
			res.FFs += pipelinedLSUFF * l.Replicas
			continue
		}
		alut := float64(lsuBaseALUT + lsuPerWordALUT*l.WidthWords)
		ff := float64(lsuBaseFF + lsuPerWordFF*l.WidthWords)
		switch l.Kind {
		case Streaming:
			alut *= streamingLSUFactor
			ff *= streamingLSUFactor
		case Prefetching:
			alut *= prefetchLSUFactor
			ff *= prefetchLSUFactor
		}
		if l.Nonaligned {
			alut *= lsuNonalignedFactor
			ff *= lsuNonalignedFactor
		}
		if l.WriteAck {
			alut += lsuWriteAckALUT
		}
		// Replicas beyond the first share burst/arbitration infrastructure.
		replCost := 1 + lsuReplicaFactor*float64(l.Replicas-1)
		res.ALUTs += int(alut * replCost)
		res.FFs += int(ff * replCost)
		res.RAMs += lsuBaseRAM * l.Replicas
		eb := l.elemBytes
		if eb == 0 {
			eb = 4
		}
		d := float64(l.Replicas) * math.Sqrt(float64(l.WidthWords*8*eb))
		if l.Cached {
			res.RAMs += lsuCacheRAM * l.Replicas
			d *= demandCachedFactor
		}
		demand += d
	}

	// On-chip allocations: registers below the threshold, else banked BRAM.
	for _, b := range k.Allocs() {
		bytes := int64(registerThresholdBytes + 1) // symbolic sizes: assume BRAM
		if n, ok := b.ConstLen(); ok {
			bytes = n * 4
		}
		ports := 1
		for _, l := range m.LSUs {
			if l.Buf == b && l.Replicas > ports {
				ports = l.Replicas
			}
		}
		if bytes <= registerThresholdBytes {
			res.FFs += int(bytes) * 8
		} else {
			blocks := int((bytes + m20kBytes - 1) / m20kBytes)
			res.RAMs += blocks * ports
		}
	}

	// Constant-scope arguments become ROMs.
	for _, b := range k.Args {
		if b.Scope == ir.Constant {
			if n, ok := b.ConstLen(); ok {
				res.RAMs += int((n*4 + m20kBytes - 1) / m20kBytes)
			}
		}
	}

	// Channels.
	reads, writes := k.Channels()
	for _, ch := range append(append([]*ir.Channel{}, reads...), writes...) {
		res.ALUTs += channelALUT
		res.FFs += channelFF
		if ch.Depth > channelRegDepthMax {
			res.RAMs += 1 + ch.Depth*4/m20kBytes*channelRAMPerKBDepth
		} else {
			res.FFs += ch.Depth * 32
		}
	}

	// Integer modulo in address math (naive padding kernels).
	ir.WalkExprs(k.Body, func(e ir.Expr) {
		if b, ok := e.(*ir.Binary); ok && b.Op == ir.Mod && !isFloatExpr(b.A) {
			res.ALUTs += modALUT
		}
	})

	res.DSPs = m.DSPs
	res.ALUTs += dspGlueALUT * m.DSPs
	res.FFs += dspGlueFF * m.DSPs
	m.Area = res
	m.Demand = demand
}

func evalInt(e ir.Expr, bind map[*ir.Var]int64) int64 {
	switch x := e.(type) {
	case *ir.IntImm:
		return x.Value
	case *ir.Var:
		v, ok := bind[x]
		// Invariant: bindings are built by the Param*.Bind constructors, which
		// cover every scalar argument; a hole means a host-program bug, not a
		// user mistake.
		if !ok {
			panic(fmt.Sprintf("aoc: unbound symbolic parameter %s", x.Name))
		}
		return v
	case *ir.Binary:
		a, b := evalInt(x.A, bind), evalInt(x.B, bind)
		switch x.Op {
		case ir.Add:
			return a + b
		case ir.Sub:
			return a - b
		case ir.Mul:
			return a * b
		case ir.Div:
			return a / b
		case ir.Mod:
			return a % b
		case ir.MaxOp:
			if a > b {
				return a
			}
			return b
		case ir.MinOp:
			if a < b {
				return a
			}
			return b
		}
	}
	// Invariant: loop bounds and indices are integer expressions by IR
	// construction; a float here means a topi/schedule bug.
	panic(fmt.Sprintf("aoc: cannot evaluate %T as int", e))
}
