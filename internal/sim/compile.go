package sim

// Closure compilation: kernels are lowered once per Run into a tree of Go
// closures over a flat integer environment, replacing per-node map lookups
// and type switches with direct calls. Semantics (bounds checks, channel
// underflow, shadowing) are identical to the tree-walking interpreter in
// interp.go, which tests keep as a cross-checking oracle via runInterp.

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// cenv is the compiled execution environment: loop variables and scalar
// parameters live in int slots, and each buffer the kernel touches has a
// resolved-slice slot filled lazily on first access — one machine-map lookup
// per buffer per run instead of one per element access.
type cenv struct {
	ints []int64
	bufs [][]float32
	m    *Machine
}

// compiledKernel is a cached closure program for one kernel on one machine.
type compiledKernel struct {
	run    stmtFn
	slots  map[*ir.Var]int
	nSlots int
	nBufs  int
	// env is reused across runs (machines are single-threaded): int slots
	// are always written before read, so only the buffer-resolution cache
	// needs clearing between runs.
	env *cenv
}

type intFn func(*cenv) int64
type floatFn func(*cenv) float32
type stmtFn func(*cenv)

// compiler assigns variable slots and resolves buffers.
type compiler struct {
	m        *Machine
	slots    map[*ir.Var]int
	nSlots   int
	bufSlots map[*ir.Buffer]int
	kernel   *ir.Kernel
	// lower enables the nest lowerings: whole nests (gemm.go, window.go),
	// then plain copies (copy.go) and pad nests (pad.go). It is cleared
	// while compiling a lowered nest's replay twin, which runs on plain
	// closures and counts nothing. nGemm and nWindow count the whole nests
	// each executor took, nVector the copy and pad nests, nFallback the
	// innermost compute loops left on closures; Run reports them into
	// ExecStats.
	lower              bool
	nGemm, nWindow     int64
	nVector, nFallback int64
}

func (c *compiler) slot(v *ir.Var) int {
	s, ok := c.slots[v]
	if !ok {
		s = c.nSlots
		c.slots[v] = s
		c.nSlots++
	}
	return s
}

func (c *compiler) bufSlot(b *ir.Buffer) int {
	s, ok := c.bufSlots[b]
	if !ok {
		s = len(c.bufSlots)
		c.bufSlots[b] = s
	}
	return s
}

// bufferRef resolves data lazily into the environment's buffer slot: Alloc
// statements bind buffers during execution, so the first touch must read the
// machine map, but every later access in the same run hits the cached slice.
func (c *compiler) bufferRef(b *ir.Buffer) func(*cenv) []float32 {
	s := c.bufSlot(b)
	return func(e *cenv) []float32 {
		data := e.bufs[s]
		if data == nil {
			data = e.m.bufs[b]
			if data == nil {
				panic(fmt.Sprintf("load from unbound buffer %s", b.Name))
			}
			e.bufs[s] = data
		}
		return data
	}
}

// offsetFn compiles a multi-dimensional index into a flat-offset closure
// with bounds checks identical to the interpreter's. Constant dimensions
// (the common case: only parameterized folded kernels have symbolic shapes)
// are folded at compile time so the per-access path does no dim evaluation.
func (c *compiler) offsetFn(b *ir.Buffer, idx []ir.Expr) intFn {
	idxFns := make([]intFn, len(idx))
	constDims := make([]int64, len(idx))
	allConst := true
	for i := range idx {
		idxFns[i] = c.intFn(idx[i])
		if imm, ok := b.Shape[i].(*ir.IntImm); ok {
			constDims[i] = imm.Value
		} else {
			allConst = false
		}
	}
	name := b.Name
	if allConst {
		if len(idx) == 1 {
			x0, dim := idxFns[0], constDims[0]
			return func(e *cenv) int64 {
				x := x0(e)
				if x < 0 || x >= dim {
					panic(fmt.Sprintf("index %d out of bounds [0,%d) in dim %d of %s", x, dim, 0, name))
				}
				return x
			}
		}
		return func(e *cenv) int64 {
			off := int64(0)
			for i, fn := range idxFns {
				dim := constDims[i]
				x := fn(e)
				if x < 0 || x >= dim {
					panic(fmt.Sprintf("index %d out of bounds [0,%d) in dim %d of %s", x, dim, i, name))
				}
				off = off*dim + x
			}
			return off
		}
	}
	dimFns := make([]intFn, len(idx))
	for i := range idx {
		dimFns[i] = c.intFn(b.Shape[i])
	}
	return func(e *cenv) int64 {
		off := int64(0)
		for i := range idxFns {
			dim := dimFns[i](e)
			x := idxFns[i](e)
			if x < 0 || x >= dim {
				panic(fmt.Sprintf("index %d out of bounds [0,%d) in dim %d of %s", x, dim, i, name))
			}
			off = off*dim + x
		}
		return off
	}
}

func (c *compiler) intFn(x ir.Expr) intFn {
	switch v := x.(type) {
	case *ir.IntImm:
		val := v.Value
		return func(*cenv) int64 { return val }
	case *ir.Var:
		s := c.slot(v)
		return func(e *cenv) int64 { return e.ints[s] }
	case *ir.Binary:
		a, b := c.intFn(v.A), c.intFn(v.B)
		// Leaf forms of the operands: index arithmetic is overwhelmingly
		// chains of Add/Mul over loop variables and constants, so collapsing
		// a leaf operand into the parent closure removes one call per node
		// per element access.
		aImm, aIsImm := v.A.(*ir.IntImm)
		bImm, bIsImm := v.B.(*ir.IntImm)
		aVar, aIsVar := v.A.(*ir.Var)
		bVar, bIsVar := v.B.(*ir.Var)
		switch v.Op {
		case ir.Add:
			switch {
			case aIsVar && bIsVar:
				as, bs := c.slot(aVar), c.slot(bVar)
				return func(e *cenv) int64 { return e.ints[as] + e.ints[bs] }
			case aIsVar && bIsImm:
				as, k := c.slot(aVar), bImm.Value
				return func(e *cenv) int64 { return e.ints[as] + k }
			case bIsImm:
				k := bImm.Value
				return func(e *cenv) int64 { return a(e) + k }
			case bIsVar:
				bs := c.slot(bVar)
				return func(e *cenv) int64 { return a(e) + e.ints[bs] }
			case aIsImm:
				k := aImm.Value
				return func(e *cenv) int64 { return k + b(e) }
			case aIsVar:
				as := c.slot(aVar)
				return func(e *cenv) int64 { return e.ints[as] + b(e) }
			}
			return func(e *cenv) int64 { return a(e) + b(e) }
		case ir.Sub:
			return func(e *cenv) int64 { return a(e) - b(e) }
		case ir.Mul:
			switch {
			case aIsVar && bIsVar:
				as, bs := c.slot(aVar), c.slot(bVar)
				return func(e *cenv) int64 { return e.ints[as] * e.ints[bs] }
			case aIsVar && bIsImm:
				as, k := c.slot(aVar), bImm.Value
				return func(e *cenv) int64 { return e.ints[as] * k }
			case bIsImm:
				k := bImm.Value
				return func(e *cenv) int64 { return a(e) * k }
			case bIsVar:
				bs := c.slot(bVar)
				return func(e *cenv) int64 { return a(e) * e.ints[bs] }
			case aIsImm:
				k := aImm.Value
				return func(e *cenv) int64 { return k * b(e) }
			case aIsVar:
				as := c.slot(aVar)
				return func(e *cenv) int64 { return e.ints[as] * b(e) }
			}
			return func(e *cenv) int64 { return a(e) * b(e) }
		case ir.Div:
			return func(e *cenv) int64 { return a(e) / b(e) }
		case ir.Mod:
			return func(e *cenv) int64 { return a(e) % b(e) }
		case ir.MaxOp:
			return func(e *cenv) int64 { return maxI(a(e), b(e)) }
		case ir.MinOp:
			return func(e *cenv) int64 { return minI(a(e), b(e)) }
		case ir.LT:
			return func(e *cenv) int64 { return b2i(a(e) < b(e)) }
		case ir.GE:
			return func(e *cenv) int64 { return b2i(a(e) >= b(e)) }
		case ir.EQ:
			return func(e *cenv) int64 { return b2i(a(e) == b(e)) }
		case ir.And:
			return func(e *cenv) int64 { return b2i(a(e) != 0 && b(e) != 0) }
		}
	case *ir.Select:
		cond, a, b := c.intFn(v.Cond), c.intFn(v.A), c.intFn(v.B)
		return func(e *cenv) int64 {
			if cond(e) != 0 {
				return a(e)
			}
			return b(e)
		}
	}
	panic(fmt.Sprintf("not an int expr: %T %v", x, x))
}

func (c *compiler) floatFn(x ir.Expr) floatFn {
	switch v := x.(type) {
	case *ir.FloatImm:
		val := float32(v.Value)
		return func(*cenv) float32 { return val }
	case *ir.IntImm:
		val := float32(v.Value)
		return func(*cenv) float32 { return val }
	case *ir.Load:
		ref := c.bufferRef(v.Buf)
		off := c.offsetFn(v.Buf, v.Index)
		return func(e *cenv) float32 { return ref(e)[off(e)] }
	case *ir.ChannelRead:
		fifo := c.m.Channel(v.Ch)
		name := v.Ch.Name
		return func(*cenv) float32 {
			val, ok := fifo.pop()
			if !ok {
				panic(deadlockPanic{channel: name})
			}
			return val
		}
	case *ir.Binary:
		a, b := c.floatFn(v.A), c.floatFn(v.B)
		switch v.Op {
		case ir.Add:
			return func(e *cenv) float32 { return a(e) + b(e) }
		case ir.Sub:
			return func(e *cenv) float32 { return a(e) - b(e) }
		case ir.Mul:
			return func(e *cenv) float32 { return a(e) * b(e) }
		case ir.Div:
			return func(e *cenv) float32 { return a(e) / b(e) }
		case ir.MaxOp:
			return func(e *cenv) float32 { return maxF(a(e), b(e)) }
		case ir.MinOp:
			return func(e *cenv) float32 { return minF(a(e), b(e)) }
		}
		panic(fmt.Sprintf("op %s not valid on floats", v.Op))
	case *ir.Call:
		args := make([]floatFn, len(v.Args))
		for i, a := range v.Args {
			args[i] = c.floatFn(a)
		}
		switch v.Fn {
		case "exp":
			return func(e *cenv) float32 { return expF(args[0](e)) }
		case "sqrt":
			return func(e *cenv) float32 { return sqrtF(args[0](e)) }
		case "max":
			return func(e *cenv) float32 { return maxF(args[0](e), args[1](e)) }
		case "min":
			return func(e *cenv) float32 { return minF(args[0](e), args[1](e)) }
		}
		panic(fmt.Sprintf("unknown intrinsic %q", v.Fn))
	case *ir.Select:
		cond := c.intFn(v.Cond)
		a, b := c.floatFn(v.A), c.floatFn(v.B)
		return func(e *cenv) float32 {
			if cond(e) != 0 {
				return a(e)
			}
			return b(e)
		}
	}
	panic(fmt.Sprintf("not a float expr: %T %v", x, x))
}

func (c *compiler) stmtFn(s ir.Stmt) stmtFn {
	switch x := s.(type) {
	case nil:
		return func(*cenv) {}
	case *ir.Block:
		fns := make([]stmtFn, len(x.Stmts))
		for i, st := range x.Stmts {
			fns[i] = c.stmtFn(st)
		}
		return func(e *cenv) {
			for _, f := range fns {
				f(e)
			}
		}
	case *ir.Alloc:
		buf := x.Buf
		s := c.bufSlot(buf)
		dimFns := make([]intFn, len(buf.Shape))
		for i, d := range buf.Shape {
			dimFns[i] = c.intFn(d)
		}
		return func(e *cenv) {
			n := int64(1)
			for _, d := range dimFns {
				n *= d(e)
			}
			e.m.allocFor(buf, n)
			// Refresh the cached resolution: allocFor may have replaced the
			// backing slice.
			e.bufs[s] = e.m.bufs[buf]
		}
	case *ir.For:
		if c.lower {
			if fn := c.wholeNest(x); fn != nil {
				return fn
			}
			fn := c.copyLoop(x)
			if fn == nil {
				fn = c.padLoop(x)
			}
			if fn != nil {
				c.nVector++
				return fn
			}
			if innermostComputeLoop(x) {
				// Countable fallback: an innermost loop with stores or
				// channel ops stays on the closures.
				c.nFallback++
			}
		}
		extent := c.intFn(x.Extent)
		slot := c.slot(x.Var)
		body := c.stmtFn(x.Body)
		return func(e *cenv) {
			n := extent(e)
			for i := int64(0); i < n; i++ {
				e.ints[slot] = i
				body(e)
			}
		}
	case *ir.Store:
		ref := c.bufferRef(x.Buf)
		off := c.offsetFn(x.Buf, x.Index)
		val := c.floatFn(x.Value)
		return func(e *cenv) { ref(e)[off(e)] = val(e) }
	case *ir.ChannelWrite:
		fifo := c.m.Channel(x.Ch)
		val := c.floatFn(x.Value)
		return func(e *cenv) { fifo.push(val(e)) }
	case *ir.IfThen:
		cond := c.intFn(x.Cond)
		then := c.stmtFn(x.Then)
		var els stmtFn
		if x.Else != nil {
			els = c.stmtFn(x.Else)
		}
		return func(e *cenv) {
			if cond(e) != 0 {
				then(e)
			} else if els != nil {
				els(e)
			}
		}
	}
	panic(fmt.Sprintf("unknown stmt %T", s))
}

// twin compiles f to plain closures: the replay path of a lowered nest,
// bit-identical to the interpreter by construction.
func (c *compiler) twin(f *ir.For) stmtFn {
	c.lower = false
	fn := c.stmtFn(f)
	c.lower = true
	return fn
}

// innermostComputeLoop reports whether f is an innermost loop (no nested
// For) that performs stores or channel writes — the unit FallbackLoops
// counts, so every loop left on the closures is visible in the metrics.
func innermostComputeLoop(f *ir.For) bool {
	inner, compute := true, false
	ir.WalkStmt(f.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.For:
			inner = false
		case *ir.Store, *ir.ChannelWrite:
			compute = true
		}
	})
	return inner && compute
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Float helpers match the interpreter exactly (math.Max/Min semantics,
// including NaN propagation), so compiled and interpreted runs are
// bit-identical.
func maxF(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) }
func minF(a, b float32) float32 { return float32(math.Min(float64(a), float64(b))) }

// maxFast and minFast are bit-identical to maxF and minF without the
// float64 round trip, in math.Max's and math.Min's order of special cases:
// +Inf (for min, -Inf) beats NaN, any other NaN yields the canonical NaN
// whatever the input's sign and payload, and of two zeros +0 (for min, -0)
// wins.
func maxFast(a, b float32) float32 {
	switch {
	case a > b:
		return a
	case a < b:
		return b
	case a == b:
		// Only the two zeros are equal with different bits; their AND is
		// +0 unless both are -0.
		return math.Float32frombits(math.Float32bits(a) & math.Float32bits(b))
	case a > math.MaxFloat32:
		return a
	case b > math.MaxFloat32:
		return b
	}
	return canonNaN
}

func minFast(a, b float32) float32 {
	switch {
	case a < b:
		return a
	case a > b:
		return b
	case a == b:
		return math.Float32frombits(math.Float32bits(a) | math.Float32bits(b))
	case a < -math.MaxFloat32:
		return a
	case b < -math.MaxFloat32:
		return b
	}
	return canonNaN
}

func expF(x float32) float32  { return float32(math.Exp(float64(x))) }
func sqrtF(x float32) float32 { return float32(math.Sqrt(float64(x))) }
