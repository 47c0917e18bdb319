package sim

// The vector execution tier: affine loop nests are lowered to flat slice
// microkernels instead of per-element closure trees. This is the simulator's
// analogue of the thesis's unroll/kvec vectorization primitives (§5.1): the
// schedules shape conv/dense inner loops into dense inner products exactly so
// hardware can execute them as wide SIMD-style pipelines, and the same shape
// lets the simulator execute them as tight Go loops over float32 slices.
//
// The compiler first offers every For to the whole-nest match (gemm.go),
// whose two executors — cpuref.Gemm for matmul-shaped nests, the
// strided-window microkernel of window.go for depthwise and pooling nests —
// run a recognized tile nest once per kernel call. What the match leaves,
// and the twins its executors replay when they skip or bail, is lowered
// here.
//
// Pipeline, per For encountered during closure compilation (compile.go):
//
//  1. collect the perfect nest rooted at the loop (a chain of single-child
//     For statements ending in exactly one Store);
//  2. decompose every buffer access with the reusable affine pass
//     (ir.Linearize): index = base + Σ stride·var with nest-invariant
//     bases/strides, constant or symbolic (parameterized folded kernels);
//  3. classify the stored value: fill (nest-invariant value), copy (a single
//     affine load), reduction (acc = acc ⊕ rhs: the kvec dot product, sum,
//     max/min pooling), or elementwise map (a float tree over affine loads —
//     bias-add, ReLU, exp, …);
//  4. at run time, evaluate extents/bases/strides once per nest entry, hoist
//     every per-element bounds check into one box check per access, merge
//     adjacent levels whose strides are contiguous (collapsing e.g. the
//     dense ko/ki split back into one unit-stride dot), and dispatch to the
//     microkernel.
//
// Bit-identity contract: microkernels perform the same float32 operations in
// the same order as the interpreter, with every intermediate rounded to
// float32 (each product is converted with an explicit float32(...) before it
// is accumulated, the only form the Go spec guarantees the compiler will not
// contract into an FMA; `make fma-check` proves it on arm64). Anything the
// analysis cannot prove — non-affine indices, channel ops, var-dependent
// selects, triangular nests — falls back per-loop to the scalar closures, and
// every bailout is counted (ExecStats.FallbackLoops). TVM's div/mod pad nest
// is not affine but is not a fallback either: pad.go recognizes its one fixed
// form and runs it as row fills and row copies. If the run-time box check
// fails (an access would leave its buffer), the nest re-runs on the scalar
// closures to reproduce the exact per-element panic (ExecStats.GuardBailouts).

import (
	"unsafe"

	"repro/internal/ir"
)

type vecKind int

const (
	vkFill vecKind = iota
	vkMap
	vkReduce
)

// mexec is the per-element state a map program reads: one resolved slice and
// one flat offset per access. Offsets are advanced by the nest driver.
type mexec struct {
	data [][]float32
	off  []int64
}

// mfn evaluates one element of a map/rhs program. Nest-invariant subtrees
// evaluate through the closure environment (outer loop vars, scalars).
type mfn func(*cenv, *mexec) float32

// vecAccess is one buffer access in compiled form: everything needed to
// evaluate flat base/strides and the bounds box once per nest entry.
type vecAccess struct {
	ref   func(*cenv) []float32
	dims  []intFn   // buffer extents (possibly symbolic)
	bases []intFn   // per-dim affine base
	coefs [][]intFn // per-dim, per-nest-var affine coefficient
}

// vecLoop is a compiled vectorized nest plus its run-time scratch. Machines
// are single-threaded, so scratch lives with the compiled program.
type vecLoop struct {
	kind    vecKind
	nVars   int
	extents []intFn
	accs    []*vecAccess // [0] is always the store destination
	val     floatFn      // vkFill: invariant value
	prog    mfn          // vkMap / generic vkReduce rhs
	op      ir.BinOp     // vkReduce: Add, MaxOp or MinOp
	rhsMul  bool         // vkReduce: rhs is exactly load·load (accs[1]·accs[2])
	rhsLoad bool         // vkReduce: rhs is exactly one load (accs[1])
	bare    bool         // vkMap: value is exactly one load (accs[1]) — copy
	scalar  stmtFn       // closure-tier fallback for guard failures
	// redOuter (run-time) is the count of merged levels outside the
	// reduction suffix; == len(mext) means "execute in map order".
	redOuter int

	// scratch, sized at compile time
	ext  []int64   // raw extents
	str  [][]int64 // flat stride per access per raw level
	base []int64   // flat base per access
	data [][]float32
	mext []int64   // merged extents
	mstr [][]int64 // merged strides per access
	idx  []int64   // odometer
	off  []int64   // current flat offset per access
	me   mexec
}

// vectorLoop tries to lower the nest rooted at f; nil means "not recognized,
// compile it to scalar closures".
func (c *compiler) vectorLoop(f *ir.For) stmtFn {
	vars, extents, store := collectNest(f)
	if store == nil {
		return nil
	}
	if hasChanRead(store.Value) {
		return nil // channel pops are ordered side effects; never vectorized
	}
	vl := &vecLoop{nVars: len(vars)}
	for _, e := range extents {
		vl.extents = append(vl.extents, c.intFn(e))
	}
	dst := c.access(store.Buf, store.Index, vars)
	if dst == nil {
		return nil
	}
	vl.accs = append(vl.accs, dst)

	// Classify the stored value.
	switch {
	case !ir.UsesAnyVar(store.Value, vars) && !hasLoad(store.Value):
		vl.kind = vkFill
		vl.val = c.floatFn(store.Value)
	default:
		if b, ok := store.Value.(*ir.Binary); ok &&
			(b.Op == ir.Add || b.Op == ir.MaxOp || b.Op == ir.MinOp) {
			if ld, ok := b.A.(*ir.Load); ok && ld.Buf == store.Buf && indexEq(ld.Index, store.Index) {
				// acc = acc ⊕ rhs: reduction candidate. The rhs program
				// excludes the accumulator load; if at run time the store
				// varies on the innermost level (no reduction suffix) or
				// the rhs aliases the accumulator, it executes in exact
				// per-element map order instead.
				prog, ok := c.mapProg(b.B, vars, vl)
				if !ok {
					return nil
				}
				vl.kind = vkReduce
				vl.op = b.Op
				vl.prog = prog
				if m, ok := b.B.(*ir.Binary); ok && m.Op == ir.Mul && len(vl.accs) == 3 {
					_, la := m.A.(*ir.Load)
					_, lb := m.B.(*ir.Load)
					vl.rhsMul = la && lb
				}
				if _, ok := b.B.(*ir.Load); ok && len(vl.accs) == 2 {
					vl.rhsLoad = true
				}
				break
			}
		}
		prog, ok := c.mapProg(store.Value, vars, vl)
		if !ok {
			return nil
		}
		vl.kind = vkMap
		vl.prog = prog
		if _, ok := store.Value.(*ir.Load); ok && len(vl.accs) == 2 {
			vl.bare = true
		}
	}

	// Scalar twin for guard bailouts: identical panics and partial writes.
	saved := c.vectorize
	c.vectorize = false
	vl.scalar = c.stmtFn(f)
	c.vectorize = saved

	vl.allocScratch()
	return vl.run
}

// collectNest walks a chain of single-statement For bodies down to a single
// Store. Extents must not reference any enclosing nest variable (triangular
// nests are not boxes). A nil store means the shape was not recognized.
func collectNest(f *ir.For) ([]*ir.Var, []ir.Expr, *ir.Store) {
	var vars []*ir.Var
	var extents []ir.Expr
	s := ir.Stmt(f)
	for {
		switch x := s.(type) {
		case *ir.For:
			if ir.UsesAnyVar(x.Extent, vars) {
				return nil, nil, nil
			}
			vars = append(vars, x.Var)
			extents = append(extents, x.Extent)
			s = x.Body
		case *ir.Block:
			if len(x.Stmts) != 1 {
				return nil, nil, nil
			}
			s = x.Stmts[0]
		case *ir.Store:
			return vars, extents, x
		default:
			return nil, nil, nil
		}
	}
}

// innermostComputeLoop reports whether f is an innermost loop (no nested
// For) that performs stores or channel writes — the unit FallbackLoops
// counts so every scalar bailout is visible in the metrics.
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

func hasChanRead(e ir.Expr) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		if _, ok := x.(*ir.ChannelRead); ok {
			found = true
		}
	})
	return found
}

func hasLoad(e ir.Expr) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		if _, ok := x.(*ir.Load); ok {
			found = true
		}
	})
	return found
}

func indexEq(a, b []ir.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// access compiles the affine decomposition of one buffer access, or nil when
// any index is not affine in the nest.
func (c *compiler) access(buf *ir.Buffer, index []ir.Expr, vars []*ir.Var) *vecAccess {
	ap, ok := ir.LinearizeAccess(buf, index, vars)
	if !ok {
		return nil
	}
	a := &vecAccess{ref: c.bufferRef(buf)}
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

// mapProg compiles a float value tree into a per-element program. Loads with
// affine indices become registered accesses; nest-invariant subtrees without
// loads evaluate through the scalar closures per element (same evaluation count
// as scalar execution). Channel reads and var-dependent selects fail.
func (c *compiler) mapProg(e ir.Expr, vars []*ir.Var, vl *vecLoop) (mfn, bool) {
	if !ir.UsesAnyVar(e, vars) && !hasLoad(e) && !hasChanRead(e) {
		v := c.floatFn(e)
		return func(ce *cenv, _ *mexec) float32 { return v(ce) }, true
	}
	switch x := e.(type) {
	case *ir.Load:
		a := c.access(x.Buf, x.Index, vars)
		if a == nil {
			return nil, false
		}
		j := len(vl.accs)
		vl.accs = append(vl.accs, a)
		return func(_ *cenv, m *mexec) float32 { return m.data[j][m.off[j]] }, true
	case *ir.Binary:
		a, ok := c.mapProg(x.A, vars, vl)
		if !ok {
			return nil, false
		}
		b, ok := c.mapProg(x.B, vars, vl)
		if !ok {
			return nil, false
		}
		switch x.Op {
		case ir.Add:
			return func(ce *cenv, m *mexec) float32 { return a(ce, m) + b(ce, m) }, true
		case ir.Sub:
			return func(ce *cenv, m *mexec) float32 { return a(ce, m) - b(ce, m) }, true
		case ir.Mul:
			return func(ce *cenv, m *mexec) float32 { return a(ce, m) * b(ce, m) }, true
		case ir.Div:
			return func(ce *cenv, m *mexec) float32 { return a(ce, m) / b(ce, m) }, true
		case ir.MaxOp:
			return func(ce *cenv, m *mexec) float32 { return maxF(a(ce, m), b(ce, m)) }, true
		case ir.MinOp:
			return func(ce *cenv, m *mexec) float32 { return minF(a(ce, m), b(ce, m)) }, true
		}
		return nil, false
	case *ir.Call:
		args := make([]mfn, len(x.Args))
		for i, arg := range x.Args {
			fn, ok := c.mapProg(arg, vars, vl)
			if !ok {
				return nil, false
			}
			args[i] = fn
		}
		switch {
		case x.Fn == "exp" && len(args) == 1:
			return func(ce *cenv, m *mexec) float32 { return expF(args[0](ce, m)) }, true
		case x.Fn == "sqrt" && len(args) == 1:
			return func(ce *cenv, m *mexec) float32 { return sqrtF(args[0](ce, m)) }, true
		case x.Fn == "max" && len(args) == 2:
			return func(ce *cenv, m *mexec) float32 { return maxF(args[0](ce, m), args[1](ce, m)) }, true
		case x.Fn == "min" && len(args) == 2:
			return func(ce *cenv, m *mexec) float32 { return minF(args[0](ce, m), args[1](ce, m)) }, true
		}
		return nil, false
	case *ir.FloatImm:
		v := float32(x.Value)
		return func(*cenv, *mexec) float32 { return v }, true
	case *ir.IntImm:
		v := float32(x.Value)
		return func(*cenv, *mexec) float32 { return v }, true
	}
	return nil, false
}

func (vl *vecLoop) allocScratch() {
	r, na := vl.nVars, len(vl.accs)
	vl.ext = make([]int64, r)
	vl.base = make([]int64, na)
	vl.data = make([][]float32, na)
	vl.str = make([][]int64, na)
	vl.mstr = make([][]int64, na)
	for j := range vl.str {
		vl.str[j] = make([]int64, r)
		vl.mstr[j] = make([]int64, r)
	}
	vl.mext = make([]int64, r)
	vl.idx = make([]int64, r)
	vl.off = make([]int64, na)
	vl.me = mexec{data: vl.data, off: vl.off}
}

// run executes one entry of the vectorized nest.
func (vl *vecLoop) run(e *cenv) {
	// Trip counts first, in nest order, stopping at the first empty level —
	// a zero-trip outer loop must not evaluate inner extents or touch
	// buffers, exactly like the scalar tiers.
	for l, fn := range vl.extents {
		n := fn(e)
		if n <= 0 {
			return
		}
		vl.ext[l] = n
	}
	if !vl.setup(e) {
		if st := e.m.stats; st != nil {
			st.GuardBailouts.Add(1)
		}
		vl.scalar(e)
		return
	}
	if st := e.m.stats; st != nil {
		st.VectorRuns.Add(1)
	}
	switch vl.kind {
	case vkFill:
		vl.runFill(e)
	case vkMap:
		vl.runMap(e, len(vl.mext))
	case vkReduce:
		vl.runReduce(e)
	}
}

// setup resolves slices, evaluates bases/strides, performs the hoisted
// bounds box check per access, and merges contiguous levels. Returns false
// when any access could leave [0,dim) in some dimension or overrun its
// slice — the caller re-runs the nest on the scalar closures so the panic
// (message, partial writes) is bit-identical.
func (vl *vecLoop) setup(e *cenv) bool {
	r := vl.nVars
	for j, a := range vl.accs {
		vl.data[j] = a.ref(e)
		fb := int64(0)
		maxFlat := int64(0)
		for l := 0; l < r; l++ {
			vl.str[j][l] = 0
		}
		// Row-major: walk dims outer→inner, scaling the accumulated flat
		// base/strides by each inner extent.
		for d := range a.dims {
			dim := a.dims[d](e)
			base := a.bases[d](e)
			lo, hi := base, base
			for l := 0; l < r; l++ {
				cv := a.coefs[d][l](e)
				if cv >= 0 {
					hi += cv * (vl.ext[l] - 1)
				} else {
					lo += cv * (vl.ext[l] - 1)
				}
				vl.str[j][l] = vl.str[j][l]*dim + cv
			}
			if lo < 0 || hi >= dim {
				return false
			}
			fb = fb*dim + base
			maxFlat = maxFlat*dim + hi
		}
		vl.base[j] = fb
		if maxFlat >= int64(len(vl.data[j])) {
			return false
		}
	}
	if vl.kind == vkReduce {
		// Reduction split: the maximal suffix of levels over which the
		// accumulator's flat offset is constant.
		split := r
		for split > 0 && vl.str[0][split-1] == 0 {
			split--
		}
		vl.mergeLevels(0, split)
		nOuter := len(vl.mext)
		vl.mergeLevels(split, r)
		vl.redOuter = nOuter
		if split == r {
			// The store varies on the innermost level: no reduction to
			// hoist; execute in exact per-element order.
			vl.redOuter = len(vl.mext)
		}
		// Hoisting the accumulator into a register requires that nothing
		// the rhs reads aliases it; otherwise run in map order, which is
		// exact under any aliasing.
		for j := 1; j < len(vl.data); j++ {
			if overlaps(vl.data[0], vl.data[j]) {
				vl.redOuter = len(vl.mext)
				break
			}
		}
	} else {
		vl.mergeLevels(0, r)
	}
	return true
}

// mergeLevels appends the contiguity-merged form of raw levels [from,to)
// onto mext/mstr. Adjacent levels merge when every access satisfies
// stride[outer] == extent[inner]·stride[inner]; merging collapses split
// loops (the dense ko/ki pair) back into one long unit-stride level. Groups
// never merge across calls, so a reduction suffix stays separate from the
// outer levels.
func (vl *vecLoop) mergeLevels(from, to int) {
	if from == 0 {
		vl.mext = vl.mext[:0]
		for j := range vl.mstr {
			vl.mstr[j] = vl.mstr[j][:0]
		}
	}
	groupStart := len(vl.mext)
	for l := from; l < to; l++ {
		n := len(vl.mext)
		if n > groupStart && vl.canMerge(n-1, l) {
			vl.mext[n-1] *= vl.ext[l]
			for j := range vl.mstr {
				vl.mstr[j][n-1] = vl.str[j][l]
			}
			continue
		}
		vl.mext = append(vl.mext, vl.ext[l])
		for j := range vl.mstr {
			vl.mstr[j] = append(vl.mstr[j], vl.str[j][l])
		}
	}
}

// canMerge reports whether merged level m (the group's last) is contiguous
// with raw level l for every access.
func (vl *vecLoop) canMerge(m, l int) bool {
	for j := range vl.mstr {
		if vl.mstr[j][m] != vl.ext[l]*vl.str[j][l] {
			return false
		}
	}
	return true
}

// forRows iterates the odometer over merged levels [0,last) and calls row
// with offsets positioned at the start of each innermost row, in exact
// scalar order. Offsets in vl.off are maintained incrementally.
func (vl *vecLoop) forRows(last int, row func()) {
	for j := range vl.off {
		vl.off[j] = vl.base[j]
	}
	if last <= 0 {
		row()
		return
	}
	idx := vl.idx[:last]
	for i := range idx {
		idx[i] = 0
	}
	for {
		row()
		l := last - 1
		for ; l >= 0; l-- {
			idx[l]++
			if idx[l] < vl.mext[l] {
				for j := range vl.off {
					vl.off[j] += vl.mstr[j][l]
				}
				break
			}
			idx[l] = 0
			for j := range vl.off {
				vl.off[j] -= (vl.mext[l] - 1) * vl.mstr[j][l]
			}
		}
		if l < 0 {
			return
		}
	}
}

func (vl *vecLoop) runFill(e *cenv) {
	v := vl.val(e)
	last := len(vl.mext) - 1
	n, ds := vl.mext[last], vl.mstr[0][last]
	vl.forRows(last, func() {
		d, o := vl.data[0], vl.off[0]
		if ds == 1 {
			fillRow(d[o:o+n], v)
			return
		}
		for i := int64(0); i < n; i++ {
			d[o] = v
			o += ds
		}
	})
}

// runMap executes levels [0,levels) elementwise: dst[·] = prog(·). Exact
// per-element order makes it safe under any aliasing, including
// self-referencing stores.
func (vl *vecLoop) runMap(e *cenv, levels int) {
	last := levels - 1
	n, ds := vl.mext[last], vl.mstr[0][last]
	if vl.bare {
		ss := vl.mstr[1][last]
		vl.forRows(last, func() {
			d, s := vl.data[0], vl.data[1]
			do, so := vl.off[0], vl.off[1]
			if ds == 1 && ss == 1 && !overlaps(d[do:do+n], s[so:so+n]) {
				copy(d[do:do+n], s[so:so+n])
				return
			}
			for i := int64(0); i < n; i++ {
				d[do] = s[so]
				do += ds
				so += ss
			}
		})
		return
	}
	prog, me := vl.prog, &vl.me
	vl.forRows(last, func() {
		d := vl.data[0]
		for i := int64(0); i < n; i++ {
			d[vl.off[0]] = prog(e, me)
			for j := range vl.off {
				vl.off[j] += vl.mstr[j][last]
			}
		}
		for j := range vl.off {
			vl.off[j] -= n * vl.mstr[j][last]
		}
	})
}

func (vl *vecLoop) runReduce(e *cenv) {
	mo := vl.redOuter
	ml := len(vl.mext)
	if mo == ml {
		// Map order (no reduction suffix, or rhs aliases the accumulator):
		// dst[·] = dst[·] ⊕ prog(·) per element.
		op, prog, me := vl.op, vl.prog, &vl.me
		last := ml - 1
		n := vl.mext[last]
		vl.forRows(last, func() {
			d := vl.data[0]
			for i := int64(0); i < n; i++ {
				o := vl.off[0]
				d[o] = applyOp(op, d[o], prog(e, me))
				for j := range vl.off {
					vl.off[j] += vl.mstr[j][last]
				}
			}
			for j := range vl.off {
				vl.off[j] -= n * vl.mstr[j][last]
			}
		})
		return
	}
	// Register-hoisted accumulation: one load and one store of the
	// accumulator per outer element, reduction suffix in between.
	vl.forRows(mo, func() {
		d := vl.data[0]
		o := vl.off[0]
		d[o] = vl.reduceTail(e, mo, d[o])
	})
}

// reduceTail folds the merged reduction levels [mo, len) into acc.
func (vl *vecLoop) reduceTail(e *cenv, mo int, acc float32) float32 {
	last := len(vl.mext) - 1
	n := vl.mext[last]
	// Iterate reduction levels above the innermost with a local odometer
	// (the outer odometer in forRows owns vl.idx[:mo]).
	var redLoop func(l int, acc float32) float32
	redLoop = func(l int, acc float32) float32 {
		if l == last {
			return vl.reduceRow(e, acc, n)
		}
		for i := int64(0); i < vl.mext[l]; i++ {
			acc = redLoop(l+1, acc)
			for j := 1; j < len(vl.off); j++ {
				vl.off[j] += vl.mstr[j][l]
			}
		}
		for j := 1; j < len(vl.off); j++ {
			vl.off[j] -= vl.mext[l] * vl.mstr[j][l]
		}
		return acc
	}
	return redLoop(mo, acc)
}

// reduceRow folds one innermost row of n elements into acc. The unit-stride
// dot product — the kvec inner product of every conv/dense schedule — gets
// the subslice form so the bounds checks vanish from the hot loop; every
// variant converts the product to float32 explicitly before accumulating it:
// only an explicit conversion stops the compiler fusing the multiply-add into
// an FMA (a temporary does not, on arm64), and bit-identity needs the product
// rounded.
func (vl *vecLoop) reduceRow(e *cenv, acc float32, n int64) float32 {
	last := len(vl.mext) - 1
	switch {
	case vl.rhsMul && vl.op == ir.Add:
		a, b := vl.data[1], vl.data[2]
		ao, bo := vl.off[1], vl.off[2]
		as, bs := vl.mstr[1][last], vl.mstr[2][last]
		if as == 1 && bs == 1 {
			aa := a[ao : ao+n]
			bb := b[bo : bo+n]
			for i := range aa {
				acc += float32(aa[i] * bb[i])
			}
			return acc
		}
		for i := int64(0); i < n; i++ {
			acc += float32(a[ao] * b[bo])
			ao += as
			bo += bs
		}
		return acc
	case vl.rhsLoad:
		a := vl.data[1]
		ao, as := vl.off[1], vl.mstr[1][last]
		switch vl.op {
		case ir.Add:
			if as == 1 {
				for _, v := range a[ao : ao+n] {
					acc += v
				}
				return acc
			}
			for i := int64(0); i < n; i++ {
				acc += a[ao]
				ao += as
			}
			return acc
		case ir.MaxOp:
			for i := int64(0); i < n; i++ {
				acc = maxFast(acc, a[ao])
				ao += as
			}
			return acc
		case ir.MinOp:
			for i := int64(0); i < n; i++ {
				acc = minFast(acc, a[ao])
				ao += as
			}
			return acc
		}
	}
	op, prog, me := vl.op, vl.prog, &vl.me
	for i := int64(0); i < n; i++ {
		acc = applyOp(op, acc, prog(e, me))
		for j := 1; j < len(vl.off); j++ {
			vl.off[j] += vl.mstr[j][last]
		}
	}
	for j := 1; j < len(vl.off); j++ {
		vl.off[j] -= n * vl.mstr[j][last]
	}
	return acc
}

func applyOp(op ir.BinOp, a, b float32) float32 {
	switch op {
	case ir.Add:
		return a + b
	case ir.MaxOp:
		return maxF(a, b)
	}
	return minF(a, b)
}

// overlaps reports whether two slices share backing memory.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	const sz = unsafe.Sizeof(float32(0))
	return pa < pb+uintptr(len(b))*sz && pb < pa+uintptr(len(a))*sz
}
