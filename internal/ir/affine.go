package ir

// Affine access classification: decompose index expressions into base +
// stride·var form with respect to a loop nest. Both clocks read accesses
// through it. On the executed clock it is the analysis half of the
// simulator's nest lowerings: the GEMM and window executors
// (internal/sim/gemm.go, internal/sim/window.go) and the copy lowering
// (internal/sim/copy.go) flatten every access they run through it. On the
// modeled clock the offline-compiler model (internal/aoc, flatCoef) takes
// each LSU's stride along a loop from it, one loop variable at a time.

// LinearExpr is the affine decomposition of an integer expression with
// respect to an ordered list of loop variables:
//
//	e  =  Base + Σ Coeffs[i]·vars[i]
//
// Base and every coefficient are themselves expressions that do not
// reference any of the nest variables — they may reference enclosing loop
// variables or symbolic shape parameters (parameterized folded kernels), so
// a decomposition is evaluable once per nest entry. Constant coefficients
// fold to *IntImm via the package's standard constructors.
type LinearExpr struct {
	Coeffs []Expr
	Base   Expr
}

// UsesAnyVar reports whether e references any of vars.
func UsesAnyVar(e Expr, vars []*Var) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*Var); ok {
			for _, nv := range vars {
				if v == nv {
					found = true
					return
				}
			}
		}
	})
	return found
}

// Linearize decomposes integer expression e as an affine function of vars.
// It returns ok=false when e is not affine in vars: a product of two
// var-dependent factors, or a Div/Mod/Max/Min/comparison/Select whose
// operands depend on a nest variable (those are affine only when they are
// nest-invariant, in which case they fold into Base). Float-typed nodes
// (FloatImm, Load, Call, ChannelRead) are never valid index expressions and
// always fail.
func Linearize(e Expr, vars []*Var) (LinearExpr, bool) {
	switch x := e.(type) {
	case *IntImm:
		return invariantLin(x, vars), true
	case *Var:
		for i, v := range vars {
			if v == x {
				l := invariantLin(CInt(0), vars)
				l.Coeffs[i] = CInt(1)
				return l, true
			}
		}
		return invariantLin(x, vars), true
	case *Binary:
		switch x.Op {
		case Add, Sub:
			a, ok := Linearize(x.A, vars)
			if !ok {
				return LinearExpr{}, false
			}
			b, ok := Linearize(x.B, vars)
			if !ok {
				return LinearExpr{}, false
			}
			out := LinearExpr{Coeffs: make([]Expr, len(vars))}
			for i := range vars {
				if x.Op == Add {
					out.Coeffs[i] = AddE(a.Coeffs[i], b.Coeffs[i])
				} else {
					out.Coeffs[i] = SubE(a.Coeffs[i], b.Coeffs[i])
				}
			}
			if x.Op == Add {
				out.Base = AddE(a.Base, b.Base)
			} else {
				out.Base = SubE(a.Base, b.Base)
			}
			return out, true
		case Mul:
			aUses := UsesAnyVar(x.A, vars)
			bUses := UsesAnyVar(x.B, vars)
			if aUses && bUses {
				return LinearExpr{}, false // quadratic in the nest
			}
			lin, k := x.A, Expr(nil)
			if aUses {
				k = x.B
			} else {
				k, lin = x.A, x.B
			}
			l, ok := Linearize(lin, vars)
			if !ok {
				return LinearExpr{}, false
			}
			out := LinearExpr{Coeffs: make([]Expr, len(vars)), Base: MulE(k, l.Base)}
			for i := range vars {
				out.Coeffs[i] = MulE(k, l.Coeffs[i])
			}
			return out, true
		}
		// Div/Mod/Max/Min and comparisons are non-affine over the nest;
		// nest-invariant instances fold into the base untouched.
		if UsesAnyVar(e, vars) {
			return LinearExpr{}, false
		}
		return invariantLin(e, vars), true
	case *Select:
		if UsesAnyVar(e, vars) {
			return LinearExpr{}, false
		}
		return invariantLin(e, vars), true
	}
	return LinearExpr{}, false
}

func invariantLin(base Expr, vars []*Var) LinearExpr {
	cs := make([]Expr, len(vars))
	for i := range cs {
		cs[i] = CInt(0)
	}
	return LinearExpr{Coeffs: cs, Base: base}
}

// AccessPattern is the affine decomposition of one multi-dimensional buffer
// access: Index[d] = Dims[d].Base + Σ Dims[d].Coeffs[i]·vars[i]. The sim's
// nest lowerings flatten it into base/stride pairs after evaluating the
// (possibly symbolic) buffer shape at run time; aoc flattens constant
// coefficients through the buffer's constant extents at compile time.
type AccessPattern struct {
	Buf  *Buffer
	Dims []LinearExpr
}

// LinearizeAccess decomposes every dimension of a buffer access.
func LinearizeAccess(buf *Buffer, index []Expr, vars []*Var) (AccessPattern, bool) {
	ap := AccessPattern{Buf: buf, Dims: make([]LinearExpr, len(index))}
	for d, ix := range index {
		l, ok := Linearize(ix, vars)
		if !ok {
			return AccessPattern{}, false
		}
		ap.Dims[d] = l
	}
	return ap, true
}

// ---------------------------------------------------------------------------
// Whole-nest recognition.
//
// The per-access analysis above sees index arithmetic, not the structure of
// a whole reduction nest: the folded pointwise layers are literally
// C[m,n] += A[m,k]·B[k,n] after im2col, and a depthwise or pooling nest is
// one strided window folded per output point.
// TVM's CPU schedules win exactly by lowering a recognized operator nest onto
// one tight kernel. MatchGemmNest recognizes the *shape* of such a nest — a
// perfect outer loop chain around an {init, reduce, write-back} triple over a
// private accumulator tile — purely structurally, and marks the nests whose
// product is matmul-shaped. The stride-level classification (which loop is m,
// which is k, which levels are window taps, whether an operand is a zero-copy
// matrix or needs an im2col gather) happens in the sim at run time, where
// symbolic extents and buffer bindings are known (internal/sim/gemm.go,
// internal/sim/window.go).

// GemmAct identifies the elementwise epilogue fused into a recognized nest's
// write-back: the activation applied after the accumulator + post-adds.
type GemmAct int

const (
	GemmActNone  GemmAct = iota
	GemmActRelu          // max(x, 0)
	GemmActRelu6         // min(max(x, 0), 6)
)

// GemmPart is one phase of a recognized nest: a perfect loop chain (possibly
// empty, for dense write-backs) around exactly one Store.
type GemmPart struct {
	Vars    []*Var
	Extents []Expr
	Store   *Store
}

// GemmNest is a whole reduction nest recognized in tile form:
//
//	for outer...:                  # OuterVars (tile coordinates)
//	  init:  for iv...: T[e] = c          # c nest-invariant
//	  red:   for rv...: T[e] = T[e] ⊕ rhs
//	  write: for wv...: D[·] = act(T[e] (·c) (+ chain...))
//
// with T's index identical (structurally, and over the same variables) in all
// three phases. ⊕ is Add with rhs LoadA·LoadB or the single load LoadA, or
// MaxOp/MinOp with the single load LoadA (LoadB is then nil). T is read only
// as the accumulator: no rhs or chain load reads it. LoadA/LoadB keep the
// scalar operand order of the product — the sim tries both (A,B) assignments,
// since which operand is the weight matrix and which the patch matrix is a
// stride property, not a syntactic one. Scale, when set, is the float
// literal c the accumulator is multiplied by before the chain adds (average
// pooling's 1/F²). Chain holds the write-back's post-accumulator adds (bias,
// residual skip) in scalar evaluation order.
//
// Matmul marks the nests the GEMM executor can take: an Add of LoadA·LoadB in
// which no outer or tile variable (a reduction-part variable of T's index)
// indexes both operands. A depthwise convolution is not matmul-shaped — its
// channel variable drives the input and the weights — and neither is any
// max/min or single-load reduction.
type GemmNest struct {
	OuterVars    []*Var
	OuterExtents []Expr

	Init, Red, Write GemmPart

	T, D         *Buffer
	Op           BinOp // Add, MaxOp or MinOp
	LoadA, LoadB *Load
	TLoad        *Load
	Scale        *FloatImm
	Chain        []*Load
	Act          GemmAct
	Matmul       bool
}

// MatchGemmNest reports whether f is a whole tile-shaped reduction nest.
// Returns nil when the shape does not match; everything the sim still has to
// verify at run time (stride classification, extent values, aliasing, bounds)
// is deliberately NOT checked here.
func MatchGemmNest(f *For) *GemmNest {
	g := &GemmNest{}
	// Perfect outer chain down to the {init, red, write} triple.
	var s Stmt = f
	var blk *Block
outer:
	for {
		switch x := s.(type) {
		case *For:
			g.OuterVars = append(g.OuterVars, x.Var)
			g.OuterExtents = append(g.OuterExtents, x.Extent)
			s = x.Body
		case *Block:
			switch len(x.Stmts) {
			case 1:
				s = x.Stmts[0]
			case 3:
				blk = x
				break outer
			default:
				return nil
			}
		default:
			return nil
		}
	}
	if !collectGemmPart(blk.Stmts[0], &g.Init) ||
		!collectGemmPart(blk.Stmts[1], &g.Red) ||
		!collectGemmPart(blk.Stmts[2], &g.Write) {
		return nil
	}

	g.T = g.Red.Store.Buf
	g.D = g.Write.Store.Buf
	if g.T == g.D {
		return nil
	}

	// Reduction body: T[e] = T[e] ⊕ rhs, with the accumulator re-load on the
	// left (ascending order starts from the running value).
	red, ok := g.Red.Store.Value.(*Binary)
	if !ok || (red.Op != Add && red.Op != MaxOp && red.Op != MinOp) {
		return nil
	}
	g.Op = red.Op
	accLd, ok := red.A.(*Load)
	if !ok || accLd.Buf != g.T || !indexEq(accLd.Index, g.Red.Store.Index) {
		return nil
	}
	switch rhs := red.B.(type) {
	case *Load:
		g.LoadA = rhs
	case *Binary:
		if rhs.Op != Mul || g.Op != Add {
			return nil
		}
		if g.LoadA, ok = rhs.A.(*Load); !ok {
			return nil
		}
		if g.LoadB, ok = rhs.B.(*Load); !ok {
			return nil
		}
	default:
		return nil
	}

	// Init: same tile slot walk, nest-invariant value.
	if g.Init.Store.Buf != g.T || !indexEq(g.Init.Store.Index, g.Red.Store.Index) {
		return nil
	}

	// Write-back: D[·] = act(T[e] + chain loads), left-associated, with the
	// accumulator, optionally times a float literal, as the leftmost
	// (first-evaluated) term.
	val, act := stripGemmAct(g.Write.Store.Value)
	g.Act = act
	for {
		a, ok := val.(*Binary)
		if !ok || a.Op != Add {
			break
		}
		ld, ok := a.B.(*Load)
		if !ok {
			return nil
		}
		g.Chain = append(g.Chain, ld)
		val = a.A
	}
	for i, j := 0, len(g.Chain)-1; i < j; i, j = i+1, j-1 {
		g.Chain[i], g.Chain[j] = g.Chain[j], g.Chain[i]
	}
	if m, ok := val.(*Binary); ok && m.Op == Mul {
		if c, ok := m.B.(*FloatImm); ok {
			g.Scale, val = c, m.A
		}
	}
	tl, ok := val.(*Load)
	if !ok || tl.Buf != g.T || !indexEq(tl.Index, g.Red.Store.Index) {
		return nil
	}
	g.TLoad = tl
	for _, ld := range append([]*Load{g.LoadA, g.LoadB}, g.Chain...) {
		if ld != nil && ld.Buf == g.T {
			return nil
		}
	}

	if !gemmScopesOK(f, g) {
		return nil
	}
	g.Matmul = g.Op == Add && g.LoadB != nil && !sharedOperandVar(g)
	return g
}

// sharedOperandVar reports whether an outer or tile variable appears in the
// indices of both product operands — a loop that drives A and B together, as
// the channel of a depthwise convolution does, so no (m, n, k) split exists.
func sharedOperandVar(g *GemmNest) bool {
	uses := func(idx []Expr, v *Var) bool {
		for _, ix := range idx {
			if UsesAnyVar(ix, []*Var{v}) {
				return true
			}
		}
		return false
	}
	both := func(v *Var) bool { return uses(g.LoadA.Index, v) && uses(g.LoadB.Index, v) }
	for _, v := range g.OuterVars {
		if both(v) {
			return true
		}
	}
	for _, v := range g.Red.Vars {
		if uses(g.Red.Store.Index, v) && both(v) {
			return true
		}
	}
	return false
}

// collectGemmPart walks a perfect loop chain (single-statement bodies) down
// to one Store. Anything else — a multi-statement block, an If, an Alloc, a
// channel write — fails the match.
func collectGemmPart(s Stmt, p *GemmPart) bool {
	for {
		switch x := s.(type) {
		case *For:
			p.Vars = append(p.Vars, x.Var)
			p.Extents = append(p.Extents, x.Extent)
			s = x.Body
		case *Block:
			if len(x.Stmts) != 1 {
				return false
			}
			s = x.Stmts[0]
		case *Store:
			p.Store = x
			return true
		default:
			return false
		}
	}
}

// stripGemmAct peels a recognized activation wrapper off a write-back value.
// Both the Binary (MaxE/MinE) and Call ("max"/"min") spellings are accepted;
// the constant must be the literal the scalar engines would see.
func stripGemmAct(e Expr) (Expr, GemmAct) {
	if x, c, ok := gemmMinMax(e, MinOp, "min"); ok && c == 6 {
		if y, c2, ok := gemmMinMax(x, MaxOp, "max"); ok && c2 == 0 {
			return y, GemmActRelu6
		}
		return e, GemmActNone
	}
	if x, c, ok := gemmMinMax(e, MaxOp, "max"); ok && c == 0 {
		return x, GemmActRelu
	}
	return e, GemmActNone
}

// gemmMinMax matches op(x, const) in either Binary or Call spelling.
func gemmMinMax(e Expr, op BinOp, fn string) (Expr, float64, bool) {
	var a, b Expr
	switch x := e.(type) {
	case *Binary:
		if x.Op != op {
			return nil, 0, false
		}
		a, b = x.A, x.B
	case *Call:
		if x.Fn != fn || len(x.Args) != 2 {
			return nil, 0, false
		}
		a, b = x.Args[0], x.Args[1]
	default:
		return nil, 0, false
	}
	switch c := b.(type) {
	case *FloatImm:
		return a, c.Value, true
	case *IntImm:
		return a, float64(c.Value), true
	}
	return nil, 0, false
}

// gemmScopesOK enforces the variable-scope discipline that lets the sim
// evaluate each phase independently: extents are nest-invariant (boxes), no
// channel reads anywhere, every phase only references its own loop variables
// (plus the outer ones and anything bound outside the nest), the init value
// is invariant, and the init chain covers exactly the tile-index variables of
// the reduction scope.
func gemmScopesOK(f *For, g *GemmNest) bool {
	all := map[*Var]bool{}
	WalkStmt(f, func(s Stmt) {
		if l, ok := s.(*For); ok {
			all[l.Var] = true
		}
	})

	bad := false
	WalkExprs(f, func(x Expr) {
		if _, ok := x.(*ChannelRead); ok {
			bad = true
		}
	})
	WalkStmt(f, func(s Stmt) {
		if l, ok := s.(*For); ok && usesVarFromSet(l.Extent, all) {
			bad = true
		}
	})
	if bad {
		return false
	}

	if !gemmVarsDistinct(g.OuterVars, g.Init.Vars) ||
		!gemmVarsDistinct(g.OuterVars, g.Red.Vars) ||
		!gemmVarsDistinct(g.OuterVars, g.Write.Vars) {
		return false
	}

	scoped := func(p *GemmPart) bool {
		scope := gemmVarSet(g.OuterVars, p.Vars)
		ok := true
		check := func(e Expr) {
			WalkExpr(e, func(x Expr) {
				if v, isVar := x.(*Var); isVar && all[v] && !scope[v] {
					ok = false
				}
			})
		}
		for _, ix := range p.Store.Index {
			check(ix)
		}
		check(p.Store.Value)
		return ok
	}
	if !scoped(&g.Init) || !scoped(&g.Red) || !scoped(&g.Write) {
		return false
	}

	// Init value: no loads (the sim fills the tile with one float), no
	// dependence on any nest variable.
	inv := true
	WalkExpr(g.Init.Store.Value, func(x Expr) {
		switch v := x.(type) {
		case *Load:
			inv = false
		case *Var:
			if all[v] {
				inv = false
			}
		}
	})
	if !inv {
		return false
	}

	// The init loops must enumerate exactly the reduction-scope variables
	// that appear in the tile index — same slots touched, extent values
	// checked at run time.
	need := map[*Var]bool{}
	redVars := gemmVarSet(nil, g.Red.Vars)
	for _, ix := range g.Red.Store.Index {
		WalkExpr(ix, func(x Expr) {
			if v, ok := x.(*Var); ok && redVars[v] {
				need[v] = true
			}
		})
	}
	if len(need) != len(g.Init.Vars) {
		return false
	}
	for _, v := range g.Init.Vars {
		if !need[v] {
			return false
		}
	}
	return true
}

func usesVarFromSet(e Expr, set map[*Var]bool) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*Var); ok && set[v] {
			found = true
		}
	})
	return found
}

func gemmVarSet(a, b []*Var) map[*Var]bool {
	m := make(map[*Var]bool, len(a)+len(b))
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		m[v] = true
	}
	return m
}

func gemmVarsDistinct(lists ...[]*Var) bool {
	seen := map[*Var]bool{}
	for _, l := range lists {
		for _, v := range l {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// ExprEq reports structural equality of two expressions, with pointer
// identity for variables, buffers and channels. Stricter than comparing
// String() forms: two distinct loop variables may share a name.
func ExprEq(a, b Expr) bool {
	switch x := a.(type) {
	case *IntImm:
		y, ok := b.(*IntImm)
		return ok && x.Value == y.Value
	case *FloatImm:
		y, ok := b.(*FloatImm)
		return ok && x.Value == y.Value
	case *Var:
		return a == b
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && ExprEq(x.A, y.A) && ExprEq(x.B, y.B)
	case *Load:
		y, ok := b.(*Load)
		return ok && x.Buf == y.Buf && indexEq(x.Index, y.Index)
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !ExprEq(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Select:
		y, ok := b.(*Select)
		return ok && ExprEq(x.Cond, y.Cond) && ExprEq(x.A, y.A) && ExprEq(x.B, y.B)
	case *ChannelRead:
		y, ok := b.(*ChannelRead)
		return ok && x.Ch == y.Ch
	}
	return false
}

// indexEq is ExprEq over index vectors.
func indexEq(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ExprEq(a[i], b[i]) {
			return false
		}
	}
	return true
}
