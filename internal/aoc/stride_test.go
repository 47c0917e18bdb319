package aoc

// The LSU stride rule (flatCoef) reads each subscript's coefficient from
// ir.LinearizeAccess. Before it did, aoc had its own coefficient extractor;
// that rule is kept here, unchanged, as the oracle the port is checked
// against: exactly on every kernel the repo builds (sweep_test.go), and on
// generated subscripts below, where the two differ only in the three ways
// TestStrideRuleMatchesOracleOnGeneratedSubscripts names.

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// oracleFlatCoef is flatCoef with the old per-dimension coefficient rule.
func oracleFlatCoef(buf *ir.Buffer, idx []ir.Expr, v *ir.Var) (int64, bool) {
	total := int64(0)
	stride := int64(1)
	strideKnown := true
	for d := len(idx) - 1; d >= 0; d-- {
		c, ok := linCoef(idx[d], v)
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

// linCoef extracts the linear coefficient of v in e; ok=false when e is not
// affine in v.
func linCoef(e ir.Expr, v *ir.Var) (int64, bool) {
	switch x := e.(type) {
	case *ir.IntImm, *ir.FloatImm:
		return 0, true
	case *ir.Var:
		if x == v {
			return 1, true
		}
		return 0, true
	case *ir.Binary:
		a, aok := linCoef(x.A, v)
		b, bok := linCoef(x.B, v)
		switch x.Op {
		case ir.Add:
			if aok && bok {
				return a + b, true
			}
		case ir.Sub:
			if aok && bok {
				return a - b, true
			}
		case ir.Mul:
			ca, isA := ir.IsConst(x.A)
			cb, isB := ir.IsConst(x.B)
			if isA && bok {
				return ca * b, true
			}
			if isB && aok {
				return a * cb, true
			}
			if aok && bok && a == 0 && b == 0 {
				return 0, true
			}
		case ir.Div, ir.Mod:
			if aok && bok && a == 0 && b == 0 {
				return 0, true
			}
		}
		return 0, false
	default:
		// Loads/calls/selects in address math: affine only if v-free.
		if !ir.UsesVar(e, v) {
			return 0, true
		}
		return 0, false
	}
}

// linearCoef is the per-dimension half of flatCoef: v's coefficient in e by
// ir.Linearize, known only when it is a constant.
func linearCoef(e ir.Expr, v *ir.Var) (int64, bool) {
	l, ok := ir.Linearize(e, []*ir.Var{v})
	if !ok {
		return 0, false
	}
	return ir.IsConst(l.Coeffs[0])
}

// genSubscript draws a random integer subscript over the loop variable v,
// another loop variable u and a symbolic parameter n: mostly affine
// arithmetic, plus Div, Mod, Max/Min, Select, a load inside the address and
// an intrinsic call.
func genSubscript(rng *rand.Rand, depth int, v, u, n *ir.Var, table *ir.Buffer) ir.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0, 1:
			return v
		case 2:
			return u
		case 3:
			return n
		default:
			return ir.CInt(int64(rng.Intn(7) - 2))
		}
	}
	sub := func() ir.Expr { return genSubscript(rng, depth-1, v, u, n, table) }
	a, b := sub(), sub()
	switch op := rng.Intn(16); {
	case op < 4:
		return &ir.Binary{Op: ir.Add, A: a, B: b}
	case op < 6:
		return &ir.Binary{Op: ir.Sub, A: a, B: b}
	case op < 8:
		if rng.Intn(2) == 0 {
			a = ir.CInt(int64(rng.Intn(5) + 1))
		}
		return &ir.Binary{Op: ir.Mul, A: a, B: b}
	case op == 8:
		return &ir.Binary{Op: ir.Div, A: a, B: ir.CInt(int64(rng.Intn(3) + 2))}
	case op == 9:
		return &ir.Binary{Op: ir.Mod, A: a, B: n}
	case op == 10:
		return &ir.Binary{Op: ir.MaxOp, A: a, B: b}
	case op == 11:
		return &ir.Binary{Op: ir.MinOp, A: a, B: b}
	case op == 12:
		return &ir.Select{Cond: &ir.Binary{Op: ir.LT, A: a, B: b}, A: a, B: sub()}
	case op == 13:
		return &ir.Load{Buf: table, Index: []ir.Expr{a}}
	case op == 14:
		return &ir.Call{Fn: "abs", Args: []ir.Expr{a}}
	}
	return &ir.Binary{Op: ir.Add, A: a, B: ir.CInt(int64(rng.Intn(5)))}
}

// The three ways the two rules may differ on a subscript, each with one
// direction. freeMinMax: a v-free Max/Min, which the old rule never
// linearized, is invariant to Linearize (the new rule is more precise).
// loadOrCall: a load or call in the address, which the old rule took as
// invariant when v-free, is never an index expression to Linearize (the new
// rule is unknown). cancelled: a Div, Mod or product whose operands name v
// but whose v-terms cancel, e.g. (i-i)/2, where the old rule saw coefficient
// 0 and Linearize rejects the syntactic dependence (the new rule is
// unknown).
func freeMinMax(e ir.Expr, v *ir.Var) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		if b, ok := x.(*ir.Binary); ok && (b.Op == ir.MaxOp || b.Op == ir.MinOp) && !ir.UsesVar(b, v) {
			found = true
		}
	})
	return found
}

func loadOrCall(e ir.Expr) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x.(type) {
		case *ir.Load, *ir.Call:
			found = true
		}
	})
	return found
}

func cancelled(e ir.Expr, v *ir.Var) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		b, ok := x.(*ir.Binary)
		if !ok || (b.Op != ir.Div && b.Op != ir.Mod && b.Op != ir.Mul) || !ir.UsesVar(b, v) {
			return
		}
		if c, ok := linCoef(b, v); ok && c == 0 {
			found = true
		}
	})
	return found
}

func TestStrideRuleMatchesOracleOnGeneratedSubscripts(t *testing.T) {
	v, u, n := ir.V("i"), ir.V("j"), ir.Param("n")
	table := ir.NewBuffer("table", ir.Global, 64)
	rng := rand.New(rand.NewSource(1))
	var agree, known, finer, coarserLoad, coarserCancel int
	for trial := 0; trial < 20000; trial++ {
		e := genSubscript(rng, 4, v, u, n, table)
		oc, ook := linCoef(e, v)
		nc, nok := linearCoef(e, v)
		switch {
		case ook == nok && (!ook || oc == nc):
			agree++
			if ook && oc != 0 {
				known++
			}
		case ook && nok:
			t.Fatalf("%s: coefficient %d by Linearize, %d by the oracle", e, nc, oc)
		case nok:
			if !freeMinMax(e, v) {
				t.Fatalf("%s: known (%d) by Linearize only, with no v-free max/min", e, nc)
			}
			finer++
		case loadOrCall(e):
			coarserLoad++
		case cancelled(e, v):
			coarserCancel++
		default:
			t.Fatalf("%s: known (%d) by the oracle only, with no load, call or cancelled v-term", e, oc)
		}
	}
	t.Logf("%d subscripts agree (%d with a known nonzero stride); new rule finer on %d, coarser on %d (load/call) and %d (cancelled)",
		agree, known, finer, coarserLoad, coarserCancel)
	if known < 1000 || finer == 0 || coarserLoad == 0 || coarserCancel == 0 {
		t.Fatalf("generator too narrow: %d known strides, %d/%d/%d differences", known, finer, coarserLoad, coarserCancel)
	}

	// One pinned subscript per difference, in its direction.
	for _, c := range []struct {
		e          ir.Expr
		old, new   bool
		coef       int64
		difference string
	}{
		{ir.AddE(v, ir.MaxE(n, ir.CInt(3))), false, true, 1, "v-free max"},
		{ir.AddE(v, ir.MinE(u, n)), false, true, 1, "v-free min"},
		{ir.AddE(v, &ir.Load{Buf: table, Index: []ir.Expr{u}}), true, false, 1, "v-free load"},
		{ir.AddE(v, &ir.Call{Fn: "abs", Args: []ir.Expr{u}}), true, false, 1, "v-free call"},
		{&ir.Binary{Op: ir.Div, A: &ir.Binary{Op: ir.Sub, A: v, B: v}, B: ir.CInt(2)}, true, false, 0, "cancelled v-terms"},
	} {
		oc, ook := linCoef(c.e, v)
		nc, nok := linearCoef(c.e, v)
		if ook != c.old || nok != c.new {
			t.Errorf("%s (%s): known by oracle %v, by Linearize %v; want %v, %v", c.e, c.difference, ook, nok, c.old, c.new)
		}
		if ook && oc != c.coef || nok && nc != c.coef {
			t.Errorf("%s (%s): coefficients %d/%d, want %d", c.e, c.difference, oc, nc, c.coef)
		}
	}
}

// The flattening half is unchanged: over random buffers with constant and
// symbolic extents, flatCoef and the oracle agree on every access whose
// subscripts the two per-dimension rules agree on.
func TestFlatCoefMatchesOracleOnGeneratedAccesses(t *testing.T) {
	v, u, n := ir.V("i"), ir.V("j"), ir.Param("n")
	table := ir.NewBuffer("table", ir.Global, 64)
	rng := rand.New(rand.NewSource(2))
	compared, strided := 0, 0
	for trial := 0; trial < 5000; trial++ {
		rank := rng.Intn(3) + 1
		shape := make([]ir.Expr, rank)
		idx := make([]ir.Expr, rank)
		same := true
		for d := range shape {
			shape[d] = ir.CInt(int64(rng.Intn(6) + 1))
			if rng.Intn(4) == 0 {
				shape[d] = n
			}
			idx[d] = genSubscript(rng, 3, v, u, n, table)
			oc, ook := linCoef(idx[d], v)
			nc, nok := linearCoef(idx[d], v)
			same = same && ook == nok && (!ook || oc == nc)
		}
		if !same {
			continue
		}
		buf := ir.NewBufferE("b", ir.Global, shape...)
		oc, ook := oracleFlatCoef(buf, idx, v)
		nc, nok := flatCoef(buf, idx, v)
		if ook != nok || ook && oc != nc {
			t.Fatalf("%s%v: flatCoef %d/%v, oracle %d/%v", buf.Name, idx, nc, nok, oc, ook)
		}
		compared++
		if nok && nc != 0 {
			strided++
		}
	}
	if compared < 2000 || strided < 500 {
		t.Fatalf("generator too narrow: %d accesses compared, %d with a known nonzero stride", compared, strided)
	}
}
