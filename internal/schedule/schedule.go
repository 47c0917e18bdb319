// Package schedule implements the loop-nest transformations the thesis applies
// to TVM-generated kernels (Ch. 4/5): loop splitting / strip-mining (a tile
// is two splits), unrolling (pragma annotation) and loop-invariant code
// motion. Like TVM's schedule primitives, these are *user-directed*: each
// primitive checks the structural preconditions it can (divisibility,
// invariance) and trusts the schedule author for deeper legality,
// which the interpreter-vs-reference tests then verify numerically.
package schedule

import (
	"fmt"

	"repro/internal/ir"
)

// findLoop returns the For node binding v, or nil.
func findLoop(s ir.Stmt, v *ir.Var) *ir.For {
	var found *ir.For
	ir.WalkStmt(s, func(n ir.Stmt) {
		if f, ok := n.(*ir.For); ok && f.Var == v {
			found = f
		}
	})
	return found
}

// rewrite returns a copy of s where the For binding v has been replaced by
// repl(oldLoop). Nodes outside the path to the loop are shared, not copied.
func rewrite(s ir.Stmt, v *ir.Var, repl func(*ir.For) ir.Stmt) (ir.Stmt, bool) {
	switch x := s.(type) {
	case nil:
		return nil, false
	case *ir.Block:
		for i, c := range x.Stmts {
			if nc, ok := rewrite(c, v, repl); ok {
				out := make([]ir.Stmt, len(x.Stmts))
				copy(out, x.Stmts)
				out[i] = nc
				return &ir.Block{Stmts: out}, true
			}
		}
		return x, false
	case *ir.For:
		if x.Var == v {
			return repl(x), true
		}
		if nb, ok := rewrite(x.Body, v, repl); ok {
			return &ir.For{Var: x.Var, Extent: x.Extent, Body: nb, Unroll: x.Unroll}, true
		}
		return x, false
	case *ir.IfThen:
		if nt, ok := rewrite(x.Then, v, repl); ok {
			return &ir.IfThen{Cond: x.Cond, Then: nt, Else: x.Else}, true
		}
		if ne, ok := rewrite(x.Else, v, repl); ok {
			return &ir.IfThen{Cond: x.Cond, Then: x.Then, Else: ne}, true
		}
		return x, false
	default:
		return x, false
	}
}

// split strip-mines the loop binding v by factor: `for v in [0,N)` becomes
// `for vo in [0,N/factor) { for vi in [0,factor) }` with v := vo*factor+vi.
// Following the thesis's factor-selection requirement 2 (§4.11), the extent
// must be constant and evenly divisible — no epilogue loops are generated.
// Returns the new body and the outer/inner loop variables.
func split(body ir.Stmt, v *ir.Var, factor int) (ir.Stmt, *ir.Var, *ir.Var, error) {
	if factor <= 0 {
		return nil, nil, nil, fmt.Errorf("split %s: factor %d must be positive", v.Name, factor)
	}
	loop := findLoop(body, v)
	if loop == nil {
		return nil, nil, nil, fmt.Errorf("split: loop %s not found", v.Name)
	}
	n, ok := ir.IsConst(loop.Extent)
	if !ok {
		return nil, nil, nil, fmt.Errorf("split %s: extent %s is not constant (symbolic loops cannot be strip-mined without an epilogue)", v.Name, loop.Extent)
	}
	if n%int64(factor) != 0 {
		return nil, nil, nil, fmt.Errorf("split %s: extent %d not divisible by factor %d", v.Name, n, factor)
	}
	vo := ir.V(v.Name + "o")
	vi := ir.V(v.Name + "i")
	out, _ := rewrite(body, v, func(f *ir.For) ir.Stmt {
		inner := &ir.For{Var: vi, Extent: ir.CInt(int64(factor)),
			Body: ir.SubstStmt(f.Body, v, ir.AddE(ir.MulE(vo, ir.CInt(int64(factor))), vi))}
		return &ir.For{Var: vo, Extent: ir.CInt(n / int64(factor)), Body: inner}
	})
	return out, vo, vi, nil
}

// unroll annotates the loop binding v with an unroll pragma. factor -1 means
// full unroll (#pragma unroll); factor > 1 first splits by factor and fully
// unrolls the inner loop, matching AOC's partial-unroll semantics.
func unroll(body ir.Stmt, v *ir.Var, factor int) (ir.Stmt, error) {
	loop := findLoop(body, v)
	if loop == nil {
		return nil, fmt.Errorf("unroll: loop %s not found", v.Name)
	}
	if factor == -1 {
		// AOC refuses to fully unroll loops with non-constant bounds (§4.1).
		if _, ok := ir.IsConst(loop.Extent); !ok {
			return nil, fmt.Errorf("unroll %s: cannot fully unroll non-constant extent %s", v.Name, loop.Extent)
		}
		out, _ := rewrite(body, v, func(f *ir.For) ir.Stmt {
			return &ir.For{Var: f.Var, Extent: f.Extent, Body: f.Body, Unroll: -1}
		})
		return out, nil
	}
	if factor <= 1 {
		return nil, fmt.Errorf("unroll %s: bad factor %d", v.Name, factor)
	}
	b, _, vi, err := split(body, v, factor)
	if err != nil {
		return nil, err
	}
	return unroll(b, vi, -1)
}

// HoistInvariant performs loop-invariant code motion (§4.4): statements in
// the body block of the loop binding v that do not reference v are moved in
// front of the loop. Only a leading run of invariant statements is moved, so
// ordering with later variant statements is preserved. The thesis applies
// this to the softmax schedule (Listing 5.7 → 5.8), where the hoisted
// statements are idempotent reductions into [0]-indexed scratchpads.
func HoistInvariant(body ir.Stmt, v *ir.Var) (ir.Stmt, error) {
	loop := findLoop(body, v)
	if loop == nil {
		return nil, fmt.Errorf("licm: loop %s not found", v.Name)
	}
	inner, ok := loop.Body.(*ir.Block)
	if !ok {
		return nil, fmt.Errorf("licm: loop %s body is not a block", v.Name)
	}
	var hoisted []ir.Stmt
	rest := inner.Stmts
	for len(rest) > 0 && !stmtUsesVar(rest[0], v) {
		hoisted = append(hoisted, rest[0])
		rest = rest[1:]
	}
	if len(hoisted) == 0 {
		return nil, fmt.Errorf("licm: no leading invariant statements in loop %s", v.Name)
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("licm: entire loop %s body is invariant; delete the loop instead", v.Name)
	}
	out, _ := rewrite(body, v, func(f *ir.For) ir.Stmt {
		return ir.Seq(append(append([]ir.Stmt{}, hoisted...),
			&ir.For{Var: f.Var, Extent: f.Extent, Body: ir.Seq(rest...), Unroll: f.Unroll})...)
	})
	return out, nil
}

func stmtUsesVar(s ir.Stmt, v *ir.Var) bool {
	used := false
	ir.WalkExprs(s, func(e ir.Expr) {
		if e == ir.Expr(v) {
			used = true
		}
	})
	// A nested loop shadowing v re-binds it; treat shadowed uses as not-uses.
	shadowed := false
	ir.WalkStmt(s, func(n ir.Stmt) {
		if f, ok := n.(*ir.For); ok && f.Var == v {
			shadowed = true
		}
	})
	return used && !shadowed
}
