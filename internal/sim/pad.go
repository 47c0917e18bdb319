package sim

// Row lowering for TVM's pad kernel. The thesis keeps the pad kernel TVM
// emits (§6.3.2): one flattened loop that recovers (c, y, x) with div/mod
// and selects between the input and a constant,
//
//	for i in [0, n):
//	  out[i/D, (i%D)/W, (i%D)%W] =
//	    select(y >= a && y < b && x >= c && x < d,
//	           in[i/D, y-ky, x-kx], fill)
//
// with y, x the second and third index pieces and every bound and shift
// nest-invariant. The affine pass cannot see through div/mod, so neither
// the whole-nest match nor the copy lowering (copy.go) takes this nest;
// padLoop recognizes it structurally (topi.Pad2D and topi.PadParam both
// emit it) and, when the evaluated n, D and W tile exactly (D > 0, W > 0,
// D % W == 0, n % D == 0), runs it as C = n/D planes of H = D/W rows, each
// row [fill | copy(input row) | fill] over the interior box clamped to
// [0,H) × [0,W). The modeled clock still prices the div/mod form; only the
// wall clock changes.
//
// Every bound is checked before the first write: C, H and W against the
// output's dims and slice, the interior box against the input's. A shape
// that does not tile, a check that fails, an unbound buffer or an input that
// overlaps the output replays the scalar twin (ExecStats.GuardBailouts), so
// panics and partial writes are the scalar closures' exactly. The row copy
// moves bits, so NaN payloads and −0 survive as they do through the scalar
// loads and stores.

import (
	"math"

	"repro/internal/ir"
)

// padLoop is a compiled pad nest. It keeps no run-time scratch: one entry
// evaluates a handful of invariants and walks the rows.
type padLoop struct {
	extent, plane, width intFn
	out, in              *ir.Buffer
	outSlot, inSlot      int
	outDims, inDims      [3]intFn
	box                  [4][]intFn // y ≥, y <, x ≥, x < bounds
	ky, kx               intFn
	fill                 float32
	scalar               stmtFn // closure-tier replay for guard failures
}

// padGeom is one nest entry's evaluated geometry: C planes of H rows of W
// elements, the interior box [y0,y1) × [x0,x1) (empty when y0 == y1), and
// the row strides of both buffers.
type padGeom struct {
	c, h, w        int64
	y0, y1, x0, x1 int64
	ky, kx         int64
	od1, od2       int64
	id1, id2       int64
	out, in        []float32
}

// padLoop tries to lower f as a pad nest; nil means "not this form".
func (c *compiler) padLoop(f *ir.For) stmtFn {
	vars, _, st := collectNest(f)
	if len(vars) != 1 || len(st.Index) != 3 || len(st.Buf.Shape) != 3 {
		return nil
	}
	i := f.Var
	inv := func(e ir.Expr) bool { return !ir.UsesVar(e, i) && panicFree(e) }

	// Store index [i/D, (i%D)/W, (i%D)%W].
	ch := binOf(st.Index[0], ir.Div)
	y := binOf(st.Index[1], ir.Div)
	x := binOf(st.Index[2], ir.Mod)
	if ch == nil || y == nil || x == nil || ch.A != ir.Expr(i) || !inv(ch.B) ||
		!inv(y.B) || !ir.ExprEq(x.A, y.A) || !ir.ExprEq(x.B, y.B) {
		return nil
	}
	if rem := binOf(y.A, ir.Mod); rem == nil || rem.A != ir.Expr(i) || !ir.ExprEq(rem.B, ch.B) {
		return nil
	}

	// Value select(box, in[i/D, y-ky, x-kx], fill).
	sel, ok := st.Value.(*ir.Select)
	if !ok {
		return nil
	}
	ld, ok := sel.A.(*ir.Load)
	fill, isImm := sel.B.(*ir.FloatImm)
	if !ok || !isImm || len(ld.Index) != 3 || len(ld.Buf.Shape) != 3 || !ir.ExprEq(ld.Index[0], ch) {
		return nil
	}
	sy, sx := binOf(ld.Index[1], ir.Sub), binOf(ld.Index[2], ir.Sub)
	if sy == nil || sx == nil || !ir.ExprEq(sy.A, y) || !ir.ExprEq(sx.A, x) || !inv(sy.B) || !inv(sx.B) {
		return nil
	}
	// The box: a conjunction of y ≥, y <, x ≥ and x < invariant bounds.
	var box [4][]ir.Expr
	for _, t := range conjuncts(sel.Cond, nil) {
		cmp, ok := t.(*ir.Binary)
		if !ok || (cmp.Op != ir.GE && cmp.Op != ir.LT) || !inv(cmp.B) {
			return nil
		}
		k := 0
		switch {
		case ir.ExprEq(cmp.A, y):
		case ir.ExprEq(cmp.A, x):
			k = 2
		default:
			return nil
		}
		if cmp.Op == ir.LT {
			k++
		}
		box[k] = append(box[k], cmp.B)
	}
	for _, d := range append(append([]ir.Expr{}, st.Buf.Shape...), ld.Buf.Shape...) {
		if !panicFree(d) {
			return nil
		}
	}

	pl := &padLoop{
		extent: c.intFn(f.Extent), plane: c.intFn(ch.B), width: c.intFn(y.B),
		out: st.Buf, in: ld.Buf, outSlot: c.bufSlot(st.Buf), inSlot: c.bufSlot(ld.Buf),
		ky: c.intFn(sy.B), kx: c.intFn(sx.B), fill: float32(fill.Value),
	}
	for k, bounds := range box {
		for _, b := range bounds {
			pl.box[k] = append(pl.box[k], c.intFn(b))
		}
	}
	for d := 0; d < 3; d++ {
		pl.outDims[d] = c.intFn(st.Buf.Shape[d])
		pl.inDims[d] = c.intFn(ld.Buf.Shape[d])
	}

	pl.scalar = c.twin(f)
	return pl.run
}

func binOf(e ir.Expr, op ir.BinOp) *ir.Binary {
	if b, ok := e.(*ir.Binary); ok && b.Op == op {
		return b
	}
	return nil
}

// conjuncts flattens an && tree into its terms.
func conjuncts(e ir.Expr, terms []ir.Expr) []ir.Expr {
	if b := binOf(e, ir.And); b != nil {
		return conjuncts(b.B, conjuncts(b.A, terms))
	}
	return append(terms, e)
}

// panicFree reports whether evaluating the integer expression e can never
// panic: every Div and Mod divides by a nonzero literal. Hoisting such an
// expression ahead of the nest cannot move a panic past a scalar write.
func panicFree(e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(x ir.Expr) {
		if b, isBin := x.(*ir.Binary); isBin && (b.Op == ir.Div || b.Op == ir.Mod) {
			if k, isConst := ir.IsConst(b.B); !isConst || k == 0 {
				ok = false
			}
		}
	})
	return ok
}

// lookup is bufferRef's non-panicking form: it resolves b into slot s and
// returns nil when b is unbound.
func (e *cenv) lookup(s int, b *ir.Buffer) []float32 {
	data := e.bufs[s]
	if data == nil {
		data = e.m.bufs[b]
		e.bufs[s] = data
	}
	return data
}

// run executes one entry of the pad nest.
func (pl *padLoop) run(e *cenv) {
	n := pl.extent(e)
	if n <= 0 {
		return
	}
	g, ok := pl.geom(e, n)
	st := e.m.stats
	if !ok {
		if st != nil {
			st.GuardBailouts.Add(1)
		}
		pl.scalar(e)
		return
	}
	if st != nil {
		st.VectorRuns.Add(1)
	}
	for ci := int64(0); ci < g.c; ci++ {
		for yi := int64(0); yi < g.h; yi++ {
			o := (ci*g.od1 + yi) * g.od2
			row := g.out[o : o+g.w]
			if yi < g.y0 || yi >= g.y1 {
				fillRow(row, pl.fill)
				continue
			}
			s := (ci*g.id1+yi-g.ky)*g.id2 + g.x0 - g.kx
			fillRow(row[:g.x0], pl.fill)
			copy(row[g.x0:g.x1], g.in[s:s+g.x1-g.x0])
			fillRow(row[g.x1:], pl.fill)
		}
	}
}

// geom evaluates the entry's geometry and performs every check the scalar
// nest could fail; false means "replay the twin".
func (pl *padLoop) geom(e *cenv, n int64) (padGeom, bool) {
	var g padGeom
	d, w := pl.plane(e), pl.width(e)
	if d <= 0 || w <= 0 || d%w != 0 || n%d != 0 {
		return g, false
	}
	g.c, g.h, g.w = n/d, d/w, w
	g.od1, g.od2 = pl.outDims[1](e), pl.outDims[2](e)
	if g.c > pl.outDims[0](e) || g.h > g.od1 || g.w > g.od2 {
		return g, false
	}
	g.out = e.lookup(pl.outSlot, pl.out)
	if ((g.c-1)*g.od1+g.h-1)*g.od2+g.w-1 >= int64(len(g.out)) {
		return g, false
	}
	g.y0, g.y1 = clampBox(e, pl.box[0], pl.box[1], g.h)
	g.x0, g.x1 = clampBox(e, pl.box[2], pl.box[3], g.w)
	if g.y0 >= g.y1 || g.x0 >= g.x1 {
		// Empty interior: every element is fill and the scalar nest never
		// touches the input, so neither does this one.
		g.y0, g.y1 = 0, 0
		return g, true
	}
	g.ky, g.kx = pl.ky(e), pl.kx(e)
	g.id1, g.id2 = pl.inDims[1](e), pl.inDims[2](e)
	if g.c > pl.inDims[0](e) || g.y0-g.ky < 0 || g.y1-1-g.ky >= g.id1 ||
		g.x0-g.kx < 0 || g.x1-1-g.kx >= g.id2 {
		return g, false
	}
	g.in = e.lookup(pl.inSlot, pl.in)
	if ((g.c-1)*g.id1+g.y1-1-g.ky)*g.id2+g.x1-1-g.kx >= int64(len(g.in)) || overlaps(g.out, g.in) {
		return g, false
	}
	return g, true
}

// clampBox intersects [max lo, min hi) with [0, n).
func clampBox(e *cenv, lo, hi []intFn, n int64) (int64, int64) {
	a, b := int64(0), n
	for _, fn := range lo {
		a = maxI(a, fn(e))
	}
	for _, fn := range hi {
		b = minI(b, fn(e))
	}
	return a, b
}

// fillRow sets every element of s to v. Only a +0 fill may use clear: −0
// has a sign bit to keep.
func fillRow(s []float32, v float32) {
	if math.Float32bits(v) == 0 {
		clear(s)
		return
	}
	for i := range s {
		s[i] = v
	}
}
