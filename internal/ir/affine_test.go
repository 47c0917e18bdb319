package ir

import (
	"testing"
	"testing/quick"
)

// evalVars evaluates an integer expression with an arbitrary binding map.
func evalVars(t *testing.T, e Expr, binds map[*Var]int64) int64 {
	t.Helper()
	var ev func(Expr) int64
	ev = func(e Expr) int64 {
		switch v := e.(type) {
		case *IntImm:
			return v.Value
		case *Var:
			val, ok := binds[v]
			if !ok {
				t.Fatalf("unbound var %s", v.Name)
			}
			return val
		case *Binary:
			a, b := ev(v.A), ev(v.B)
			switch v.Op {
			case Add:
				return a + b
			case Sub:
				return a - b
			case Mul:
				return a * b
			case Div:
				return a / b
			case Mod:
				return a % b
			case MaxOp:
				return maxI64(a, b)
			case MinOp:
				return minI64(a, b)
			}
		case *Select:
			if ev(v.Cond) != 0 {
				return ev(v.A)
			}
			return ev(v.B)
		}
		t.Fatalf("cannot eval %T", e)
		return 0
	}
	return ev(e)
}

// checkLin asserts that the decomposition reproduces e at a few sample
// points: e(vals) == Base + Σ Coeffs[i]·vals[i].
func checkLin(t *testing.T, e Expr, vars []*Var, lin LinearExpr, outer map[*Var]int64) {
	t.Helper()
	samples := [][]int64{{0, 0, 0, 0}, {1, 0, 2, 1}, {3, 5, 1, 2}, {7, 2, 4, 3}}
	for _, vals := range samples {
		binds := map[*Var]int64{}
		for v, x := range outer {
			binds[v] = x
		}
		for i, v := range vars {
			binds[v] = vals[i]
		}
		want := evalVars(t, e, binds)
		got := evalVars(t, lin.Base, binds)
		for i := range vars {
			got += evalVars(t, lin.Coeffs[i], binds) * vals[i]
		}
		if got != want {
			t.Fatalf("decomposition of %s at %v: got %d want %d", e, vals, got, want)
		}
	}
}

// wantCoeffs requires every coefficient of lin to be the given literal.
func wantCoeffs(t *testing.T, lin LinearExpr, want ...int64) {
	t.Helper()
	if len(lin.Coeffs) != len(want) {
		t.Fatalf("coeffs = %v, want %v", lin.Coeffs, want)
	}
	for i, c := range lin.Coeffs {
		if v, ok := IsConst(c); !ok || v != want[i] {
			t.Fatalf("coeffs = %v, want %v", lin.Coeffs, want)
		}
	}
}

func TestLinearizeConvIndex(t *testing.T) {
	// The optimized conv input column: ix = S*(xxo*W2vec + xxi) + rx with
	// nest vars {xxi, rx} and outer var xxo — the exact shape the
	// whole-nest executors must crack to recognize the kvec inner product.
	xxo, xxi, rx := V("xxo"), V("xxi"), V("rx")
	ix := AddE(MulE(CInt(2), AddE(MulE(xxo, CInt(4)), xxi)), rx)
	vars := []*Var{xxi, rx}
	lin, ok := Linearize(ix, vars)
	if !ok {
		t.Fatalf("conv index not affine: %s", ix)
	}
	wantCoeffs(t, lin, 2, 1)
	if UsesAnyVar(lin.Base, vars) {
		t.Fatalf("base %s references nest vars", lin.Base)
	}
	checkLin(t, ix, vars, lin, map[*Var]int64{xxo: 3})
}

func TestLinearizeSymbolicCoeffs(t *testing.T) {
	// Parameterized folded kernels index with symbolic strides: i*w + j
	// where w is a shape parameter. The coefficient of i must stay the
	// symbolic expression, evaluable once per nest entry.
	w := Param("w")
	i, j := V("i"), V("j")
	e := AddE(MulE(i, w), j)
	lin, ok := Linearize(e, []*Var{i, j})
	if !ok {
		t.Fatalf("symbolic stride not affine: %s", e)
	}
	if _, constOK := IsConst(lin.Coeffs[0]); constOK {
		t.Fatal("coefficient of i should be symbolic, not constant")
	}
	checkLin(t, e, []*Var{i, j}, lin, map[*Var]int64{w: 9})
}

func TestLinearizeInvariantFolding(t *testing.T) {
	i := V("i")
	k := V("k")
	// Div/Mod/Select of nest-invariant operands fold into the base.
	e := AddE(i, DivE(k, CInt(2)))
	lin, ok := Linearize(e, []*Var{i})
	if !ok {
		t.Fatalf("invariant div should linearize: %s", e)
	}
	checkLin(t, e, []*Var{i}, lin, map[*Var]int64{k: 7})
	wantCoeffs(t, lin, 1)
	inv, ok := Linearize(DivE(k, CInt(2)), []*Var{i})
	if !ok {
		t.Fatal("nest-invariant expression must linearize")
	}
	wantCoeffs(t, inv, 0)
}

func TestLinearizeRejectsNonAffine(t *testing.T) {
	i, j := V("i"), V("j")
	vars := []*Var{i, j}
	bad := []Expr{
		MulE(i, j),       // quadratic
		DivE(i, CInt(2)), // division by var position
		ModE(j, CInt(3)), // modulo of a nest var
		MaxE(i, CInt(4)), // max over a nest var
		&Select{Cond: &Binary{Op: LT, A: i, B: CInt(2)}, A: i, B: j}, // var-dependent select
	}
	for _, e := range bad {
		if _, ok := Linearize(e, vars); ok {
			t.Errorf("expected non-affine: %s", e)
		}
	}
}

func TestLinearizeAccess(t *testing.T) {
	b := NewBuffer("b", Global, 8, 16)
	i, j := V("i"), V("j")
	ap, ok := LinearizeAccess(b, []Expr{AddE(i, CInt(1)), MulE(j, CInt(2))}, []*Var{i, j})
	if !ok || ap.Buf != b || len(ap.Dims) != 2 {
		t.Fatalf("access decomposition failed")
	}
	wantCoeffs(t, ap.Dims[0], 1, 0)
	wantCoeffs(t, ap.Dims[1], 0, 2)
	if _, ok := LinearizeAccess(b, []Expr{i, MulE(i, j)}, []*Var{i, j}); ok {
		t.Fatal("quadratic access must fail")
	}
}

// Property: Linearize agrees with direct evaluation on random affine trees
// over two nest vars and one invariant var.
func TestQuickLinearizeEquivalence(t *testing.T) {
	i, j, k := V("i"), V("j"), V("k")
	vars := []*Var{i, j}
	build := func(seed uint64) Expr {
		e := Expr(i)
		s := seed
		for d := 0; d < 7; d++ {
			s = s*2862933555777941757 + 3037000493
			c := int64(s%9) - 4
			switch (s >> 8) % 6 {
			case 0:
				e = AddE(e, CInt(c))
			case 1:
				e = MulE(e, CInt(c))
			case 2:
				e = AddE(e, j)
			case 3:
				e = SubE(e, MulE(j, CInt(c)))
			case 4:
				e = AddE(e, k)
			case 5:
				e = AddE(e, MulE(k, CInt(c)))
			}
		}
		return e
	}
	f := func(seed uint64, iv, jv, kv int8) bool {
		e := build(seed)
		lin, ok := Linearize(e, vars)
		if !ok {
			return false // grammar only emits affine forms
		}
		binds := map[*Var]int64{i: int64(iv), j: int64(jv), k: int64(kv)}
		want := evalVars(t, e, binds)
		got := evalVars(t, lin.Base, binds)
		got += evalVars(t, lin.Coeffs[0], binds) * int64(iv)
		got += evalVars(t, lin.Coeffs[1], binds) * int64(jv)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
