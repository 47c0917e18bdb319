package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  Expr
		want int64
	}{
		{AddE(CInt(2), CInt(3)), 5},
		{SubE(CInt(2), CInt(3)), -1},
		{MulE(CInt(4), CInt(3)), 12},
		{DivE(CInt(7), CInt(2)), 3},
		{ModE(CInt(7), CInt(2)), 1},
	}
	for _, c := range cases {
		v, ok := IsConst(c.got)
		if !ok || v != c.want {
			t.Errorf("fold %s = %v,%v want %d", c.got, v, ok, c.want)
		}
	}
}

func TestIdentityFolds(t *testing.T) {
	x := V("x")
	if AddE(x, CInt(0)) != Expr(x) {
		t.Error("x+0 should fold to x")
	}
	if MulE(x, CInt(1)) != Expr(x) {
		t.Error("x*1 should fold to x")
	}
	if MulE(CInt(1), x) != Expr(x) {
		t.Error("1*x should fold to x")
	}
	if v, ok := IsConst(MulE(x, CInt(0))); !ok || v != 0 {
		t.Error("x*0 should fold to 0")
	}
	if SubE(x, CInt(0)) != Expr(x) {
		t.Error("x-0 should fold to x")
	}
	if DivE(x, CInt(1)) != Expr(x) {
		t.Error("x/1 should fold to x")
	}
}

func TestSubstVar(t *testing.T) {
	x, y := V("x"), V("y")
	buf := NewBuffer("b", Global, 10)
	e := AddE(&Load{Buf: buf, Index: []Expr{x}}, MulE(x, y))
	r := substVar(e, x, CInt(2))
	if UsesVar(r, x) {
		t.Fatalf("substitution left x in %s", r)
	}
	if !UsesVar(r, y) {
		t.Fatal("substitution clobbered y")
	}
	// Buffer identity preserved.
	var found *Buffer
	WalkExpr(r, func(e Expr) {
		if l, ok := e.(*Load); ok {
			found = l.Buf
		}
	})
	if found != buf {
		t.Fatal("substitution changed buffer identity")
	}
}

func TestSubstVarShadowing(t *testing.T) {
	i := V("i")
	b := NewBuffer("b", Global, 10)
	inner := Loop(i, 4, &Store{Buf: b, Index: []Expr{i}, Value: CFloat(1)})
	out := SubstStmt(inner, i, CInt(9))
	// The loop re-binds i, so the body index must still be the loop var.
	f := out.(*For)
	st := f.Body.(*Store)
	if st.Index[0] != Expr(i) {
		t.Fatalf("shadowed loop var was substituted: %s", st.Index[0])
	}
}

func TestKernelValidateOK(t *testing.T) {
	in := NewBuffer("in", Global, 8)
	out := NewBuffer("out", Global, 8)
	i := V("i")
	k := &Kernel{
		Name: "copy",
		Args: []*Buffer{in, out},
		Body: Loop(i, 8, &Store{Buf: out, Index: []Expr{i}, Value: &Load{Buf: in, Index: []Expr{i}}}),
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelValidateUnboundVar(t *testing.T) {
	out := NewBuffer("out", Global, 8)
	j := V("j")
	k := &Kernel{
		Name: "bad",
		Args: []*Buffer{out},
		Body: &Store{Buf: out, Index: []Expr{j}, Value: CFloat(0)},
	}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("want unbound-variable error, got %v", err)
	}
}

func TestKernelValidateUnknownBuffer(t *testing.T) {
	out := NewBuffer("out", Global, 8)
	ghost := NewBuffer("ghost", Global, 8)
	i := V("i")
	k := &Kernel{
		Name: "bad",
		Args: []*Buffer{out},
		Body: Loop(i, 8, &Store{Buf: out, Index: []Expr{i}, Value: &Load{Buf: ghost, Index: []Expr{i}}}),
	}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "unknown buffer") {
		t.Fatalf("want unknown-buffer error, got %v", err)
	}
}

func TestKernelValidateRankMismatch(t *testing.T) {
	out := NewBuffer("out", Global, 4, 4)
	i := V("i")
	k := &Kernel{
		Name: "bad",
		Args: []*Buffer{out},
		Body: Loop(i, 4, &Store{Buf: out, Index: []Expr{i}, Value: CFloat(0)}),
	}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("want rank error, got %v", err)
	}
}

func TestKernelValidateAutorunNoArgs(t *testing.T) {
	b := NewBuffer("b", Global, 4)
	k := &Kernel{Name: "auto", Args: []*Buffer{b}, Autorun: true, Body: Seq()}
	if err := k.Validate(); err == nil {
		t.Fatal("autorun kernel with global args must be invalid")
	}
}

func TestKernelValidateScalarArgs(t *testing.T) {
	n := Param("n")
	out := NewBufferE("out", Global, n)
	i := V("i")
	k := &Kernel{
		Name:       "fill",
		Args:       []*Buffer{out},
		ScalarArgs: []*Var{n},
		Body:       LoopE(i, n, &Store{Buf: out, Index: []Expr{i}, Value: CFloat(1)}),
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelsDiscovery(t *testing.T) {
	c0 := &Channel{Name: "c0"}
	c1 := &Channel{Name: "c1", Depth: 8}
	i := V("i")
	k := &Kernel{
		Name: "mid",
		Body: Loop(i, 8, &ChannelWrite{Ch: c1, Value: MulE(&ChannelRead{Ch: c0}, CFloat(0.35))}),
	}
	r, w := k.Channels()
	if len(r) != 1 || r[0] != c0 || len(w) != 1 || w[0] != c1 {
		t.Fatalf("channels: reads=%v writes=%v", r, w)
	}
}

func TestSeqFlattens(t *testing.T) {
	a := &Store{Buf: NewBuffer("a", Local, 1), Index: []Expr{CInt(0)}, Value: CFloat(0)}
	s := Seq(Seq(a, a), a)
	b, ok := s.(*Block)
	if !ok || len(b.Stmts) != 3 {
		t.Fatalf("Seq did not flatten: %T", s)
	}
	if Seq(a) != Stmt(a) {
		t.Fatal("singleton Seq should return the statement itself")
	}
}

func TestBufferConstLen(t *testing.T) {
	b := NewBuffer("b", Global, 3, 4)
	if n, ok := b.ConstLen(); !ok || n != 12 {
		t.Fatalf("ConstLen = %d,%v", n, ok)
	}
	s := NewBufferE("s", Global, Param("n"), CInt(4))
	if _, ok := s.ConstLen(); ok {
		t.Fatal("symbolic buffer must not have const len")
	}
}

func TestDumpRendersLoops(t *testing.T) {
	i := V("i")
	b := NewBuffer("b", Global, 8)
	f := Loop(i, 8, &Store{Buf: b, Index: []Expr{i}, Value: CFloat(1)})
	f.Unroll = 4
	out := Dump(f)
	if !strings.Contains(out, "#unroll(4)") || !strings.Contains(out, "for i in [0,8)") {
		t.Fatalf("dump missing pieces:\n%s", out)
	}
}

// Property: constant folding of Add/Mul agrees with int64 arithmetic.
func TestQuickFoldMatchesArithmetic(t *testing.T) {
	f := func(a, b int32) bool {
		s, ok1 := IsConst(AddE(CInt(int64(a)), CInt(int64(b))))
		p, ok2 := IsConst(MulE(CInt(int64(a)), CInt(int64(b))))
		return ok1 && ok2 && s == int64(a)+int64(b) && p == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: substVar(e, x, x) is structurally identity w.r.t. variable usage.
func TestQuickSubstSelf(t *testing.T) {
	x, y := V("x"), V("y")
	e := AddE(MulE(x, y), SubE(x, CInt(3)))
	r := substVar(e, x, x)
	if !UsesVar(r, x) || !UsesVar(r, y) {
		t.Fatal("self-substitution changed variable usage")
	}
}
