package ir_test

// The whole-nest matcher over the kernels topi emits: conv and dense nests
// are matmul-shaped, depthwise and pooling nests are tile nests for the
// window executor, and average pooling's write-back scaled by 1/F² matches
// with its literal scale.

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/topi"
)

// matchKernel returns the match of the first top-level loop of k's body.
func matchKernel(t *testing.T, k *ir.Kernel) *ir.GemmNest {
	t.Helper()
	var g *ir.GemmNest
	found := false
	ir.WalkStmt(k.Body, func(s ir.Stmt) {
		if f, ok := s.(*ir.For); ok && !found {
			found = true
			g = ir.MatchGemmNest(f)
		}
	})
	if !found {
		t.Fatalf("%s: no loop", k.Name)
	}
	return g
}

func TestMatchGemmNestClassifiesTileNests(t *testing.T) {
	conv, err := topi.ConvParamAct("conv", 3, 1, topi.ConvSched{W2vec: 7, C2vec: 4, C1vec: 4}, true, false, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := topi.DenseParam("dense", 8, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := topi.DepthwiseParamAct("dw", 3, 2, 7, false, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	maxPool, err := topi.PoolParam("maxpool", 3, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	avgPool, err := topi.PoolParam("avgpool", 7, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		k      *ir.Kernel
		op     ir.BinOp
		loadB  bool
		matmul bool
	}{
		{"conv", conv.Op.Kernel, ir.Add, true, true},
		{"dense", dense.Op.Kernel, ir.Add, true, true},
		{"depthwise", dw.Op.Kernel, ir.Add, true, false},
		{"maxpool", maxPool.Op.Kernel, ir.MaxOp, false, false},
		{"avgpool", avgPool.Op.Kernel, ir.Add, false, false},
	}
	for _, c := range cases {
		g := matchKernel(t, c.k)
		if g == nil {
			t.Fatalf("%s: not matched", c.name)
		}
		if g.Op != c.op || (g.LoadB != nil) != c.loadB || g.Matmul != c.matmul {
			t.Errorf("%s: op %s, LoadB %v, matmul %v; want %s, %v, %v",
				c.name, g.Op, g.LoadB != nil, g.Matmul, c.op, c.loadB, c.matmul)
		}
		if want := c.name == "avgpool"; (g.Scale != nil) != want || want && g.Scale.Value != 1.0/49 {
			t.Errorf("%s: scale %v, want the literal 1/49 only on avgpool", c.name, g.Scale)
		}
	}
}

// TestMatchGemmNestRejectsAccumulatorOperand: an rhs that reads the tile
// itself is not a tile nest, whatever the operator; the same nest reading
// another buffer is.
func TestMatchGemmNestRejectsAccumulatorOperand(t *testing.T) {
	tb := ir.NewBuffer("t", ir.Private, 4)
	in := ir.NewBuffer("in", ir.Global, 8)
	out := ir.NewBuffer("out", ir.Global, 8)
	o, i, r := ir.V("o"), ir.V("i"), ir.V("r")
	nest := func(rhs ir.Expr) *ir.For {
		return ir.Loop(o, 2, ir.Seq(
			ir.Loop(i, 4, &ir.Store{Buf: tb, Index: []ir.Expr{i}, Value: ir.CFloat(0)}),
			ir.Loop(i, 4, ir.Loop(r, 4, &ir.Store{Buf: tb, Index: []ir.Expr{i},
				Value: ir.AddE(&ir.Load{Buf: tb, Index: []ir.Expr{i}}, rhs)})),
			ir.Loop(i, 4, &ir.Store{Buf: out, Index: []ir.Expr{ir.AddE(ir.MulE(o, ir.CInt(4)), i)},
				Value: &ir.Load{Buf: tb, Index: []ir.Expr{i}}}),
		))
	}
	if ir.MatchGemmNest(nest(&ir.Load{Buf: in, Index: []ir.Expr{ir.AddE(i, r)}})) == nil {
		t.Fatal("control: a sum over another buffer did not match")
	}
	for _, rhs := range []ir.Expr{
		&ir.Load{Buf: tb, Index: []ir.Expr{r}},
		ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{r}}, &ir.Load{Buf: tb, Index: []ir.Expr{r}}),
	} {
		if ir.MatchGemmNest(nest(rhs)) != nil {
			t.Errorf("rhs %s reading the tile matched", rhs)
		}
	}
}
