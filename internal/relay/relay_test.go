package relay

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpuref"
	"repro/internal/tensor"
)

func smallGraph() *Graph {
	g := NewGraph()
	x := g.Input(3, 10, 10)
	x = g.ReLU(g.BatchNorm(g.Conv(x, "c1", 4, 3, 1, 1), "bn1"))
	x = g.MaxPool(x, 2, 2, 0)
	x = g.Flatten(x)
	x = g.Dense(x, "fc", 7)
	x = g.Softmax(x)
	g.InitWeights(9)
	return g
}

func TestShapeInference(t *testing.T) {
	g := smallGraph()
	// conv with pad 1 keeps 10x10, pool halves to 5x5, flatten 100, dense 7.
	out := g.Output
	if out.OutShape[0] != 7 {
		t.Fatalf("output shape = %v", out.OutShape)
	}
	var pads, convs int
	for _, n := range g.Nodes {
		switch n.Kind {
		case KPad:
			pads++
		case KConv:
			convs++
			if n.Inputs[0].Kind != KPad {
				t.Fatal("padded conv must consume a pad node")
			}
		}
	}
	if pads != 1 || convs != 1 {
		t.Fatalf("pads=%d convs=%d", pads, convs)
	}
}

func TestLowerFusesInjectiveOps(t *testing.T) {
	g := smallGraph()
	layers, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: pad, conv(relu, BN folded), pool, flatten, dense, softmax = 6.
	if len(layers) != 6 {
		names := []string{}
		for _, l := range layers {
			names = append(names, l.Kind.String())
		}
		t.Fatalf("lowered to %d layers: %s", len(layers), strings.Join(names, ","))
	}
	conv := layers[1]
	if conv.Kind != KConv || !conv.Relu {
		t.Fatal("relu must fuse into conv")
	}
	if conv.B == nil {
		t.Fatal("BN folding must produce a bias")
	}
}

func TestBatchNormFoldingNumerics(t *testing.T) {
	g := smallGraph()
	layers, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 10, 10)
	in.FillSeq(3)
	got, err := Execute(layers, in)
	if err != nil {
		t.Fatal(err)
	}
	// Manual reference: pad, conv, then explicit BN scale/shift, relu...
	var convN, bnN *Node
	for _, n := range g.Nodes {
		if n.Kind == KConv {
			convN = n
		}
		if n.Kind == KBatchNorm {
			bnN = n
		}
	}
	x := cpuref.Conv2D(cpuref.Pad2D(in, 1), convN.W, convN.B, 1, 0, false)
	for k := 0; k < 4; k++ {
		for i := 0; i < 10*10; i++ {
			x.Data[k*100+i] = float32(x.Data[k*100+i]*bnN.Scale.At(k)) + bnN.Shift.At(k)
		}
	}
	x = cpuref.ReLU(x)
	x = cpuref.MaxPool2D(x, 2, 2)
	var fcN *Node
	for _, n := range g.Nodes {
		if n.Kind == KDense {
			fcN = n
		}
	}
	want := cpuref.Softmax(cpuref.Dense(x.Reshape(100), fcN.W, fcN.B, false))
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("BN folding diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestResidualFusion(t *testing.T) {
	g := NewGraph()
	x := g.Input(4, 8, 8)
	skip := x
	y := g.ReLU(g.Conv(x, "a", 4, 3, 1, 1))
	y = g.Conv(y, "b", 4, 3, 1, 1)
	out := g.ReLU(g.Add(y, skip))
	_ = out
	g.InitWeights(5)
	layers, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	var convB *Layer
	for _, l := range layers {
		if l.Name == "b" {
			convB = l
		}
	}
	if convB == nil {
		t.Fatal("missing conv b")
	}
	if !convB.HasSkip || convB.Skip != -1 {
		t.Fatalf("skip should reference the network input (HasSkip, -1), got %v %d", convB.HasSkip, convB.Skip)
	}
	if !convB.Relu {
		t.Fatal("relu after add must fuse into the anchored conv")
	}
	// Numerics.
	in := tensor.New(4, 8, 8)
	in.FillSeq(11)
	got, err := Execute(layers, in)
	if err != nil {
		t.Fatal(err)
	}
	var na, nb *Node
	for _, n := range g.Nodes {
		if n.Name == "a" {
			na = n
		}
		if n.Name == "b" {
			nb = n
		}
	}
	t1 := cpuref.Conv2D(cpuref.Pad2D(in, 1), na.W, na.B, 1, 0, true)
	t2 := cpuref.Conv2D(cpuref.Pad2D(t1, 1), nb.W, nb.B, 1, 0, false)
	want := cpuref.ReLU(cpuref.Add(t2, in))
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("residual execution diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestLowerRequiresWeights(t *testing.T) {
	g := NewGraph()
	x := g.Input(1, 6, 6)
	g.Conv(x, "c", 2, 3, 1, 0)
	if _, err := Lower(g); err == nil || !strings.Contains(err.Error(), "InitWeights") {
		t.Fatalf("want missing-weights error, got %v", err)
	}
}

func TestParamsAndFLOPs(t *testing.T) {
	g := smallGraph()
	// conv: 4*3*3*3 + 4 = 112; dense: 7*100 + 7 = 707; BN adds none to
	// Params (scale/shift folded, not counted as W/B).
	if p := g.Params(); p != 112+707 {
		t.Fatalf("params = %d", p)
	}
	// conv flops: 2*4*10*10*3*9 = 21600; dense: 2*7*100 = 1400.
	if f := g.FLOPs(); f != 21600+1400 {
		t.Fatalf("flops = %d", f)
	}
}

func TestAddShapeMismatchDefersError(t *testing.T) {
	g := NewGraph()
	a := g.Input(2, 4, 4)
	b := g.Conv(a, "c", 3, 3, 1, 1)
	g.Add(a, b) // shape mismatch: must not panic, must poison the graph
	g.Softmax(g.Output)
	if g.err == nil || !strings.Contains(g.err.Error(), "add shape mismatch") {
		t.Fatalf("want deferred add-shape error, got %v", g.err)
	}
	g.InitWeights(1)
	if _, err := Lower(g); err == nil || !strings.Contains(err.Error(), "add shape mismatch") {
		t.Fatalf("Lower must surface the construction error, got %v", err)
	}
}

func TestGraphErrKeepsFirstCause(t *testing.T) {
	g := NewGraph()
	x := g.Input(1, 2, 2)
	g.Conv(x, "tiny", 4, 5, 1, 0) // 2x2 input, 5x5 filter: empty output
	y := g.Conv(g.Output, "n", 2, 1, 1, 0)
	g.Dense(y, "fc", 3) // unflattened input: second error
	if g.err == nil || !strings.Contains(g.err.Error(), "output empty") {
		t.Fatalf("the graph error must keep the first cause, got %v", g.err)
	}
	if _, err := Lower(g); err == nil {
		t.Fatal("Lower must reject a poisoned graph")
	}
}

func TestConcatConstructionErrors(t *testing.T) {
	g := NewGraph()
	a := g.Input(2, 4, 4)
	g.Concat(a) // single input
	if g.err == nil || !strings.Contains(g.err.Error(), "two inputs") {
		t.Fatalf("want concat arity error, got %v", g.err)
	}
	g2 := NewGraph()
	x := g2.Input(2, 4, 4)
	y := g2.MaxPool(x, 2, 2, 0) // 2x2x2: spatial mismatch with x
	g2.Concat(x, y)
	if g2.err == nil || !strings.Contains(g2.err.Error(), "spatial mismatch") {
		t.Fatalf("want concat spatial error, got %v", g2.err)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	g := smallGraph()
	layers, _ := Lower(g)
	in := tensor.New(3, 10, 10)
	in.FillSeq(7)
	o1, _ := Execute(layers, in)
	o2, _ := Execute(layers, in)
	if tensor.MaxAbsDiff(o1, o2) != 0 {
		t.Fatal("execution must be deterministic")
	}
	if s := o1.Sum(); math.Abs(s-1) > 1e-4 {
		t.Fatalf("softmax output must sum to 1, got %v", s)
	}
}
