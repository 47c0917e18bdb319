package topi

import (
	"strings"
	"testing"

	"repro/internal/cpuref"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// runOp executes a constant-shape op on the interpreter with seeded inputs
// and returns the output tensor.
func runOp(t *testing.T, op *Op, in, w, bias, skip *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	m := sim.NewMachine()
	if op.In != nil {
		m.Bind(op.In, in.Data)
	}
	if op.Weights != nil {
		m.Bind(op.Weights, w.Data)
	}
	if op.Bias != nil {
		m.Bind(op.Bias, bias.Data)
	}
	if op.Skip != nil {
		m.Bind(op.Skip, skip.Data)
	}
	for _, sc := range op.Scratches {
		if n, ok := sc.ConstLen(); ok {
			m.Bind(sc, make([]float32, n))
		}
	}
	out := tensor.New(op.OutShape...)
	if op.Out != nil {
		m.Bind(op.Out, out.Data)
	}
	if err := m.Run(op.Kernel, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func seeded(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillSeq(uint64(len(shape))*77 + uint64(shape[0]))
	return t
}

func TestConvNaiveMatchesReference(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 3, H: 12, W: 12, C2: 4, F: 3, S: 1, Relu: true, Bias: true}
	op, err := Conv2D(spec, ConvSched{Naive: true}, ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	in, w, b := seeded(3, 12, 12), seeded(4, 3, 3, 3), seeded(4)
	got := runOp(t, op, in, w, b, nil)
	want := cpuref.Conv2D(in, w, b, 1, 0, true)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("naive conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvOptimizedAllTilings(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 8, H: 16, W: 16, C2: 8, F: 3, S: 1, Relu: true, Bias: true}
	in, w, b := seeded(8, 16, 16), seeded(8, 8, 3, 3), seeded(8)
	want := cpuref.Conv2D(in, w, b, 1, 0, true)
	for _, tc := range []struct{ w2v, c2v, c1v int }{
		{1, 1, 1}, {7, 1, 1}, {7, 2, 4}, {14, 4, 8}, {2, 8, 2},
	} {
		op, err := Conv2D(spec, OptSched(tc.w2v, tc.c2v, tc.c1v), ConvIO{})
		if err != nil {
			t.Fatalf("tiling %v: %v", tc, err)
		}
		got := runOp(t, op, in, w, b, nil)
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("optimized conv %v diverges: %v", tc, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestConvStride2(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 4, H: 15, W: 15, C2: 4, F: 3, S: 2, Relu: false, Bias: false}
	in, w := seeded(4, 15, 15), seeded(4, 4, 3, 3)
	want := cpuref.Conv2D(in, w, nil, 2, 0, false)
	for _, sched := range []ConvSched{{Naive: true}, OptSched(7, 2, 2), OptSched(1, 1, 1)} {
		op, err := Conv2D(spec, sched, ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		got := runOp(t, op, in, w, nil, nil)
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("stride-2 conv (naive=%v) diverges", sched.Naive)
		}
	}
}

func TestConv1x1SpecialCase(t *testing.T) {
	// Listing 5.4: F=1 drops the ry/rx loops entirely.
	spec := ConvSpec{Name: "c", C1: 8, H: 14, W: 14, C2: 16, F: 1, S: 1, Relu: true, Bias: true}
	in, w, b := seeded(8, 14, 14), seeded(16, 8, 1, 1), seeded(16)
	op, err := Conv2D(spec, OptSched(7, 4, 8), ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	// No ry/rx loops must remain in the kernel.
	ir.WalkStmt(op.Kernel.Body, func(s ir.Stmt) {
		if f, ok := s.(*ir.For); ok && (f.Var.Name == "ry" || f.Var.Name == "rx") {
			t.Fatal("1x1 conv must not emit filter loops")
		}
	})
	got := runOp(t, op, in, w, b, nil)
	want := cpuref.Conv2D(in, w, b, 1, 0, true)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatal("1x1 conv diverges")
	}
}

func TestConvResidualFusion(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 4, H: 10, W: 10, C2: 4, F: 3, S: 1, Relu: true, Residual: true}
	in, w := seeded(4, 10, 10), seeded(4, 4, 3, 3)
	skip := seeded(4, 8, 8)
	op, err := Conv2D(spec, OptSched(4, 2, 2), ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	got := runOp(t, op, in, w, nil, skip)
	want := cpuref.ReLU(cpuref.Add(cpuref.Conv2D(in, w, nil, 1, 0, false), skip))
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatal("residual-fused conv diverges")
	}
}

func TestConvTilingDivisibilityErrors(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 8, H: 16, W: 16, C2: 8, F: 3, S: 1}
	if _, err := Conv2D(spec, OptSched(5, 1, 1), ConvIO{}); err == nil ||
		!strings.Contains(err.Error(), "divisible") {
		t.Fatalf("want divisibility error, got %v", err)
	}
	if _, err := Conv2D(spec, OptSched(1, 3, 1), ConvIO{}); err == nil {
		t.Fatal("C2 divisibility must be checked")
	}
	if _, err := Conv2D(spec, OptSched(1, 1, 5), ConvIO{}); err == nil {
		t.Fatal("C1 divisibility must be checked")
	}
}

func TestDepthwiseSchedules(t *testing.T) {
	spec := DepthwiseSpec{Name: "dw", C: 6, H: 16, W: 16, F: 3, S: 1, Relu: true, Bias: true}
	in, w, b := seeded(6, 16, 16), seeded(6, 3, 3), seeded(6)
	want := cpuref.DepthwiseConv2D(in, w, b, 1, 0, true)
	for _, naive := range []bool{true, false} {
		op, err := DepthwiseConv2D(spec, naive, 7, ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		got := runOp(t, op, in, w, b, nil)
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("depthwise naive=%v diverges", naive)
		}
	}
	// Stride 2.
	spec2 := DepthwiseSpec{Name: "dw2", C: 4, H: 15, W: 15, F: 3, S: 2}
	in2, w2 := seeded(4, 15, 15), seeded(4, 3, 3)
	op, err := DepthwiseConv2D(spec2, false, 7, ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	got := runOp(t, op, in2, w2, nil, nil)
	want2 := cpuref.DepthwiseConv2D(in2, w2, nil, 2, 0, false)
	if !tensor.AllClose(got, want2, 1e-4) {
		t.Fatal("stride-2 depthwise diverges")
	}
}

func TestDenseSchedules(t *testing.T) {
	spec := DenseSpec{Name: "d", N: 40, M: 12, Relu: true, Bias: true}
	in, w, b := seeded(40), seeded(12, 40), seeded(12)
	want := cpuref.Dense(in, w, b, true)
	for _, tc := range []struct {
		naive bool
		kvec  int
	}{{true, 1}, {false, 1}, {false, 4}, {false, 40}} {
		op, err := Dense(spec, tc.naive, tc.kvec, ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		got := runOp(t, op, in, w, b, nil)
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("dense naive=%v kvec=%d diverges", tc.naive, tc.kvec)
		}
	}
	if _, err := Dense(spec, false, 7, ConvIO{}); err == nil {
		t.Fatal("dense unroll divisibility must be checked")
	}
}

func TestPoolingSchedules(t *testing.T) {
	spec := PoolSpec{Name: "p", C: 3, H: 8, W: 8, F: 2, S: 2}
	in := seeded(3, 8, 8)
	wantMax := cpuref.MaxPool2D(in, 2, 2)
	for _, naive := range []bool{true, false} {
		op, err := Pool2D(spec, naive, ConvIO{}, false)
		if err != nil {
			t.Fatal(err)
		}
		got := runOp(t, op, in, nil, nil, nil)
		if !tensor.AllClose(got, wantMax, 1e-5) {
			t.Fatalf("maxpool naive=%v diverges", naive)
		}
	}
	avgSpec := PoolSpec{Name: "ap", C: 3, H: 8, W: 8, F: 2, S: 2, Avg: true}
	op, err := Pool2D(avgSpec, false, ConvIO{}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := runOp(t, op, in, nil, nil, nil)
	if !tensor.AllClose(got, cpuref.AvgPool2D(in, 2, 2), 1e-5) {
		t.Fatal("avgpool diverges")
	}
}

func TestSoftmaxSchedules(t *testing.T) {
	in := seeded(10)
	want := cpuref.Softmax(in)
	for _, naive := range []bool{true, false} {
		op, err := Softmax("sm", 10, naive, ConvIO{})
		if err != nil {
			t.Fatal(err)
		}
		got := runOp(t, op, in, nil, nil, nil)
		if !tensor.AllClose(got, want, 1e-5) {
			t.Fatalf("softmax naive=%v diverges", naive)
		}
	}
	// The optimized kernel must not keep global scratchpads.
	op, _ := Softmax("sm2", 10, false, ConvIO{})
	if len(op.Kernel.Args) != 2 {
		t.Fatalf("optimized softmax should have in+out args only, got %d", len(op.Kernel.Args))
	}
}

func TestPad2DMatchesReference(t *testing.T) {
	spec := PadSpec{Name: "pad", C: 3, H: 6, W: 6, P: 2}
	in := seeded(3, 6, 6)
	op, err := Pad2D(spec, ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	got := runOp(t, op, in, nil, nil, nil)
	if !tensor.AllClose(got, cpuref.Pad2D(in, 2), 0) {
		t.Fatal("pad diverges")
	}
	// The generated kernel uses modulo addressing (the inefficiency the
	// thesis measures at 12-20% of runtime).
	mods := 0
	ir.WalkExprs(op.Kernel.Body, func(e ir.Expr) {
		if b, ok := e.(*ir.Binary); ok && b.Op == ir.Mod {
			mods++
		}
	})
	if mods == 0 {
		t.Fatal("pad kernel must use modulo addressing (TVM's form)")
	}
}

func TestFullyChannelizedPipelineLeNetFragment(t *testing.T) {
	// conv -> autorun pool -> dense -> softmax via channels, functionally
	// identical to the buffered path.
	c1 := &ir.Channel{Name: "p0", Depth: 1024}
	c2 := &ir.Channel{Name: "p1", Depth: 1024}
	c3 := &ir.Channel{Name: "p2", Depth: 256}

	convSpec := ConvSpec{Name: "conv", C1: 1, H: 12, W: 12, C2: 4, F: 3, S: 1, Relu: true, Bias: true}
	conv, err := Conv2D(convSpec, OptSched(1, 1, 1), ConvIO{OutCh: c1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Pool2D(PoolSpec{Name: "pool", C: 4, H: 10, W: 10, F: 2, S: 2},
		false, ConvIO{InCh: c1, OutCh: c2}, true)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Dense(DenseSpec{Name: "fc", N: 4 * 5 * 5, M: 10, Bias: true},
		false, 4, ConvIO{InCh: c2, OutCh: c3})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Softmax("sm", 10, false, ConvIO{InCh: c3})
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Kernel.Autorun {
		t.Fatal("pool must be autorun")
	}

	in := seeded(1, 12, 12)
	cw, cb := seeded(4, 1, 3, 3), seeded(4)
	dw, db := seeded(10, 100), seeded(10)

	m := sim.NewMachine()
	m.Bind(conv.In, in.Data)
	m.Bind(conv.Weights, cw.Data)
	m.Bind(conv.Bias, cb.Data)
	m.Bind(dense.Weights, dw.Data)
	m.Bind(dense.Bias, db.Data)
	out := tensor.New(10)
	m.Bind(sm.Out, out.Data)
	err = m.RunGraph([]*ir.Kernel{conv.Kernel, pool.Kernel, dense.Kernel, sm.Kernel}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref := cpuref.Softmax(cpuref.Dense(
		cpuref.MaxPool2D(cpuref.Conv2D(in, cw, cb, 1, 0, true), 2, 2).Reshape(100),
		dw, db, false))
	if !tensor.AllClose(out, ref, 1e-4) {
		t.Fatalf("pipelined LeNet fragment diverges: %v", tensor.MaxAbsDiff(out, ref))
	}
}

func TestChannelizedConvRequiresUntiledOutput(t *testing.T) {
	spec := ConvSpec{Name: "c", C1: 4, H: 16, W: 16, C2: 4, F: 3, S: 1}
	ch := &ir.Channel{Name: "c0"}
	if _, err := Conv2D(spec, OptSched(7, 1, 1), ConvIO{OutCh: ch}); err == nil {
		t.Fatal("channelized conv with W2vec>1 must be rejected (element order)")
	}
}

func TestParamConvMatchesReferenceAcrossLayers(t *testing.T) {
	pc, err := ConvParam("p3x3", 3, 1, OptSched(1, 2, 4), true, false, false, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []struct{ c1, h, w, c2 int }{
		{4, 10, 10, 4}, {8, 9, 9, 6}, {4, 16, 16, 8},
	} {
		bind, err := pc.Bind(layer.c1, layer.h, layer.w, layer.c2)
		if err != nil {
			t.Fatal(err)
		}
		in := seeded(layer.c1, layer.h, layer.w)
		w := seeded(layer.c2, layer.c1, 3, 3)
		m := sim.NewMachine()
		m.Bind(pc.Op.In, in.Data)
		m.Bind(pc.Op.Weights, w.Data)
		h2, w2 := (layer.h-3)+1, (layer.w-3)+1
		out := tensor.New(layer.c2, h2, w2)
		m.Bind(pc.Op.Out, out.Data)
		if err := m.Run(pc.Op.Kernel, bind); err != nil {
			t.Fatal(err)
		}
		want := cpuref.Conv2D(in, w, nil, 1, 0, true)
		if !tensor.AllClose(out, want, 1e-4) {
			t.Fatalf("param conv diverges on layer %+v", layer)
		}
	}
	// Non-divisible layer rejected at bind time.
	if _, err := pc.Bind(5, 10, 10, 4); err == nil {
		t.Fatal("bind must check divisibility")
	}
}

func TestParamDepthwiseAndDense(t *testing.T) {
	pd, err := DepthwiseParamAct("pdw", 3, 2, 1, true, false, false, true)
	if err != nil {
		t.Fatal(err)
	}
	in, w := seeded(4, 11, 11), seeded(4, 3, 3)
	bind, err := pd.Bind(4, 11, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine()
	m.Bind(pd.Op.In, in.Data)
	m.Bind(pd.Op.Weights, w.Data)
	out := tensor.New(4, 5, 5)
	m.Bind(pd.Op.Out, out.Data)
	if err := m.Run(pd.Op.Kernel, bind); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(out, cpuref.DepthwiseConv2D(in, w, nil, 2, 0, true), 1e-4) {
		t.Fatal("param depthwise diverges")
	}

	pdn, err := DenseParam("pfc", 8, false, true, true)
	if err != nil {
		t.Fatal(err)
	}
	din, dw, db := seeded(32), seeded(10, 32), seeded(10)
	dbind, err := pdn.Bind(32, 10)
	if err != nil {
		t.Fatal(err)
	}
	m2 := sim.NewMachine()
	m2.Bind(pdn.Op.In, din.Data)
	m2.Bind(pdn.Op.Weights, dw.Data)
	m2.Bind(pdn.Op.Bias, db.Data)
	dout := tensor.New(10)
	m2.Bind(pdn.Op.Out, dout.Data)
	if err := m2.Run(pdn.Op.Kernel, dbind); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dout, cpuref.Dense(din, dw, db, false), 1e-4) {
		t.Fatal("param dense diverges")
	}
}

func TestParamPadAndPool(t *testing.T) {
	pp, err := PadParam("ppad", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	in := seeded(3, 7, 7)
	m := sim.NewMachine()
	m.Bind(pp.Op.In, in.Data)
	out := tensor.New(3, 9, 9)
	m.Bind(pp.Op.Out, out.Data)
	if err := m.Run(pp.Op.Kernel, pp.Bind(3, 7, 7)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(out, cpuref.Pad2D(in, 1), 0) {
		t.Fatal("param pad diverges")
	}

	pl, err := PoolParam("ppool", 3, 2, false, true)
	if err != nil {
		t.Fatal(err)
	}
	pin := seeded(2, 11, 11)
	m3 := sim.NewMachine()
	m3.Bind(pl.Op.In, pin.Data)
	pout := tensor.New(2, 5, 5)
	m3.Bind(pl.Op.Out, pout.Data)
	if err := m3.Run(pl.Op.Kernel, pl.Bind(2, 11, 11)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(pout, cpuref.MaxPool2D(pin, 3, 2), 1e-5) {
		t.Fatal("param pool diverges")
	}

	avg, err := PoolParam("pavg", 7, 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	ain := seeded(3, 7, 7)
	m4 := sim.NewMachine()
	m4.Bind(avg.Op.In, ain.Data)
	aout := tensor.New(3, 1, 1)
	m4.Bind(avg.Op.Out, aout.Data)
	if err := m4.Run(avg.Op.Kernel, avg.Bind(3, 7, 7)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(aout, cpuref.AvgPool2D(ain, 7, 1), 1e-5) {
		t.Fatal("param avgpool diverges")
	}
}

func TestParamConvResidual(t *testing.T) {
	pc, err := ConvParam("p3x3r", 3, 1, OptSched(1, 1, 2), true, false, true, true)
	if err != nil {
		t.Fatal(err)
	}
	in := seeded(4, 10, 10)
	w := seeded(4, 4, 3, 3)
	skip := seeded(4, 8, 8)
	bind, err := pc.Bind(4, 10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine()
	m.Bind(pc.Op.In, in.Data)
	m.Bind(pc.Op.Weights, w.Data)
	m.Bind(pc.Op.Skip, skip.Data)
	out := tensor.New(4, 8, 8)
	m.Bind(pc.Op.Out, out.Data)
	if err := m.Run(pc.Op.Kernel, bind); err != nil {
		t.Fatal(err)
	}
	want := cpuref.ReLU(cpuref.Add(cpuref.Conv2D(in, w, nil, 1, 0, false), skip))
	if !tensor.AllClose(out, want, 1e-4) {
		t.Fatal("param residual conv diverges")
	}
}

func TestFLOPCounts(t *testing.T) {
	c := ConvSpec{C1: 64, H: 58, W: 58, C2: 64, F: 3, S: 1}
	// 2 * 64*56*56*64*9
	if got, want := c.flopCount(), int64(2*64*56*56*64*9); got != want {
		t.Fatalf("conv FLOPs = %d, want %d", got, want)
	}
	d := DenseSpec{N: 400, M: 120}
	if d.flopCount() != 96000 {
		t.Fatalf("dense FLOPs = %d", d.flopCount())
	}
	dw := DepthwiseSpec{C: 32, H: 114, W: 114, F: 3, S: 1}
	if got, want := dw.flopCount(), int64(2*32*112*112*9); got != want {
		t.Fatalf("dw FLOPs = %d, want %d", got, want)
	}
}

func TestParamWorkaroundControlsStrideFlag(t *testing.T) {
	with, _ := ConvParam("wa", 1, 1, OptSched(7, 2, 4), false, false, false, true)
	without, _ := ConvParam("nowa", 1, 1, OptSched(7, 2, 4), false, false, false, false)
	if with.Op.In.ExplicitStrides || !without.Op.In.ExplicitStrides {
		t.Fatal("workaround flag must control ExplicitStrides")
	}
}

func TestConvReLU6(t *testing.T) {
	// MobileNetV1's actual activation (Eq. 2.3): min(max(x,0),6), fused into
	// the convolution output.
	spec := ConvSpec{Name: "c6", C1: 2, H: 8, W: 8, C2: 2, F: 3, S: 1, Relu6: true, Bias: true}
	in, w, b := seeded(2, 8, 8), seeded(2, 2, 3, 3), seeded(2)
	// Scale the bias up so some outputs exceed 6 and the clamp is exercised.
	for i := range b.Data {
		b.Data[i] = b.Data[i]*2 + 5
	}
	op, err := Conv2D(spec, OptSched(1, 1, 1), ConvIO{})
	if err != nil {
		t.Fatal(err)
	}
	got := runOp(t, op, in, w, b, nil)
	want := cpuref.ReLU6(cpuref.Conv2D(in, w, b, 1, 0, false))
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("relu6 conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
	clamped := false
	for _, v := range got.Data {
		if v == 6 {
			clamped = true
		}
	}
	if !clamped {
		t.Fatal("test data never hit the clamp; strengthen the bias")
	}
}

func TestParamConvReLU6(t *testing.T) {
	pc, err := ConvParamAct("p6", 1, 1, OptSched(1, 2, 2), false, true, true, false, true)
	if err != nil {
		t.Fatal(err)
	}
	in := seeded(4, 6, 6)
	w := seeded(4, 4, 1, 1)
	b := seeded(4)
	for i := range b.Data {
		b.Data[i] = b.Data[i] + 6
	}
	bind, err := pc.Bind(4, 6, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine()
	m.Bind(pc.Op.In, in.Data)
	m.Bind(pc.Op.Weights, w.Data)
	m.Bind(pc.Op.Bias, b.Data)
	out := tensor.New(4, 6, 6)
	m.Bind(pc.Op.Out, out.Data)
	if err := m.Run(pc.Op.Kernel, bind); err != nil {
		t.Fatal(err)
	}
	want := cpuref.ReLU6(cpuref.Conv2D(in, w, b, 1, 0, false))
	if !tensor.AllClose(out, want, 1e-4) {
		t.Fatal("param relu6 conv diverges")
	}
}
