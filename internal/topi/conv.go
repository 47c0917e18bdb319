package topi

import (
	"fmt"

	"repro/internal/ir"
)

// ConvSpec describes one convolution layer. Input dimensions are the
// already-padded feature map (padding is a separate kernel, as TVM emits it).
type ConvSpec struct {
	Name string
	C1   int // input channels
	H, W int // input spatial dims (after padding)
	C2   int // filters / output channels
	F, S int // filter size, stride
	Relu bool
	// Relu6 selects the clamped activation (MobileNetV1, Eq. 2.3).
	Relu6 bool
	Bias  bool
	// Residual adds a skip input elementwise before the activation (ResNet
	// shortcut fused into the convolution output, §3.1).
	Residual bool
}

// outDims returns the output feature-map spatial dims.
func (s ConvSpec) outDims() (h2, w2 int) {
	return (s.H-s.F)/s.S + 1, (s.W-s.F)/s.S + 1
}

// flopCount returns multiply+add ops for the convolution (2 per MAC).
func (s ConvSpec) flopCount() int64 {
	h2, w2 := s.outDims()
	return 2 * int64(s.C2) * int64(h2) * int64(w2) * int64(s.C1) * int64(s.F) * int64(s.F)
}

// ConvSched selects the schedule: the naive default TVM emits (Listing 5.1)
// or the thesis's optimized schedule (Listings 5.2–5.4) with tile/unroll
// factors for output columns (W2vec), output channels (C2vec) and input
// channels (C1vec). UnrollFF fully unrolls the F×F reduction (§5.1.1 "we
// always fully unroll the inner loops ry and rx").
type ConvSched struct {
	Naive    bool
	W2vec    int
	C2vec    int
	C1vec    int
	UnrollFF bool
}

// OptSched returns the optimized schedule with the given factors.
func OptSched(w2vec, c2vec, c1vec int) ConvSched {
	return ConvSched{W2vec: w2vec, C2vec: c2vec, C1vec: c1vec, UnrollFF: true}
}

// ConvIO selects buffer or channel endpoints for pipelined execution.
type ConvIO struct {
	InCh  *ir.Channel
	OutCh *ir.Channel
}

// Conv2D generates a convolution kernel.
func Conv2D(spec ConvSpec, sched ConvSched, io ConvIO) (*Op, error) {
	if spec.F < 1 || spec.S < 1 || spec.C1 < 1 || spec.C2 < 1 {
		return nil, fmt.Errorf("topi: bad conv spec %+v", spec)
	}
	h2, w2 := spec.outDims()
	if h2 < 1 || w2 < 1 {
		return nil, fmt.Errorf("topi: conv %s output is empty (%dx%d)", spec.Name, h2, w2)
	}
	if sched.Naive {
		if io.InCh != nil || io.OutCh != nil {
			return nil, fmt.Errorf("topi: naive conv schedule cannot be channelized")
		}
		return convNaive(spec)
	}
	if sched.W2vec == 0 {
		sched.W2vec = 1
	}
	if sched.C2vec == 0 {
		sched.C2vec = 1
	}
	if sched.C1vec == 0 {
		sched.C1vec = 1
	}
	if io.OutCh != nil && (sched.W2vec > 1 || sched.C2vec > 1) {
		// Channel consumers expect row-major element order; tiling the
		// output dimensions would interleave it.
		return nil, fmt.Errorf("topi: channelized conv %s requires W2vec=C2vec=1 (row-major channel order)", spec.Name)
	}
	if err := requireDiv(spec.Name+" W2", w2, sched.W2vec); err != nil {
		return nil, err
	}
	if err := requireDiv(spec.Name+" C2", spec.C2, sched.C2vec); err != nil {
		return nil, err
	}
	if err := requireDiv(spec.Name+" C1", spec.C1, sched.C1vec); err != nil {
		return nil, err
	}
	return convOpt(spec, sched, io)
}

// convNaive emits Listing 5.1: global scratchpad, serial activation loop.
func convNaive(spec ConvSpec) (*Op, error) {
	h2, w2 := spec.outDims()
	scratch := ir.NewBuffer(spec.Name+"_scratch", ir.Global, h2, w2)
	in := ir.NewBuffer(spec.Name+"_in", ir.Global, spec.C1, spec.H, spec.W)
	wt := ir.NewBuffer(spec.Name+"_w", ir.Global, spec.C2, spec.C1, spec.F, spec.F)
	out := ir.NewBuffer(spec.Name+"_out", ir.Global, spec.C2, h2, w2)
	op := &Op{In: in, Out: out, Weights: wt, Scratches: []*ir.Buffer{scratch},
		OutShape: []int{spec.C2, h2, w2}, FLOPs: spec.flopCount()}
	args := []*ir.Buffer{scratch, in, wt}
	var bias, skip *ir.Buffer
	if spec.Bias {
		bias = ir.NewBuffer(spec.Name+"_b", ir.Global, spec.C2)
		op.Bias = bias
		args = append(args, bias)
	}
	if spec.Residual {
		skip = ir.NewBuffer(spec.Name+"_skip", ir.Global, spec.C2, h2, w2)
		op.Skip = skip
		args = append(args, skip)
	}
	args = append(args, out)

	ax1, yy, xx := ir.V("ax1"), ir.V("yy"), ir.V("xx")
	rc, ry, rx := ir.V("rc"), ir.V("ry"), ir.V("rx")
	ax2, ax3 := ir.V("ax2"), ir.V("ax3")
	sIdx := []ir.Expr{yy, xx}
	macc := &ir.Store{Buf: scratch, Index: sIdx,
		Value: ir.AddE(&ir.Load{Buf: scratch, Index: sIdx},
			ir.MulE(
				&ir.Load{Buf: in, Index: []ir.Expr{rc,
					ir.AddE(ir.MulE(ir.CInt(int64(spec.S)), yy), ry),
					ir.AddE(ir.MulE(ir.CInt(int64(spec.S)), xx), rx)}},
				&ir.Load{Buf: wt, Index: []ir.Expr{ax1, rc, ry, rx}}))}
	reduce := ir.Loop(yy, h2, ir.Loop(xx, w2, ir.Seq(
		&ir.Store{Buf: scratch, Index: sIdx, Value: ir.CFloat(0)},
		ir.Loop(rc, spec.C1, ir.Loop(ry, spec.F, ir.Loop(rx, spec.F, macc))),
	)))
	wb := ir.Expr(&ir.Load{Buf: scratch, Index: []ir.Expr{ax2, ax3}})
	if bias != nil {
		wb = ir.AddE(wb, &ir.Load{Buf: bias, Index: []ir.Expr{ax1}})
	}
	if skip != nil {
		wb = ir.AddE(wb, &ir.Load{Buf: skip, Index: []ir.Expr{ax1, ax2, ax3}})
	}
	writeback := ir.Loop(ax2, h2, ir.Loop(ax3, w2,
		&ir.Store{Buf: out, Index: []ir.Expr{ax1, ax2, ax3}, Value: act(wb, spec.Relu, spec.Relu6)}))

	op.Kernel = &ir.Kernel{Name: spec.Name, Args: args,
		Body: ir.Loop(ax1, spec.C2, ir.Seq(reduce, writeback))}
	return op, op.Kernel.Validate()
}

// convOpt emits the unified optimized schedule (Listings 5.2/5.3/5.4):
// fused activation, private write cache, F×F unroll, and tiling/unrolling
// along xx (W2vec), ax1 (C2vec) and rc (C1vec).
func convOpt(spec ConvSpec, sched ConvSched, io ConvIO) (*Op, error) {
	h2, w2 := spec.outDims()
	op := &Op{OutShape: []int{spec.C2, h2, w2}, FLOPs: spec.flopCount(),
		InCh: io.InCh, OutCh: io.OutCh}

	wt := ir.NewBuffer(spec.Name+"_w", ir.Global, spec.C2, spec.C1, spec.F, spec.F)
	op.Weights = wt
	args := []*ir.Buffer{}
	var in *ir.Buffer
	var prologue ir.Stmt
	if io.InCh != nil {
		in = ir.NewBuffer(spec.Name+"_inl", ir.Local, spec.C1, spec.H, spec.W)
		prologue = ir.Seq(&ir.Alloc{Buf: in}, chanReadInto(io.InCh, in, []int{spec.C1, spec.H, spec.W}))
	} else {
		in = ir.NewBuffer(spec.Name+"_in", ir.Global, spec.C1, spec.H, spec.W)
		op.In = in
		args = append(args, in)
	}
	args = append(args, wt)
	var bias, skip *ir.Buffer
	if spec.Bias {
		bias = ir.NewBuffer(spec.Name+"_b", ir.Global, spec.C2)
		op.Bias = bias
		args = append(args, bias)
	}
	if spec.Residual {
		skip = ir.NewBuffer(spec.Name+"_skip", ir.Global, spec.C2, h2, w2)
		op.Skip = skip
		args = append(args, skip)
	}
	var out *ir.Buffer
	if io.OutCh == nil {
		out = ir.NewBuffer(spec.Name+"_out", ir.Global, spec.C2, h2, w2)
		op.Out = out
		args = append(args, out)
	}

	tmp := ir.NewBuffer(spec.Name+"_tmp", ir.Private, sched.C2vec, sched.W2vec)
	ax1o, ax1i := ir.V("ax1o"), ir.V("ax1i")
	yy, xxo, xxi := ir.V("yy"), ir.V("xxo"), ir.V("xxi")
	rco, rci := ir.V("rco"), ir.V("rci")
	ry, rx := ir.V("ry"), ir.V("rx")

	cS := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	oc := ir.AddE(ir.MulE(ax1o, cS(sched.C2vec)), ax1i) // output channel
	ic := ir.AddE(ir.MulE(rco, cS(sched.C1vec)), rci)   // input channel
	ox := ir.AddE(ir.MulE(xxo, cS(sched.W2vec)), xxi)   // output column
	iy := ir.AddE(ir.MulE(cS(spec.S), yy), ry)
	ix := ir.AddE(ir.MulE(cS(spec.S), ox), rx)
	tIdx := []ir.Expr{ax1i, xxi}

	macc := &ir.Store{Buf: tmp, Index: tIdx,
		Value: ir.AddE(&ir.Load{Buf: tmp, Index: tIdx},
			ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{ic, iy, ix}},
				&ir.Load{Buf: wt, Index: []ir.Expr{oc, ic, ry, rx}}))}

	// Innermost reduction: all unrolled dims.
	red := ir.Stmt(macc)
	if spec.F > 1 && sched.UnrollFF {
		red = &ir.For{Var: rx, Extent: cS(spec.F), Unroll: -1, Body: red}
		red = &ir.For{Var: ry, Extent: cS(spec.F), Unroll: -1, Body: red}
	} else if spec.F > 1 {
		red = ir.Loop(rx, spec.F, red)
		red = ir.Loop(ry, spec.F, red)
	} else {
		red = ir.SubstStmt(red, rx, ir.CInt(0))
		red = ir.SubstStmt(red, ry, ir.CInt(0))
	}
	red = &ir.For{Var: xxi, Extent: cS(sched.W2vec), Unroll: -1, Body: red}
	red = &ir.For{Var: ax1i, Extent: cS(sched.C2vec), Unroll: -1, Body: red}
	red = &ir.For{Var: rci, Extent: cS(sched.C1vec), Unroll: -1, Body: red}
	reduce := ir.Loop(rco, spec.C1/sched.C1vec, red)

	initLoop := &ir.For{Var: ax1i, Extent: cS(sched.C2vec), Unroll: -1,
		Body: &ir.For{Var: xxi, Extent: cS(sched.W2vec), Unroll: -1,
			Body: &ir.Store{Buf: tmp, Index: tIdx, Value: ir.CFloat(0)}}}

	wbVal := ir.Expr(&ir.Load{Buf: tmp, Index: tIdx})
	if bias != nil {
		wbVal = ir.AddE(wbVal, &ir.Load{Buf: bias, Index: []ir.Expr{oc}})
	}
	if skip != nil {
		wbVal = ir.AddE(wbVal, &ir.Load{Buf: skip, Index: []ir.Expr{oc, yy, ox}})
	}
	wbVal = act(wbVal, spec.Relu, spec.Relu6)
	var write ir.Stmt
	if io.OutCh != nil {
		write = &ir.ChannelWrite{Ch: io.OutCh, Value: wbVal}
	} else {
		write = &ir.Store{Buf: out, Index: []ir.Expr{oc, yy, ox}, Value: wbVal}
	}
	write = &ir.For{Var: xxi, Extent: cS(sched.W2vec), Unroll: -1, Body: write}
	write = &ir.For{Var: ax1i, Extent: cS(sched.C2vec), Unroll: -1, Body: write}

	body := ir.Loop(ax1o, spec.C2/sched.C2vec,
		ir.Loop(yy, h2,
			ir.Loop(xxo, w2/sched.W2vec,
				ir.Seq(initLoop, reduce, write))))
	op.Kernel = &ir.Kernel{Name: spec.Name, Args: args,
		Body: ir.Seq(&ir.Alloc{Buf: tmp}, prologue, body)}
	return op, op.Kernel.Validate()
}

// DepthwiseSpec describes a depthwise convolution layer (§2.1.2): one F×F
// filter per channel.
type DepthwiseSpec struct {
	Name  string
	C     int
	H, W  int // padded input dims
	F, S  int
	Relu  bool
	Relu6 bool
	Bias  bool
}

// outDims returns the output spatial dims.
func (s DepthwiseSpec) outDims() (int, int) {
	return (s.H-s.F)/s.S + 1, (s.W-s.F)/s.S + 1
}

// flopCount returns multiply+add ops (complexity C·H2·W2·F·F, §2.1.2).
func (s DepthwiseSpec) flopCount() int64 {
	h2, w2 := s.outDims()
	return 2 * int64(s.C) * int64(h2) * int64(w2) * int64(s.F) * int64(s.F)
}

// DepthwiseConv2D generates a depthwise convolution kernel. The optimized
// schedule tiles W2 and unrolls F×F (Table 6.7: 7×3×3).
func DepthwiseConv2D(spec DepthwiseSpec, naive bool, w2vec int, io ConvIO) (*Op, error) {
	h2, w2 := spec.outDims()
	if h2 < 1 || w2 < 1 {
		return nil, fmt.Errorf("topi: depthwise %s output is empty", spec.Name)
	}
	if w2vec == 0 {
		w2vec = 1
	}
	if !naive {
		if err := requireDiv(spec.Name+" W2", w2, w2vec); err != nil {
			return nil, err
		}
	}
	op := &Op{OutShape: []int{spec.C, h2, w2}, FLOPs: spec.flopCount(), InCh: io.InCh, OutCh: io.OutCh}
	wt := ir.NewBuffer(spec.Name+"_w", ir.Global, spec.C, spec.F, spec.F)
	op.Weights = wt
	args := []*ir.Buffer{}
	var in *ir.Buffer
	var prologue ir.Stmt
	if io.InCh != nil {
		in = ir.NewBuffer(spec.Name+"_inl", ir.Local, spec.C, spec.H, spec.W)
		prologue = ir.Seq(&ir.Alloc{Buf: in}, chanReadInto(io.InCh, in, []int{spec.C, spec.H, spec.W}))
	} else {
		in = ir.NewBuffer(spec.Name+"_in", ir.Global, spec.C, spec.H, spec.W)
		op.In = in
		args = append(args, in)
	}
	args = append(args, wt)
	var bias *ir.Buffer
	if spec.Bias {
		bias = ir.NewBuffer(spec.Name+"_b", ir.Global, spec.C)
		op.Bias = bias
		args = append(args, bias)
	}
	var out *ir.Buffer
	if io.OutCh == nil {
		out = ir.NewBuffer(spec.Name+"_out", ir.Global, spec.C, h2, w2)
		op.Out = out
		args = append(args, out)
	}

	c, yy, xxo, xxi := ir.V("c"), ir.V("yy"), ir.V("xxo"), ir.V("xxi")
	ry, rx := ir.V("ry"), ir.V("rx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	ox := ir.AddE(ir.MulE(xxo, cs(w2vec)), xxi)
	iy := ir.AddE(ir.MulE(cs(spec.S), yy), ry)
	ix := ir.AddE(ir.MulE(cs(spec.S), ox), rx)

	if naive {
		// Global scratchpad, separate loops — the TVM default.
		scratch := ir.NewBuffer(spec.Name+"_scratch", ir.Global, h2, w2)
		op.Scratches = append(op.Scratches, scratch)
		args = append([]*ir.Buffer{scratch}, args...)
		xx := ir.V("xx")
		oxN := xx
		ixN := ir.AddE(ir.MulE(cs(spec.S), oxN), rx)
		iyN := ir.AddE(ir.MulE(cs(spec.S), yy), ry)
		macc := &ir.Store{Buf: scratch, Index: []ir.Expr{yy, xx},
			Value: ir.AddE(&ir.Load{Buf: scratch, Index: []ir.Expr{yy, xx}},
				ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{c, iyN, ixN}},
					&ir.Load{Buf: wt, Index: []ir.Expr{c, ry, rx}}))}
		reduce := ir.Loop(yy, h2, ir.Loop(xx, w2, ir.Seq(
			&ir.Store{Buf: scratch, Index: []ir.Expr{yy, xx}, Value: ir.CFloat(0)},
			ir.Loop(ry, spec.F, ir.Loop(rx, spec.F, macc)),
		)))
		a2, a3 := ir.V("a2"), ir.V("a3")
		wv := ir.Expr(&ir.Load{Buf: scratch, Index: []ir.Expr{a2, a3}})
		if bias != nil {
			wv = ir.AddE(wv, &ir.Load{Buf: bias, Index: []ir.Expr{c}})
		}
		write := ir.Loop(a2, h2, ir.Loop(a3, w2,
			&ir.Store{Buf: out, Index: []ir.Expr{c, a2, a3}, Value: act(wv, spec.Relu, spec.Relu6)}))
		op.Kernel = &ir.Kernel{Name: spec.Name, Args: args,
			Body: ir.Loop(c, spec.C, ir.Seq(reduce, write))}
		return op, op.Kernel.Validate()
	}

	tmp := ir.NewBuffer(spec.Name+"_tmp", ir.Private, w2vec)
	macc := &ir.Store{Buf: tmp, Index: []ir.Expr{xxi},
		Value: ir.AddE(&ir.Load{Buf: tmp, Index: []ir.Expr{xxi}},
			ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{c, iy, ix}},
				&ir.Load{Buf: wt, Index: []ir.Expr{c, ry, rx}}))}
	red := ir.Stmt(&ir.For{Var: rx, Extent: cs(spec.F), Unroll: -1, Body: macc})
	red = &ir.For{Var: ry, Extent: cs(spec.F), Unroll: -1, Body: red}
	red = &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1, Body: red}
	initLoop := &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1,
		Body: &ir.Store{Buf: tmp, Index: []ir.Expr{xxi}, Value: ir.CFloat(0)}}
	wv := ir.Expr(&ir.Load{Buf: tmp, Index: []ir.Expr{xxi}})
	if bias != nil {
		wv = ir.AddE(wv, &ir.Load{Buf: bias, Index: []ir.Expr{c}})
	}
	wv = act(wv, spec.Relu, spec.Relu6)
	var write ir.Stmt
	if io.OutCh != nil {
		if w2vec != 1 {
			return nil, fmt.Errorf("topi: channelized depthwise %s requires W2vec=1", spec.Name)
		}
		write = &ir.ChannelWrite{Ch: io.OutCh, Value: wv}
	} else {
		write = &ir.Store{Buf: out, Index: []ir.Expr{c, yy, ox}, Value: wv}
	}
	write = &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1, Body: write}
	body := ir.Loop(c, spec.C, ir.Loop(yy, h2, ir.Loop(xxo, w2/w2vec,
		ir.Seq(initLoop, red, write))))
	op.Kernel = &ir.Kernel{Name: spec.Name, Args: args,
		Body: ir.Seq(&ir.Alloc{Buf: tmp}, prologue, body)}
	return op, op.Kernel.Validate()
}
