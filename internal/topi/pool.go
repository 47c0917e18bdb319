package topi

import (
	"fmt"

	"repro/internal/ir"
)

// PoolSpec describes a pooling layer.
type PoolSpec struct {
	Name string
	C    int
	H, W int
	F, S int
	Avg  bool // average pooling instead of max
}

// outDims returns the output spatial dims.
func (s PoolSpec) outDims() (int, int) {
	return (s.H-s.F)/s.S + 1, (s.W-s.F)/s.S + 1
}

// Pool2D generates a max/avg pooling kernel. Pooling has no weights, so the
// channelized form can be autorun (§4.7, Table 6.4). The F×F window is fully
// unrolled in the optimized schedule.
func Pool2D(spec PoolSpec, naive bool, io ConvIO, autorun bool) (*Op, error) {
	h2, w2 := spec.outDims()
	if h2 < 1 || w2 < 1 {
		return nil, fmt.Errorf("topi: pool %s output is empty", spec.Name)
	}
	if autorun && (io.InCh == nil || io.OutCh == nil) {
		return nil, fmt.Errorf("topi: autorun pool %s must be fully channelized", spec.Name)
	}
	op := &Op{OutShape: []int{spec.C, h2, w2}, InCh: io.InCh, OutCh: io.OutCh}
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
	var out *ir.Buffer
	if io.OutCh == nil {
		out = ir.NewBuffer(spec.Name+"_out", ir.Global, spec.C, h2, w2)
		op.Out = out
		args = append(args, out)
	}

	c, y, x, fy, fx := ir.V("c"), ir.V("y"), ir.V("x"), ir.V("fy"), ir.V("fx")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	iy := ir.AddE(ir.MulE(cs(spec.S), y), fy)
	ix := ir.AddE(ir.MulE(cs(spec.S), x), fx)
	acc := ir.NewBuffer(spec.Name+"_acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}

	var initVal ir.Expr
	var accStmt ir.Stmt
	var finish ir.Expr
	if spec.Avg {
		initVal = ir.CFloat(0)
		accStmt = &ir.Store{Buf: acc, Index: z,
			Value: ir.AddE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: in, Index: []ir.Expr{c, iy, ix}})}
		finish = ir.MulE(&ir.Load{Buf: acc, Index: z}, ir.CFloat(1/float64(spec.F*spec.F)))
	} else {
		initVal = ir.CFloat(-3.402823e38)
		accStmt = &ir.Store{Buf: acc, Index: z,
			Value: ir.MaxE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: in, Index: []ir.Expr{c, iy, ix}})}
		finish = &ir.Load{Buf: acc, Index: z}
	}

	window := ir.Stmt(accStmt)
	if naive {
		window = ir.Loop(fx, spec.F, window)
		window = ir.Loop(fy, spec.F, window)
	} else {
		window = &ir.For{Var: fx, Extent: cs(spec.F), Unroll: -1, Body: window}
		window = &ir.For{Var: fy, Extent: cs(spec.F), Unroll: -1, Body: window}
	}
	var write ir.Stmt
	if io.OutCh != nil {
		write = &ir.ChannelWrite{Ch: io.OutCh, Value: finish}
	} else {
		write = &ir.Store{Buf: out, Index: []ir.Expr{c, y, x}, Value: finish}
	}
	body := ir.Loop(c, spec.C, ir.Loop(y, h2, ir.Loop(x, w2, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: initVal},
		window,
		write,
	))))
	op.Kernel = &ir.Kernel{Name: spec.Name, Args: args, Autorun: autorun,
		Body: ir.Seq(&ir.Alloc{Buf: acc}, prologue, body)}
	return op, op.Kernel.Validate()
}

// Flatten generates the LeNet flatten layer: in NCHW row-major storage it is
// an element-order-preserving copy, so the channelized form is a pure
// pass-through (and autorun-eligible).
func Flatten(name string, n int, io ConvIO, autorun bool) (*Op, error) {
	op := &Op{OutShape: []int{n}, InCh: io.InCh, OutCh: io.OutCh}
	i := ir.V("i")
	switch {
	case io.InCh != nil && io.OutCh != nil:
		op.Kernel = &ir.Kernel{Name: name, Autorun: autorun,
			Body: ir.Loop(i, n, &ir.ChannelWrite{Ch: io.OutCh, Value: &ir.ChannelRead{Ch: io.InCh}})}
	case io.InCh == nil && io.OutCh == nil:
		in := ir.NewBuffer(name+"_in", ir.Global, n)
		out := ir.NewBuffer(name+"_out", ir.Global, n)
		op.In, op.Out = in, out
		op.Kernel = &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out},
			Body: ir.Loop(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i}, Value: &ir.Load{Buf: in, Index: []ir.Expr{i}}})}
	default:
		return nil, fmt.Errorf("topi: flatten %s must be fully channelized or fully buffered", name)
	}
	if autorun && (io.InCh == nil || io.OutCh == nil) {
		return nil, fmt.Errorf("topi: autorun flatten %s must be channelized", name)
	}
	return op, op.Kernel.Validate()
}
