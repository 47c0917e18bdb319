package topi

import (
	"fmt"

	"repro/internal/ir"
)

// Parameterized kernels (§4.9, §5.3): one kernel per (operation, filter
// size, stride) group, with input/output channels and spatial dims passed as
// runtime scalar arguments, so a single compute unit is time-multiplexed
// over many layers (folded execution). Without the stride-1 workaround of
// Listing 5.11, AOC cannot coalesce the symbolic accesses; the Workaround
// flag reproduces both sides of that trade-off.

// ParamConv is a parameterized convolution kernel plus its symbolic
// interface.
type ParamConv struct {
	Op       *Op
	C1, H, W *ir.Var // input channels and padded input dims
	C2       *ir.Var // output channels
	F, S     int
	Sched    ConvSched
	HasSkip  bool
}

// Bind produces the scalar bindings for one layer invocation.
func (p *ParamConv) Bind(c1, h, w, c2 int) (map[*ir.Var]int64, error) {
	w2 := (w-p.F)/p.S + 1
	if c1%p.Sched.C1vec != 0 || c2%p.Sched.C2vec != 0 || w2%p.Sched.W2vec != 0 {
		return nil, fmt.Errorf("topi: layer (%d,%d,%d)->%d not divisible by tiling %d/%d/%d of kernel %s",
			c1, h, w, c2, p.Sched.W2vec, p.Sched.C2vec, p.Sched.C1vec, p.Op.Kernel.Name)
	}
	return map[*ir.Var]int64{
		p.C1: int64(c1), p.H: int64(h), p.W: int64(w), p.C2: int64(c2),
	}, nil
}

// ConvParam builds a parameterized convolution kernel for a (F, S) group.
// workaround toggles the Listing 5.11 stride-1 fix that lets AOC coalesce.
func ConvParam(name string, f, s int, sched ConvSched, relu, bias, residual, workaround bool) (*ParamConv, error) {
	return ConvParamAct(name, f, s, sched, relu, false, bias, residual, workaround)
}

// ConvParamAct is ConvParam with an explicit ReLU6 selector.
func ConvParamAct(name string, f, s int, sched ConvSched, relu, relu6, bias, residual, workaround bool) (*ParamConv, error) {
	if sched.Naive {
		return nil, fmt.Errorf("topi: parameterized kernels use the optimized schedule")
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
	c1 := ir.Param(name + "_c1")
	h := ir.Param(name + "_h")
	w := ir.Param(name + "_w")
	c2 := ir.Param(name + "_c2")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	h2 := ir.AddE(ir.DivE(ir.SubE(h, cs(f)), cs(s)), cs(1))
	w2 := ir.AddE(ir.DivE(ir.SubE(w, cs(f)), cs(s)), cs(1))

	in := ir.NewBufferE(name+"_in", ir.Global, c1, h, w)
	wt := ir.NewBufferE(name+"_wt", ir.Global, c2, c1, cs(f), cs(f))
	out := ir.NewBufferE(name+"_out", ir.Global, c2, h2, w2)
	bufs := []*ir.Buffer{in, wt, out}
	op := &Op{In: in, Out: out, Weights: wt}
	args := []*ir.Buffer{in, wt}
	var biasBuf, skip *ir.Buffer
	if bias {
		biasBuf = ir.NewBufferE(name+"_b", ir.Global, c2)
		op.Bias = biasBuf
		args = append(args, biasBuf)
		bufs = append(bufs, biasBuf)
	}
	if residual {
		skip = ir.NewBufferE(name+"_skip", ir.Global, c2, h2, w2)
		op.Skip = skip
		args = append(args, skip)
		bufs = append(bufs, skip)
	}
	args = append(args, out)
	for _, b := range bufs {
		b.ExplicitStrides = !workaround
	}

	tmp := ir.NewBuffer(name+"_tmp", ir.Private, sched.C2vec, sched.W2vec)
	ax1o, ax1i := ir.V("ax1o"), ir.V("ax1i")
	yy, xxo, xxi := ir.V("yy"), ir.V("xxo"), ir.V("xxi")
	rco, rci := ir.V("rco"), ir.V("rci")
	ry, rx := ir.V("ry"), ir.V("rx")

	oc := ir.AddE(ir.MulE(ax1o, cs(sched.C2vec)), ax1i)
	ic := ir.AddE(ir.MulE(rco, cs(sched.C1vec)), rci)
	ox := ir.AddE(ir.MulE(xxo, cs(sched.W2vec)), xxi)
	iy := ir.AddE(ir.MulE(cs(s), yy), ry)
	ix := ir.AddE(ir.MulE(cs(s), ox), rx)
	tIdx := []ir.Expr{ax1i, xxi}

	macc := &ir.Store{Buf: tmp, Index: tIdx,
		Value: ir.AddE(&ir.Load{Buf: tmp, Index: tIdx},
			ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{ic, iy, ix}},
				&ir.Load{Buf: wt, Index: []ir.Expr{oc, ic, ry, rx}}))}
	red := ir.Stmt(macc)
	if f > 1 {
		red = &ir.For{Var: rx, Extent: cs(f), Unroll: -1, Body: red}
		red = &ir.For{Var: ry, Extent: cs(f), Unroll: -1, Body: red}
	} else {
		red = ir.SubstStmt(red, rx, ir.CInt(0))
		red = ir.SubstStmt(red, ry, ir.CInt(0))
	}
	red = &ir.For{Var: xxi, Extent: cs(sched.W2vec), Unroll: -1, Body: red}
	red = &ir.For{Var: ax1i, Extent: cs(sched.C2vec), Unroll: -1, Body: red}
	red = &ir.For{Var: rci, Extent: cs(sched.C1vec), Unroll: -1, Body: red}
	reduce := ir.LoopE(rco, ir.DivE(c1, cs(sched.C1vec)), red)

	initLoop := &ir.For{Var: ax1i, Extent: cs(sched.C2vec), Unroll: -1,
		Body: &ir.For{Var: xxi, Extent: cs(sched.W2vec), Unroll: -1,
			Body: &ir.Store{Buf: tmp, Index: tIdx, Value: ir.CFloat(0)}}}

	wv := ir.Expr(&ir.Load{Buf: tmp, Index: tIdx})
	if biasBuf != nil {
		wv = ir.AddE(wv, &ir.Load{Buf: biasBuf, Index: []ir.Expr{oc}})
	}
	if skip != nil {
		wv = ir.AddE(wv, &ir.Load{Buf: skip, Index: []ir.Expr{oc, yy, ox}})
	}
	wv = act(wv, relu, relu6)
	write := ir.Stmt(&ir.Store{Buf: out, Index: []ir.Expr{oc, yy, ox}, Value: wv})
	write = &ir.For{Var: xxi, Extent: cs(sched.W2vec), Unroll: -1, Body: write}
	write = &ir.For{Var: ax1i, Extent: cs(sched.C2vec), Unroll: -1, Body: write}

	body := ir.LoopE(ax1o, ir.DivE(c2, cs(sched.C2vec)),
		ir.LoopE(yy, h2,
			ir.LoopE(xxo, ir.DivE(w2, cs(sched.W2vec)),
				ir.Seq(initLoop, reduce, write))))
	op.Kernel = &ir.Kernel{Name: name, Args: args,
		ScalarArgs: []*ir.Var{c1, h, w, c2},
		Body:       ir.Seq(&ir.Alloc{Buf: tmp}, body)}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamConv{Op: op, C1: c1, H: h, W: w, C2: c2, F: f, S: s, Sched: sched, HasSkip: residual}, nil
}

// ParamDepthwise is a parameterized depthwise convolution.
type ParamDepthwise struct {
	Op      *Op
	C, H, W *ir.Var
	F, S    int
	W2vec   int
}

// Bind produces scalar bindings for one layer invocation.
func (p *ParamDepthwise) Bind(c, h, w int) (map[*ir.Var]int64, error) {
	w2 := (w-p.F)/p.S + 1
	if w2%p.W2vec != 0 {
		return nil, fmt.Errorf("topi: depthwise layer W2=%d not divisible by %d", w2, p.W2vec)
	}
	return map[*ir.Var]int64{p.C: int64(c), p.H: int64(h), p.W: int64(w)}, nil
}

// DepthwiseParamAct builds a parameterized depthwise kernel for an (F, S)
// group with the W2×F×F unrolling of Table 6.7; relu6 selects ReLU6 over
// ReLU.
func DepthwiseParamAct(name string, f, s, w2vec int, relu, relu6, bias, workaround bool) (*ParamDepthwise, error) {
	if w2vec == 0 {
		w2vec = 1
	}
	c := ir.Param(name + "_c")
	h := ir.Param(name + "_h")
	w := ir.Param(name + "_w")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	h2 := ir.AddE(ir.DivE(ir.SubE(h, cs(f)), cs(s)), cs(1))
	w2 := ir.AddE(ir.DivE(ir.SubE(w, cs(f)), cs(s)), cs(1))

	in := ir.NewBufferE(name+"_in", ir.Global, c, h, w)
	wt := ir.NewBufferE(name+"_wt", ir.Global, c, cs(f), cs(f))
	out := ir.NewBufferE(name+"_out", ir.Global, c, h2, w2)
	op := &Op{In: in, Out: out, Weights: wt}
	args := []*ir.Buffer{in, wt}
	var biasBuf *ir.Buffer
	bufs := []*ir.Buffer{in, wt, out}
	if bias {
		biasBuf = ir.NewBufferE(name+"_b", ir.Global, c)
		op.Bias = biasBuf
		args = append(args, biasBuf)
		bufs = append(bufs, biasBuf)
	}
	args = append(args, out)
	for _, b := range bufs {
		b.ExplicitStrides = !workaround
	}

	tmp := ir.NewBuffer(name+"_tmp", ir.Private, w2vec)
	cc, yy, xxo, xxi := ir.V("c"), ir.V("yy"), ir.V("xxo"), ir.V("xxi")
	ry, rx := ir.V("ry"), ir.V("rx")
	ox := ir.AddE(ir.MulE(xxo, cs(w2vec)), xxi)
	iy := ir.AddE(ir.MulE(cs(s), yy), ry)
	ix := ir.AddE(ir.MulE(cs(s), ox), rx)
	macc := &ir.Store{Buf: tmp, Index: []ir.Expr{xxi},
		Value: ir.AddE(&ir.Load{Buf: tmp, Index: []ir.Expr{xxi}},
			ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{cc, iy, ix}},
				&ir.Load{Buf: wt, Index: []ir.Expr{cc, ry, rx}}))}
	red := ir.Stmt(&ir.For{Var: rx, Extent: cs(f), Unroll: -1, Body: macc})
	red = &ir.For{Var: ry, Extent: cs(f), Unroll: -1, Body: red}
	red = &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1, Body: red}
	initLoop := &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1,
		Body: &ir.Store{Buf: tmp, Index: []ir.Expr{xxi}, Value: ir.CFloat(0)}}
	wv := ir.Expr(&ir.Load{Buf: tmp, Index: []ir.Expr{xxi}})
	if biasBuf != nil {
		wv = ir.AddE(wv, &ir.Load{Buf: biasBuf, Index: []ir.Expr{cc}})
	}
	write := ir.Stmt(&ir.Store{Buf: out, Index: []ir.Expr{cc, yy, ox}, Value: act(wv, relu, relu6)})
	write = &ir.For{Var: xxi, Extent: cs(w2vec), Unroll: -1, Body: write}
	body := ir.LoopE(cc, c, ir.LoopE(yy, h2, ir.LoopE(xxo, ir.DivE(w2, cs(w2vec)),
		ir.Seq(initLoop, red, write))))
	op.Kernel = &ir.Kernel{Name: name, Args: args, ScalarArgs: []*ir.Var{c, h, w},
		Body: ir.Seq(&ir.Alloc{Buf: tmp}, body)}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamDepthwise{Op: op, C: c, H: h, W: w, F: f, S: s, W2vec: w2vec}, nil
}

// ParamDense is a parameterized dense layer.
type ParamDense struct {
	Op   *Op
	N, M *ir.Var
	KVec int
}

// Bind produces scalar bindings.
func (p *ParamDense) Bind(n, m int) (map[*ir.Var]int64, error) {
	if n%p.KVec != 0 {
		return nil, fmt.Errorf("topi: dense N=%d not divisible by unroll %d", n, p.KVec)
	}
	return map[*ir.Var]int64{p.N: int64(n), p.M: int64(m)}, nil
}

// DenseParam builds a parameterized dense kernel with the reduction unrolled
// by kvec (Table 6.7: 32).
func DenseParam(name string, kvec int, relu, bias, workaround bool) (*ParamDense, error) {
	if kvec <= 0 {
		return nil, fmt.Errorf("topi: dense unroll must be positive")
	}
	n := ir.Param(name + "_n")
	m := ir.Param(name + "_m")
	in := ir.NewBufferE(name+"_in", ir.Global, n)
	wt := ir.NewBufferE(name+"_wt", ir.Global, m, n)
	out := ir.NewBufferE(name+"_out", ir.Global, m)
	op := &Op{In: in, Out: out, Weights: wt}
	args := []*ir.Buffer{in, wt}
	bufs := []*ir.Buffer{in, wt, out}
	var biasBuf *ir.Buffer
	if bias {
		biasBuf = ir.NewBufferE(name+"_b", ir.Global, m)
		op.Bias = biasBuf
		args = append(args, biasBuf)
		bufs = append(bufs, biasBuf)
	}
	args = append(args, out)
	for _, b := range bufs {
		b.ExplicitStrides = !workaround
	}

	dot := ir.NewBuffer(name+"_dot", ir.Private, 1)
	j, ko, ki := ir.V("j"), ir.V("ko"), ir.V("ki")
	z := []ir.Expr{ir.CInt(0)}
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	kidx := ir.AddE(ir.MulE(ko, cs(kvec)), ki)
	inner := &ir.For{Var: ki, Extent: cs(kvec), Unroll: -1,
		Body: &ir.Store{Buf: dot, Index: z,
			Value: ir.AddE(&ir.Load{Buf: dot, Index: z},
				ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{kidx}}, &ir.Load{Buf: wt, Index: []ir.Expr{j, kidx}}))}}
	wv := act(denseWB(dot, biasBuf, j, z), relu, false)
	body := ir.LoopE(j, m, ir.Seq(
		&ir.Store{Buf: dot, Index: z, Value: ir.CFloat(0)},
		ir.LoopE(ko, ir.DivE(n, cs(kvec)), inner),
		&ir.Store{Buf: out, Index: []ir.Expr{j}, Value: wv},
	))
	op.Kernel = &ir.Kernel{Name: name, Args: args, ScalarArgs: []*ir.Var{n, m},
		Body: ir.Seq(&ir.Alloc{Buf: dot}, body)}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamDense{Op: op, N: n, M: m, KVec: kvec}, nil
}

// ParamPad is a parameterized zero-padding kernel.
type ParamPad struct {
	Op      *Op
	C, H, W *ir.Var
	P       int
}

// Bind produces scalar bindings.
func (p *ParamPad) Bind(c, h, w int) map[*ir.Var]int64 {
	return map[*ir.Var]int64{p.C: int64(c), p.H: int64(h), p.W: int64(w)}
}

// PadParam builds a parameterized padding kernel for pad width p, in the
// modulo-addressed form TVM generates (§6.3.2).
func PadParam(name string, pad int, workaround bool) (*ParamPad, error) {
	if pad < 1 {
		return nil, fmt.Errorf("topi: pad width must be positive")
	}
	c := ir.Param(name + "_c")
	h := ir.Param(name + "_h")
	w := ir.Param(name + "_w")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	hp := ir.AddE(h, cs(2*pad))
	wp := ir.AddE(w, cs(2*pad))
	in := ir.NewBufferE(name+"_in", ir.Global, c, h, w)
	out := ir.NewBufferE(name+"_out", ir.Global, c, hp, wp)
	in.ExplicitStrides = !workaround
	out.ExplicitStrides = !workaround
	op := &Op{In: in, Out: out}

	i := ir.V("i")
	plane := ir.MulE(hp, wp)
	cc := ir.DivE(i, plane)
	rem := ir.ModE(i, plane)
	y := ir.DivE(rem, wp)
	x := ir.ModE(rem, wp)
	inBounds := &ir.Binary{Op: ir.And,
		A: &ir.Binary{Op: ir.And,
			A: &ir.Binary{Op: ir.GE, A: y, B: cs(pad)},
			B: &ir.Binary{Op: ir.LT, A: y, B: ir.AddE(h, cs(pad))}},
		B: &ir.Binary{Op: ir.And,
			A: &ir.Binary{Op: ir.GE, A: x, B: cs(pad)},
			B: &ir.Binary{Op: ir.LT, A: x, B: ir.AddE(w, cs(pad))}}}
	val := &ir.Select{Cond: inBounds,
		A: &ir.Load{Buf: in, Index: []ir.Expr{cc, ir.SubE(y, cs(pad)), ir.SubE(x, cs(pad))}},
		B: ir.CFloat(0)}
	op.Kernel = &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out}, ScalarArgs: []*ir.Var{c, h, w},
		Body: ir.LoopE(i, ir.MulE(c, plane), &ir.Store{Buf: out, Index: []ir.Expr{cc, y, x}, Value: val})}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamPad{Op: op, C: c, H: h, W: w, P: pad}, nil
}

// ParamCopy is a parameterized offset copy: out[off+i] = in[i]. It is the
// kernel behind channel concatenation — a worked example of the thesis's
// extensibility claim: a new operator needs only a compute definition and a
// schedule (§1.1).
type ParamCopy struct {
	Op            *Op
	N, Off, Total *ir.Var
	Vec           int
}

// Bind produces scalar bindings for copying n elements to offset off of an
// output of size total.
func (p *ParamCopy) Bind(n, off, total int) (map[*ir.Var]int64, error) {
	if off+n > total {
		return nil, fmt.Errorf("topi: copy overruns output: off %d + n %d > total %d", off, n, total)
	}
	if n%p.Vec != 0 {
		return nil, fmt.Errorf("topi: copy length %d not divisible by vector width %d", n, p.Vec)
	}
	return map[*ir.Var]int64{p.N: int64(n), p.Off: int64(off), p.Total: int64(total)}, nil
}

// CopyParam builds the parameterized copy kernel, strip-mined by vec and
// unrolled for wide coalesced accesses.
func CopyParam(name string, vec int, workaround bool) (*ParamCopy, error) {
	if vec <= 0 {
		return nil, fmt.Errorf("topi: copy vector width must be positive")
	}
	n := ir.Param(name + "_n")
	off := ir.Param(name + "_off")
	total := ir.Param(name + "_total")
	in := ir.NewBufferE(name+"_in", ir.Global, n)
	out := ir.NewBufferE(name+"_out", ir.Global, total)
	in.ExplicitStrides = !workaround
	out.ExplicitStrides = !workaround
	op := &Op{In: in, Out: out}
	i, u := ir.V("i"), ir.V("u")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	idx := ir.AddE(ir.MulE(i, cs(vec)), u)
	body := ir.LoopE(i, ir.DivE(n, cs(vec)),
		&ir.For{Var: u, Extent: cs(vec), Unroll: -1,
			Body: &ir.Store{Buf: out, Index: []ir.Expr{ir.AddE(off, idx)},
				Value: &ir.Load{Buf: in, Index: []ir.Expr{idx}}}})
	op.Kernel = &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out},
		ScalarArgs: []*ir.Var{n, off, total}, Body: body}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamCopy{Op: op, N: n, Off: off, Total: total, Vec: vec}, nil
}

// ParamPool is a parameterized pooling kernel (max or average).
type ParamPool struct {
	Op      *Op
	C, H, W *ir.Var
	F, S    int
	Avg     bool
}

// Bind produces scalar bindings.
func (p *ParamPool) Bind(c, h, w int) map[*ir.Var]int64 {
	return map[*ir.Var]int64{p.C: int64(c), p.H: int64(h), p.W: int64(w)}
}

// PoolParam builds a parameterized pooling kernel for an (F, S) group.
func PoolParam(name string, f, s int, avg, workaround bool) (*ParamPool, error) {
	c := ir.Param(name + "_c")
	h := ir.Param(name + "_h")
	w := ir.Param(name + "_w")
	cs := func(v int) ir.Expr { return ir.CInt(int64(v)) }
	h2 := ir.AddE(ir.DivE(ir.SubE(h, cs(f)), cs(s)), cs(1))
	w2 := ir.AddE(ir.DivE(ir.SubE(w, cs(f)), cs(s)), cs(1))
	in := ir.NewBufferE(name+"_in", ir.Global, c, h, w)
	out := ir.NewBufferE(name+"_out", ir.Global, c, h2, w2)
	in.ExplicitStrides = !workaround
	out.ExplicitStrides = !workaround
	op := &Op{In: in, Out: out}

	acc := ir.NewBuffer(name+"_acc", ir.Private, 1)
	z := []ir.Expr{ir.CInt(0)}
	cc, y, x, fy, fx := ir.V("c"), ir.V("y"), ir.V("x"), ir.V("fy"), ir.V("fx")
	iy := ir.AddE(ir.MulE(cs(s), y), fy)
	ix := ir.AddE(ir.MulE(cs(s), x), fx)
	var initVal ir.Expr
	var accStmt ir.Stmt
	var fin ir.Expr
	if avg {
		initVal = ir.CFloat(0)
		accStmt = &ir.Store{Buf: acc, Index: z,
			Value: ir.AddE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: in, Index: []ir.Expr{cc, iy, ix}})}
		fin = ir.MulE(&ir.Load{Buf: acc, Index: z}, ir.CFloat(1/float64(f*f)))
	} else {
		initVal = ir.CFloat(-3.402823e38)
		accStmt = &ir.Store{Buf: acc, Index: z,
			Value: ir.MaxE(&ir.Load{Buf: acc, Index: z}, &ir.Load{Buf: in, Index: []ir.Expr{cc, iy, ix}})}
		fin = &ir.Load{Buf: acc, Index: z}
	}
	window := ir.Stmt(&ir.For{Var: fx, Extent: cs(f), Unroll: -1, Body: accStmt})
	window = &ir.For{Var: fy, Extent: cs(f), Unroll: -1, Body: window}
	body := ir.LoopE(cc, c, ir.LoopE(y, h2, ir.LoopE(x, w2, ir.Seq(
		&ir.Store{Buf: acc, Index: z, Value: initVal},
		window,
		&ir.Store{Buf: out, Index: []ir.Expr{cc, y, x}, Value: fin},
	))))
	op.Kernel = &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out}, ScalarArgs: []*ir.Var{c, h, w},
		Body: ir.Seq(&ir.Alloc{Buf: acc}, body)}
	if err := op.Kernel.Validate(); err != nil {
		return nil, err
	}
	return &ParamPool{Op: op, C: c, H: h, W: w, F: f, S: s, Avg: avg}, nil
}
