package topi

import (
	"fmt"

	"repro/internal/ir"
)

// DenseSpec describes a fully-connected layer: out[M] = W[M,N]·in[N] + bias.
type DenseSpec struct {
	Name  string
	N, M  int
	Relu  bool
	Relu6 bool
	Bias  bool
}

// flopCount returns multiply+add ops.
func (s DenseSpec) flopCount() int64 { return 2 * int64(s.M) * int64(s.N) }

// Dense generates a fully-connected kernel. naive follows Listing 5.5
// (global dot scratchpad, serial row loop); otherwise the Listing 5.6
// schedule applies: private accumulator, reduction strip-mined by kvec and
// unrolled.
func Dense(spec DenseSpec, naive bool, kvec int, io ConvIO) (*Op, error) {
	if kvec == 0 {
		kvec = 1
	}
	if !naive {
		if err := requireDiv(spec.Name+" N", spec.N, kvec); err != nil {
			return nil, err
		}
	}
	op := &Op{OutShape: []int{spec.M}, FLOPs: spec.flopCount(), InCh: io.InCh, OutCh: io.OutCh}
	wt := ir.NewBuffer(spec.Name+"_w", ir.Global, spec.M, spec.N)
	op.Weights = wt
	args := []*ir.Buffer{}

	var in *ir.Buffer
	var prologue ir.Stmt
	if io.InCh != nil {
		// The dense layer re-reads the whole input per output row; channel
		// input must be staged in local memory (§4.6).
		in = ir.NewBuffer(spec.Name+"_inl", ir.Local, spec.N)
		prologue = ir.Seq(&ir.Alloc{Buf: in}, chanReadInto(io.InCh, in, []int{spec.N}))
	} else {
		in = ir.NewBuffer(spec.Name+"_in", ir.Global, spec.N)
		op.In = in
		args = append(args, in)
	}
	args = append(args, wt)
	var bias *ir.Buffer
	if spec.Bias {
		bias = ir.NewBuffer(spec.Name+"_b", ir.Global, spec.M)
		op.Bias = bias
		args = append(args, bias)
	}
	var out *ir.Buffer
	if io.OutCh == nil {
		out = ir.NewBuffer(spec.Name+"_out", ir.Global, spec.M)
		op.Out = out
		args = append(args, out)
	}

	j := ir.V("j")
	z := []ir.Expr{ir.CInt(0)}
	if naive {
		if io.InCh != nil || io.OutCh != nil {
			return nil, fmt.Errorf("topi: naive dense cannot be channelized")
		}
		dot := ir.NewBuffer(spec.Name+"_dot", ir.Global, 1)
		op.Scratches = append(op.Scratches, dot)
		args = append([]*ir.Buffer{dot}, args...)
		k := ir.V("k")
		body := ir.Loop(j, spec.M, ir.Seq(
			&ir.Store{Buf: dot, Index: z, Value: ir.CFloat(0)},
			ir.Loop(k, spec.N, &ir.Store{Buf: dot, Index: z,
				Value: ir.AddE(&ir.Load{Buf: dot, Index: z},
					ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{k}}, &ir.Load{Buf: wt, Index: []ir.Expr{j, k}}))}),
			&ir.Store{Buf: out, Index: []ir.Expr{j}, Value: act(denseWB(dot, bias, j, z), spec.Relu, spec.Relu6)},
		))
		op.Kernel = &ir.Kernel{Name: spec.Name, Args: args, Body: body}
		return op, op.Kernel.Validate()
	}

	dot := ir.NewBuffer(spec.Name+"_dot", ir.Private, 1)
	ko, ki := ir.V("ko"), ir.V("ki")
	kidx := ir.AddE(ir.MulE(ko, ir.CInt(int64(kvec))), ki)
	inner := &ir.For{Var: ki, Extent: ir.CInt(int64(kvec)), Unroll: -1,
		Body: &ir.Store{Buf: dot, Index: z,
			Value: ir.AddE(&ir.Load{Buf: dot, Index: z},
				ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{kidx}}, &ir.Load{Buf: wt, Index: []ir.Expr{j, kidx}}))}}
	wv := act(denseWB(dot, bias, j, z), spec.Relu, spec.Relu6)
	var write ir.Stmt
	if io.OutCh != nil {
		write = &ir.ChannelWrite{Ch: io.OutCh, Value: wv}
	} else {
		write = &ir.Store{Buf: out, Index: []ir.Expr{j}, Value: wv}
	}
	body := ir.Loop(j, spec.M, ir.Seq(
		&ir.Store{Buf: dot, Index: z, Value: ir.CFloat(0)},
		ir.Loop(ko, spec.N/kvec, inner),
		write,
	))
	op.Kernel = &ir.Kernel{Name: spec.Name, Args: args,
		Body: ir.Seq(&ir.Alloc{Buf: dot}, prologue, body)}
	return op, op.Kernel.Validate()
}

func denseWB(dot, bias *ir.Buffer, j *ir.Var, z []ir.Expr) ir.Expr {
	v := ir.Expr(&ir.Load{Buf: dot, Index: z})
	if bias != nil {
		v = ir.AddE(v, &ir.Load{Buf: bias, Index: []ir.Expr{j}})
	}
	return v
}
