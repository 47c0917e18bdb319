// Package topi is this flow's TVM Operator Inventory (§2.5.1): compute
// definitions and schedules for every CNN operator the thesis deploys —
// 2-D convolution (including the 1×1 special case), depthwise convolution,
// dense, max/average pooling, softmax, padding and flatten — each in the
// naive form TVM's default HLS schedule emits (the Chapter 5 "base"
// listings) and in the thesis's optimized form (fused activation, cached
// writes, tiling/unrolling, LICM), plus parameterized (symbolic-shape)
// variants for folded execution (§4.9/§5.3) and channelized variants for
// pipelined execution (§4.6/§4.7).
package topi

import (
	"fmt"

	"repro/internal/ir"
)

// Op bundles a generated kernel with its tensor interface.
type Op struct {
	Kernel *ir.Kernel
	// Global buffer interface (entries are nil when the corresponding side
	// is channelized or absent).
	In, Out, Weights, Bias, Skip *ir.Buffer
	// Scratches are global scratchpad arguments the naive TVM schedules
	// allocate (the host must bind zero-filled buffers for them).
	Scratches []*ir.Buffer
	// Channel interface for pipelined execution.
	InCh, OutCh *ir.Channel
	// OutShape is the constant output shape (nil for symbolic kernels).
	OutShape []int
	// FLOPs counts multiply+add floating operations for one invocation
	// (constant-shape kernels only; zero for symbolic kernels).
	FLOPs int64
}

// requireDiv enforces the thesis's factor-selection requirement 2 (§4.11):
// tiling factors must evenly divide their loop extents — no epilogues.
func requireDiv(what string, n, factor int) error {
	if factor <= 0 {
		return fmt.Errorf("topi: %s factor must be positive, got %d", what, factor)
	}
	if n%factor != 0 {
		return fmt.Errorf("topi: %s extent %d is not divisible by factor %d (the flow generates no epilogue loops)", what, n, factor)
	}
	return nil
}

// act applies the activation: ReLU6 (min(max(x,0),6) — the thesis's Eq. 2.3
// as MobileNetV1 actually defines it), ReLU (max(x,0)), or identity.
func act(x ir.Expr, relu, relu6 bool) ir.Expr {
	if relu6 {
		return ir.MinE(ir.MaxE(x, ir.CFloat(0)), ir.CFloat(6))
	}
	if relu {
		return ir.MaxE(x, ir.CFloat(0))
	}
	return x
}

// chanReadInto builds the local-buffering prologue a channelized consumer
// needs: data read from a channel is discarded once consumed, so kernels
// that re-use inputs must first land them in local memory (§4.6).
func chanReadInto(ch *ir.Channel, local *ir.Buffer, dims []int) ir.Stmt {
	vars := make([]*ir.Var, len(dims))
	idx := make([]ir.Expr, len(dims))
	for i := range dims {
		vars[i] = ir.V(fmt.Sprintf("ld%d", i))
		idx[i] = vars[i]
	}
	body := ir.Stmt(&ir.Store{Buf: local, Index: idx, Value: &ir.ChannelRead{Ch: ch}})
	for i := len(dims) - 1; i >= 0; i-- {
		body = ir.Loop(vars[i], dims[i], body)
	}
	return body
}
