package relay

import (
	"fmt"

	"repro/internal/cpuref"
	"repro/internal/tensor"
)

// Layer is one lowered, fused layer: the unit that becomes a single OpenCL
// kernel invocation (§3.1: "a distinct kernel generated for each
// convolution, dense, padding, and softmax layer"). Injective operators
// (batch-norm, bias, ReLU, residual add) have been fused into their
// producing complex operator.
type Layer struct {
	Name string
	Kind Kind
	// In is the index of the producing layer in the lowered list (-1 means
	// the network input). Skip is the layer whose output is added before the
	// activation (fused residual; -1 refers to the network input); it is
	// only meaningful when HasSkip is set.
	In, Skip int
	HasSkip  bool
	// Ins lists all producing layers for multi-input layers (concat); for
	// those, In holds Ins[0].
	Ins      []int
	InShape  []int
	OutShape []int
	F, S, P  int
	Relu     bool
	Relu6    bool
	W, B     *tensor.Tensor
}

// FLOPs counts multiply+add ops for this layer.
func (l *Layer) FLOPs() int64 {
	switch l.Kind {
	case KConv:
		return 2 * int64(l.OutShape[0]) * int64(l.OutShape[1]) * int64(l.OutShape[2]) *
			int64(l.InShape[0]) * int64(l.F) * int64(l.F)
	case KDepthwise:
		return 2 * int64(l.OutShape[0]) * int64(l.OutShape[1]) * int64(l.OutShape[2]) *
			int64(l.F) * int64(l.F)
	case KDense:
		return 2 * int64(l.OutShape[0]) * int64(l.InShape[0])
	}
	return 0
}

// Lower runs operator fusion over the graph and returns the layer sequence.
// Weights must already be initialized (BN folding rewrites them).
func Lower(g *Graph) ([]*Layer, error) {
	if g.Output == nil {
		return nil, fmt.Errorf("relay: empty graph")
	}
	if err := g.err; err != nil {
		return nil, fmt.Errorf("relay: graph construction failed: %w", err)
	}
	var layers []*Layer
	layerOf := map[*Node]int{}
	consumers := map[*Node]int{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumers[in]++
		}
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KInput:
			layerOf[n] = -1
		case KConcat:
			l := &Layer{Name: n.Name, Kind: n.Kind, In: layerOf[n.Inputs[0]], Skip: -1,
				InShape: n.Inputs[0].OutShape, OutShape: n.OutShape}
			for _, in := range n.Inputs {
				l.Ins = append(l.Ins, layerOf[in])
			}
			layers = append(layers, l)
			layerOf[n] = len(layers) - 1
		case KPad, KMaxPool, KAvgPool, KFlatten, KSoftmax:
			l := &Layer{Name: n.Name, Kind: n.Kind, In: layerOf[n.Inputs[0]], Skip: -1,
				InShape: n.Inputs[0].OutShape, OutShape: n.OutShape, F: n.F, S: n.S, P: n.P}
			layers = append(layers, l)
			layerOf[n] = len(layers) - 1
		case KConv, KDepthwise, KDense:
			if n.W == nil {
				return nil, fmt.Errorf("relay: node %s has no weights; call InitWeights first", n.Name)
			}
			l := &Layer{Name: n.Name, Kind: n.Kind, In: layerOf[n.Inputs[0]], Skip: -1,
				InShape: n.Inputs[0].OutShape, OutShape: n.OutShape, F: n.F, S: n.S,
				W: n.W.Clone()}
			if n.B != nil {
				l.B = n.B.Clone()
			}
			layers = append(layers, l)
			layerOf[n] = len(layers) - 1
		case KBatchNorm:
			// Fold into the producing conv/depthwise layer (§3.1: batch
			// normalizations fused to the output of convolutions).
			idx := layerOf[n.Inputs[0]]
			if idx < 0 {
				return nil, fmt.Errorf("relay: batch_norm %s has no producing layer", n.Name)
			}
			l := layers[idx]
			if l.Kind != KConv && l.Kind != KDepthwise {
				return nil, fmt.Errorf("relay: cannot fold batch_norm into %s layer %s", l.Kind, l.Name)
			}
			foldBN(l, n.Scale, n.Shift)
			layerOf[n] = idx
		case KReLU, KReLU6:
			idx := layerOf[n.Inputs[0]]
			if idx < 0 {
				return nil, fmt.Errorf("relay: relu on network input")
			}
			switch layers[idx].Kind {
			case KConv, KDepthwise, KDense:
				if n.Kind == KReLU6 {
					layers[idx].Relu6 = true
				} else {
					layers[idx].Relu = true
				}
			default:
				return nil, fmt.Errorf("relay: cannot fuse relu into %s layer", layers[idx].Kind)
			}
			layerOf[n] = idx
		case KAdd:
			// Residual connection: fuse into whichever input is a
			// convolution layer that this add exclusively consumes.
			a, b := n.Inputs[0], n.Inputs[1]
			anchor, skip := a, b
			if !(layerIsConv(layers, layerOf[anchor]) && consumers[anchor] == 1) {
				anchor, skip = b, a
			}
			idx := layerOf[anchor]
			if !(layerIsConv(layers, idx) && consumers[anchor] == 1) {
				return nil, fmt.Errorf("relay: add %s has no fusible convolution input", n.Name)
			}
			if layers[idx].HasSkip {
				return nil, fmt.Errorf("relay: layer %s already has a fused residual", layers[idx].Name)
			}
			if layers[idx].Relu || layers[idx].Relu6 {
				return nil, fmt.Errorf("relay: residual must be added before the activation of %s", layers[idx].Name)
			}
			layers[idx].Skip = layerOf[skip]
			layers[idx].HasSkip = true
			layerOf[n] = idx
		default:
			return nil, fmt.Errorf("relay: cannot lower node kind %s", n.Kind)
		}
	}
	return layers, nil
}

func layerIsConv(layers []*Layer, idx int) bool {
	return idx >= 0 && (layers[idx].Kind == KConv || layers[idx].Kind == KDepthwise)
}

func foldBN(l *Layer, scale, shift *tensor.Tensor) {
	c2 := l.OutShape[0]
	per := l.W.Len() / c2
	for k := 0; k < c2; k++ {
		s := scale.At(k)
		for i := 0; i < per; i++ {
			l.W.Data[k*per+i] *= s
		}
		if l.B == nil {
			l.B = tensor.New(c2)
		}
		l.B.Data[k] = float32(l.B.Data[k]*s) + shift.At(k)
	}
}

// Execute runs the lowered layer sequence with the native references — the
// functional golden model for end-to-end checks (the stand-in for verifying
// accelerator output against Keras). Convolutions run serially (workers=1):
// Execute is called from inside already-parallel contexts (host.RunBatch
// workers, the serve ladder's cpuref rung, the fleet's last-resort device),
// where nesting a per-conv goroutine fan-out would oversubscribe the machine
// W-fold. Standalone callers that own the whole machine should use
// ExecuteWorkers.
func Execute(layers []*Layer, input *tensor.Tensor) (*tensor.Tensor, error) {
	return ExecuteWorkers(layers, input, 1)
}

// ExecuteWorkers is Execute with an explicit GEMM worker count for the
// convolution layers (<=0 selects GOMAXPROCS, capped; see cpuref.Conv2DGEMM).
// The row-panel split is static, so the output is bit-identical for every
// worker count. Pass workers=1 from any context that is itself running on a
// worker pool.
func ExecuteWorkers(layers []*Layer, input *tensor.Tensor, workers int) (*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(layers))
	get := func(idx int) *tensor.Tensor {
		if idx < 0 {
			return input
		}
		return outs[idx]
	}
	for i, l := range layers {
		in := get(l.In)
		var out *tensor.Tensor
		switch l.Kind {
		case KPad:
			out = cpuref.Pad2D(in, l.P)
		case KConv:
			out = cpuref.Conv2DGEMM(in, l.W, l.B, l.S, 0, false, workers)
			if l.HasSkip {
				out = cpuref.Add(out, get(l.Skip))
			}
			if l.Relu {
				out = cpuref.ReLU(out)
			}
			if l.Relu6 {
				out = cpuref.ReLU6(out)
			}
		case KDepthwise:
			out = cpuref.DepthwiseConv2D(in, l.W, l.B, l.S, 0, l.Relu)
			if l.Relu6 {
				out = cpuref.ReLU6(out)
			}
		case KDense:
			out = cpuref.Dense(in, l.W, l.B, l.Relu)
			if l.Relu6 {
				out = cpuref.ReLU6(out)
			}
		case KMaxPool:
			out = cpuref.MaxPool2D(in, l.F, l.S)
		case KAvgPool:
			out = cpuref.AvgPool2D(in, l.F, l.S)
		case KFlatten:
			out = in.Reshape(l.OutShape...)
		case KSoftmax:
			out = cpuref.Softmax(in)
		case KConcat:
			parts := make([]*tensor.Tensor, len(l.Ins))
			for i, idx := range l.Ins {
				parts[i] = get(idx)
			}
			out = cpuref.ConcatChannels(parts...)
		default:
			return nil, fmt.Errorf("relay: cannot execute layer kind %s", l.Kind)
		}
		outs[i] = out
	}
	return outs[len(outs)-1], nil
}
