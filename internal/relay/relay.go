// Package relay is this flow's graph-level IR, mirroring the role TVM's
// Relay plays in the thesis (§2.5, §3.1): models imported from a framework
// become a dataflow graph of operators; graph passes fuse injective
// operators (bias-add, batch-norm, ReLU, residual add) into the complex
// operator that precedes them; and the fused graph lowers to a sequence of
// layer descriptors, one generated kernel per descriptor (one each for every
// convolution, dense, padding and softmax layer — §3.1).
package relay

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Kind enumerates operator kinds.
type Kind int

const (
	KInput Kind = iota
	KConv
	KDepthwise
	KDense
	KMaxPool
	KAvgPool
	KSoftmax
	KReLU
	KReLU6
	KAdd
	KPad
	KFlatten
	KBatchNorm
	// KConcat concatenates feature maps along the channel axis — the
	// Inception-style operator used to demonstrate that new operators only
	// need a compute definition and a schedule (§1.1, §3.1).
	KConcat
)

func (k Kind) String() string {
	switch k {
	case KInput:
		return "input"
	case KConv:
		return "conv2d"
	case KDepthwise:
		return "depthwise_conv2d"
	case KDense:
		return "dense"
	case KMaxPool:
		return "max_pool2d"
	case KAvgPool:
		return "avg_pool2d"
	case KSoftmax:
		return "softmax"
	case KReLU:
		return "relu"
	case KReLU6:
		return "relu6"
	case KAdd:
		return "add"
	case KPad:
		return "pad"
	case KFlatten:
		return "flatten"
	case KBatchNorm:
		return "batch_norm"
	case KConcat:
		return "concat"
	}
	return "?"
}

// Node is one operator in the graph.
type Node struct {
	ID     int
	Kind   Kind
	Name   string
	Inputs []*Node

	// Operator attributes (meaning depends on Kind).
	C2, F, S, P int // filters / window, stride, pad
	Units       int // dense output size

	OutShape []int

	// Parameters.
	W, B *tensor.Tensor
	// BatchNorm folded statistics: gamma/sqrt(var+eps) and beta-mean*scale.
	Scale, Shift *tensor.Tensor
}

// Graph is a single-output operator DAG under construction.
type Graph struct {
	Nodes  []*Node
	Output *Node

	// err records the first construction mistake (shape mismatch, empty
	// output, ...). Builder methods keep returning usable nodes so fluent
	// construction chains don't need per-call error checks; Lower surfaces
	// the deferred error before any kernel is generated.
	err error
}

// NewGraph creates an empty graph.
func NewGraph() *Graph { return &Graph{} }

func (g *Graph) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.Nodes)
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s_%d", n.Kind, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	g.Output = n
	return n
}

// Input declares the network input [C,H,W].
func (g *Graph) Input(c, h, w int) *Node {
	return g.add(&Node{Kind: KInput, OutShape: []int{c, h, w}})
}

// pad zero-pads spatial dims by p.
func (g *Graph) pad(x *Node, p int) *Node {
	s := x.OutShape
	return g.add(&Node{Kind: KPad, Inputs: []*Node{x}, P: p,
		OutShape: []int{s[0], s[1] + 2*p, s[2] + 2*p}})
}

// Conv adds a 2-D convolution (c2 filters, f×f, stride s, pad p). Padding is
// materialized as a distinct Pad node, as TVM's lowering does.
func (g *Graph) Conv(x *Node, name string, c2, f, s, p int) *Node {
	if p > 0 {
		x = g.pad(x, p)
	}
	in := x.OutShape
	h2 := (in[1]-f)/s + 1
	w2 := (in[2]-f)/s + 1
	if h2 < 1 || w2 < 1 {
		g.fail("relay: conv %s output empty (input %v, filter %d, stride %d)", name, in, f, s)
		h2, w2 = 1, 1
	}
	return g.add(&Node{Kind: KConv, Name: name, Inputs: []*Node{x},
		C2: c2, F: f, S: s, OutShape: []int{c2, h2, w2}})
}

// Depthwise adds a depthwise convolution.
func (g *Graph) Depthwise(x *Node, name string, f, s, p int) *Node {
	if p > 0 {
		x = g.pad(x, p)
	}
	in := x.OutShape
	h2 := (in[1]-f)/s + 1
	w2 := (in[2]-f)/s + 1
	return g.add(&Node{Kind: KDepthwise, Name: name, Inputs: []*Node{x},
		C2: in[0], F: f, S: s, OutShape: []int{in[0], h2, w2}})
}

// BatchNorm adds an inference-mode batch normalization (folded into the
// preceding convolution by the fusion pass).
func (g *Graph) BatchNorm(x *Node, name string) *Node {
	return g.add(&Node{Kind: KBatchNorm, Name: name, Inputs: []*Node{x},
		OutShape: x.OutShape})
}

// ReLU adds an activation.
func (g *Graph) ReLU(x *Node) *Node {
	return g.add(&Node{Kind: KReLU, Inputs: []*Node{x}, OutShape: x.OutShape})
}

// ReLU6 adds the clamped activation MobileNetV1 uses (Eq. 2.3).
func (g *Graph) ReLU6(x *Node) *Node {
	return g.add(&Node{Kind: KReLU6, Inputs: []*Node{x}, OutShape: x.OutShape})
}

// Add adds a residual connection a+b.
func (g *Graph) Add(a, b *Node) *Node {
	if fmt.Sprint(a.OutShape) != fmt.Sprint(b.OutShape) {
		g.fail("relay: add shape mismatch %v vs %v", a.OutShape, b.OutShape)
	}
	return g.add(&Node{Kind: KAdd, Inputs: []*Node{a, b}, OutShape: a.OutShape})
}

// Concat concatenates two or more feature maps along the channel axis; the
// spatial dims must match.
func (g *Graph) Concat(xs ...*Node) *Node {
	if len(xs) == 0 {
		g.fail("relay: concat needs at least two inputs")
		return g.add(&Node{Kind: KConcat, OutShape: []int{1, 1, 1}})
	}
	if len(xs) < 2 {
		g.fail("relay: concat needs at least two inputs")
	}
	h, w := xs[0].OutShape[1], xs[0].OutShape[2]
	c := 0
	for _, x := range xs {
		if x.OutShape[1] != h || x.OutShape[2] != w {
			g.fail("relay: concat spatial mismatch %v vs %v", xs[0].OutShape, x.OutShape)
			continue
		}
		c += x.OutShape[0]
	}
	return g.add(&Node{Kind: KConcat, Inputs: xs, OutShape: []int{c, h, w}})
}

// MaxPool adds max pooling. Zero padding before max pooling is only sound
// for non-negative activations; callers place it after ReLU, as ResNet does.
func (g *Graph) MaxPool(x *Node, f, s, p int) *Node {
	if p > 0 {
		x = g.pad(x, p)
	}
	in := x.OutShape
	return g.add(&Node{Kind: KMaxPool, Inputs: []*Node{x}, F: f, S: s,
		OutShape: []int{in[0], (in[1]-f)/s + 1, (in[2]-f)/s + 1}})
}

// AvgPool adds average pooling.
func (g *Graph) AvgPool(x *Node, f, s int) *Node {
	in := x.OutShape
	return g.add(&Node{Kind: KAvgPool, Inputs: []*Node{x}, F: f, S: s,
		OutShape: []int{in[0], (in[1]-f)/s + 1, (in[2]-f)/s + 1}})
}

// Flatten reshapes to a vector.
func (g *Graph) Flatten(x *Node) *Node {
	n := 1
	for _, d := range x.OutShape {
		n *= d
	}
	return g.add(&Node{Kind: KFlatten, Inputs: []*Node{x}, OutShape: []int{n}})
}

// Dense adds a fully-connected layer with units outputs.
func (g *Graph) Dense(x *Node, name string, units int) *Node {
	if len(x.OutShape) != 1 {
		g.fail("relay: dense %s requires flattened input, got shape %v", name, x.OutShape)
	}
	return g.add(&Node{Kind: KDense, Name: name, Inputs: []*Node{x}, Units: units,
		OutShape: []int{units}})
}

// Softmax adds the output activation.
func (g *Graph) Softmax(x *Node) *Node {
	return g.add(&Node{Kind: KSoftmax, Inputs: []*Node{x}, OutShape: x.OutShape})
}

// InitWeights fills every parameterized node with deterministic synthetic
// weights, scaled He-style (1/sqrt(fan-in)) so activations stay bounded
// through deep networks. This replaces the pretrained Keras parameters the
// thesis loads (the values do not affect timing, §6.1.1).
func (g *Graph) InitWeights(seed uint64) {
	for _, n := range g.Nodes {
		switch n.Kind {
		case KConv:
			c1 := n.Inputs[0].OutShape[0]
			n.W = tensor.New(n.C2, c1, n.F, n.F)
			n.W.FillSeq(seed + uint64(n.ID))
			scaleT(n.W, 1/math.Sqrt(float64(c1*n.F*n.F)))
			n.B = tensor.New(n.C2)
			n.B.FillSeq(seed + uint64(n.ID) + 1000)
			scaleT(n.B, 0.1)
		case KDepthwise:
			c := n.Inputs[0].OutShape[0]
			n.W = tensor.New(c, n.F, n.F)
			n.W.FillSeq(seed + uint64(n.ID))
			scaleT(n.W, 1/math.Sqrt(float64(n.F*n.F)))
			n.B = tensor.New(c)
			n.B.FillSeq(seed + uint64(n.ID) + 1000)
			scaleT(n.B, 0.1)
		case KDense:
			nIn := n.Inputs[0].OutShape[0]
			n.W = tensor.New(n.Units, nIn)
			n.W.FillSeq(seed + uint64(n.ID))
			scaleT(n.W, 1/math.Sqrt(float64(nIn)))
			n.B = tensor.New(n.Units)
			n.B.FillSeq(seed + uint64(n.ID) + 1000)
			scaleT(n.B, 0.1)
		case KBatchNorm:
			c := n.Inputs[0].OutShape[0]
			n.Scale = tensor.New(c)
			n.Shift = tensor.New(c)
			n.Scale.FillSeq(seed + uint64(n.ID))
			n.Shift.FillSeq(seed + uint64(n.ID) + 1000)
			for i := range n.Scale.Data {
				// Keep scales near 1 and shifts small.
				n.Scale.Data[i] = 1 + float32(0.1*n.Scale.Data[i])
				n.Shift.Data[i] *= 0.1
			}
		}
	}
}

func scaleT(t *tensor.Tensor, s float64) {
	for i := range t.Data {
		t.Data[i] *= float32(s)
	}
}

// Params counts trainable parameters (weights + biases), the figure the
// thesis reports per network (e.g. 60K for LeNet, 4.2M for MobileNetV1).
func (g *Graph) Params() int64 {
	var n int64
	for _, node := range g.Nodes {
		if node.W != nil {
			n += int64(node.W.Len())
		}
		if node.B != nil {
			n += int64(node.B.Len())
		}
	}
	return n
}

// FLOPs counts floating operations per forward pass as the thesis does
// (§6.1.2): 2 ops per multiply-accumulate, over convolution, depthwise and
// dense layers.
func (g *Graph) FLOPs() int64 {
	var n int64
	for _, node := range g.Nodes {
		switch node.Kind {
		case KConv:
			c1 := node.Inputs[0].OutShape[0]
			n += 2 * int64(node.C2) * int64(node.OutShape[1]) * int64(node.OutShape[2]) *
				int64(c1) * int64(node.F) * int64(node.F)
		case KDepthwise:
			n += 2 * int64(node.OutShape[0]) * int64(node.OutShape[1]) * int64(node.OutShape[2]) *
				int64(node.F) * int64(node.F)
		case KDense:
			n += 2 * int64(node.Units) * int64(node.Inputs[0].OutShape[0])
		}
	}
	return n
}
