// Package cpuref provides two things:
//
//  1. Native Go reference implementations of every CNN operator (ops.go).
//     These are the golden models: every IR schedule — naive or optimized,
//     pipelined or folded — is checked numerically against them, which is
//     this reproduction's equivalent of the thesis's on-hardware output
//     verification (§5.2 "output verification and debugging capabilities").
//
//  2. Analytic performance models of the thesis's CPU/GPU baselines
//     (baselines.go): Keras/TensorFlow on the Xeon 8280, TVM's LLVM backend
//     at 1–56 threads, and TensorFlow+cuDNN on the GTX 1060.
package cpuref

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Conv2D computes a NCHW 2-D convolution (cross-correlation) with square
// filter f, stride s and zero padding p, with optional fused bias and ReLU —
// Eq. 2.1 of the thesis. in: [C1,H1,W1]; w: [C2,C1,F,F]; bias: [C2] or nil.
// Execution is lowered to an implicit GEMM on the cache-blocked kernel
// (gemm.go), which gathers the patch matrix strip by strip and never builds
// it; the direct loop nest survives as conv2DNaive, the test oracle.
func Conv2D(in, w, bias *tensor.Tensor, s, p int, relu bool) *tensor.Tensor {
	return Conv2DGEMM(in, w, bias, s, p, relu, 1)
}

// conv2DNaive is the direct 6-deep loop nest, kept as the independent oracle
// the GEMM path is tested against.
func conv2DNaive(in, w, bias *tensor.Tensor, s, p int, relu bool) *tensor.Tensor {
	c1, h1, w1 := in.Shape[0], in.Shape[1], in.Shape[2]
	c2, f := w.Shape[0], w.Shape[2]
	// Invariant, not input validation: every shape reaching cpuref was
	// produced by relay's shape inference, so a mismatch is a lowering bug.
	if w.Shape[1] != c1 {
		panic(fmt.Sprintf("cpuref: conv weights expect %d input channels, got %d", w.Shape[1], c1))
	}
	h2 := (h1-f+2*p)/s + 1
	w2 := (w1-f+2*p)/s + 1
	out := tensor.New(c2, h2, w2)
	for k := 0; k < c2; k++ {
		var b float32
		if bias != nil {
			b = bias.At(k)
		}
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				sum := b
				for c := 0; c < c1; c++ {
					for fy := 0; fy < f; fy++ {
						iy := s*y + fy - p
						if iy < 0 || iy >= h1 {
							continue
						}
						for fx := 0; fx < f; fx++ {
							ix := s*x + fx - p
							if ix < 0 || ix >= w1 {
								continue
							}
							sum += float32(in.At(c, iy, ix) * w.At(k, c, fy, fx))
						}
					}
				}
				if relu && sum < 0 {
					sum = 0
				}
				out.Set(sum, k, y, x)
			}
		}
	}
	return out
}

// DepthwiseConv2D applies one FxF filter per channel (§2.1.2).
// in: [C,H,W]; w: [C,F,F]; bias: [C] or nil.
func DepthwiseConv2D(in, w, bias *tensor.Tensor, s, p int, relu bool) *tensor.Tensor {
	c, h1, w1 := in.Shape[0], in.Shape[1], in.Shape[2]
	f := w.Shape[1]
	h2 := (h1-f+2*p)/s + 1
	w2 := (w1-f+2*p)/s + 1
	out := tensor.New(c, h2, w2)
	for ch := 0; ch < c; ch++ {
		var b float32
		if bias != nil {
			b = bias.At(ch)
		}
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				sum := b
				for fy := 0; fy < f; fy++ {
					iy := s*y + fy - p
					if iy < 0 || iy >= h1 {
						continue
					}
					for fx := 0; fx < f; fx++ {
						ix := s*x + fx - p
						if ix < 0 || ix >= w1 {
							continue
						}
						sum += float32(in.At(ch, iy, ix) * w.At(ch, fy, fx))
					}
				}
				if relu && sum < 0 {
					sum = 0
				}
				out.Set(sum, ch, y, x)
			}
		}
	}
	return out
}

// Dense computes y = Wx + bias with optional ReLU. in: [N]; w: [M,N].
func Dense(in, w, bias *tensor.Tensor, relu bool) *tensor.Tensor {
	m, n := w.Shape[0], w.Shape[1]
	// Invariant: see Conv2D — shapes are relay-inferred, never external.
	if in.Len() != n {
		panic(fmt.Sprintf("cpuref: dense expects input %d, got %d", n, in.Len()))
	}
	out := tensor.New(m)
	for j := 0; j < m; j++ {
		var sum float32
		if bias != nil {
			sum = bias.At(j)
		}
		for k := 0; k < n; k++ {
			sum += float32(in.Data[k] * w.At(j, k))
		}
		if relu && sum < 0 {
			sum = 0
		}
		out.Set(sum, j)
	}
	return out
}

// MaxPool2D pools FxF regions with stride s. in: [C,H,W].
func MaxPool2D(in *tensor.Tensor, f, s int) *tensor.Tensor {
	c, h1, w1 := in.Shape[0], in.Shape[1], in.Shape[2]
	h2 := (h1-f)/s + 1
	w2 := (w1-f)/s + 1
	out := tensor.New(c, h2, w2)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				best := float32(math.Inf(-1))
				for fy := 0; fy < f; fy++ {
					for fx := 0; fx < f; fx++ {
						if v := in.At(ch, s*y+fy, s*x+fx); v > best {
							best = v
						}
					}
				}
				out.Set(best, ch, y, x)
			}
		}
	}
	return out
}

// AvgPool2D averages FxF regions with stride s.
func AvgPool2D(in *tensor.Tensor, f, s int) *tensor.Tensor {
	c, h1, w1 := in.Shape[0], in.Shape[1], in.Shape[2]
	h2 := (h1-f)/s + 1
	w2 := (w1-f)/s + 1
	out := tensor.New(c, h2, w2)
	inv := 1 / float32(f*f)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				var sum float32
				for fy := 0; fy < f; fy++ {
					for fx := 0; fx < f; fx++ {
						sum += in.At(ch, s*y+fy, s*x+fx)
					}
				}
				out.Set(sum*inv, ch, y, x)
			}
		}
	}
	return out
}

// Softmax normalizes to probabilities with the max-subtraction
// stabilization TVM uses (Eq. 2.4, §2.1.2).
func Softmax(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape...)
	maxv := float32(math.Inf(-1))
	for _, v := range in.Data {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range in.Data {
		e := float32(math.Exp(float64(v - maxv)))
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// ReLU6 applies min(max(0,x),6) elementwise (the thesis's Eq. 2.3, as
// MobileNetV1 defines it).
func ReLU6(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else if v > 6 {
			out.Data[i] = 6
		}
	}
	return out
}

// ReLU applies max(0,x) elementwise.
func ReLU(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	_ = in
	return out
}

// Pad2D zero-pads the spatial dims of a [C,H,W] tensor by p on every side.
func Pad2D(in *tensor.Tensor, p int) *tensor.Tensor {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	out := tensor.New(c, h+2*p, w+2*p)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set(in.At(ch, y, x), ch, y+p, x+p)
			}
		}
	}
	return out
}

// ConcatChannels concatenates [C,H,W] tensors along the channel axis.
func ConcatChannels(parts ...*tensor.Tensor) *tensor.Tensor {
	h, w := parts[0].Shape[1], parts[0].Shape[2]
	c := 0
	for _, p := range parts {
		// Invariant: relay.Concat defers a construction error on spatial
		// mismatch, so parts reaching here always agree.
		if p.Shape[1] != h || p.Shape[2] != w {
			panic("cpuref: concat spatial mismatch")
		}
		c += p.Shape[0]
	}
	out := tensor.New(c, h, w)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:off+p.Len()], p.Data)
		off += p.Len()
	}
	return out
}

// Add returns a+b elementwise (residual connections).
func Add(a, b *tensor.Tensor) *tensor.Tensor {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}
