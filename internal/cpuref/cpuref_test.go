package cpuref

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// fromData returns a tensor of the given shape holding a copy of data.
func fromData(data []float32, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	copy(t.Data, data)
	return t
}

// fill sets every element of t to v.
func fill(t *tensor.Tensor, v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

func TestConv2DFigure21Example(t *testing.T) {
	// Figure 2.1 of the thesis: 5x5 input, two 3x3 filters, S=1, P=0 gives a
	// 2x3x3 output. Verify one hand-computed element with simple data.
	in := tensor.New(1, 5, 5)
	for i := range in.Data {
		in.Data[i] = float32(i % 5)
	}
	w := tensor.New(2, 1, 3, 3)
	fill(w, 1)
	out := Conv2D(in, w, nil, 1, 0, false)
	if out.Shape[0] != 2 || out.Shape[1] != 3 || out.Shape[2] != 3 {
		t.Fatalf("shape = %v", out.Shape)
	}
	// Window at (0,0): columns 0,1,2 over 3 rows with values 0,1,2 -> 9.
	if got := out.At(0, 0, 0); got != 9 {
		t.Fatalf("out[0][0][0] = %v, want 9", got)
	}
	// Both filters identical -> identical channels.
	if tensor.MaxAbsDiff(fromData(out.Data[:9], 9), fromData(out.Data[9:], 9)) != 0 {
		t.Fatal("identical filters must give identical channels")
	}
}

func TestConv2DStridePadShapes(t *testing.T) {
	// ResNet conv1 geometry: 7x7/s2/p3 on 224 -> 112 (Table 2.3). Use a
	// reduced filter count to keep the single-core test fast.
	in := tensor.New(3, 224, 224)
	w := tensor.New(4, 3, 7, 7)
	out := Conv2D(in, w, nil, 2, 3, false)
	if out.Shape[0] != 4 || out.Shape[1] != 112 || out.Shape[2] != 112 {
		t.Fatalf("resnet conv1 shape = %v", out.Shape)
	}
}

func TestConv2DBiasAndReLU(t *testing.T) {
	in := tensor.New(1, 3, 3)
	fill(in, 1)
	w := tensor.New(1, 1, 3, 3)
	fill(w, -1)
	bias := tensor.New(1)
	bias.Set(2, 0)
	noRelu := Conv2D(in, w, bias, 1, 0, false)
	if noRelu.At(0, 0, 0) != -7 {
		t.Fatalf("bias conv = %v, want -7", noRelu.At(0, 0, 0))
	}
	relu := Conv2D(in, w, bias, 1, 0, true)
	if relu.At(0, 0, 0) != 0 {
		t.Fatal("relu must clamp negatives")
	}
}

func TestDepthwiseMatchesGroupedConv(t *testing.T) {
	// Depthwise conv == full conv with block-diagonal weights.
	c, h, w, f := 4, 8, 8, 3
	in := tensor.New(c, h, w)
	in.FillSeq(7)
	dw := tensor.New(c, f, f)
	dw.FillSeq(8)
	full := tensor.New(c, c, f, f)
	for ch := 0; ch < c; ch++ {
		for fy := 0; fy < f; fy++ {
			for fx := 0; fx < f; fx++ {
				full.Set(dw.At(ch, fy, fx), ch, ch, fy, fx)
			}
		}
	}
	got := DepthwiseConv2D(in, dw, nil, 1, 1, false)
	want := Conv2D(in, full, nil, 1, 1, false)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Fatalf("depthwise != block-diagonal conv, maxdiff %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestDenseMatchesManual(t *testing.T) {
	in := fromData([]float32{1, 2, 3}, 3)
	w := fromData([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	b := fromData([]float32{10, -10}, 2)
	out := Dense(in, w, b, false)
	if out.At(0) != 11 || out.At(1) != -5 {
		t.Fatalf("dense = %v", out.Data)
	}
	if r := Dense(in, w, b, true); r.At(1) != 0 {
		t.Fatal("dense relu failed")
	}
}

func TestPooling(t *testing.T) {
	in := fromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16}, 1, 4, 4)
	mx := MaxPool2D(in, 2, 2)
	if mx.At(0, 0, 0) != 6 || mx.At(0, 1, 1) != 16 {
		t.Fatalf("maxpool = %v", mx.Data)
	}
	av := AvgPool2D(in, 2, 2)
	if av.At(0, 0, 0) != 3.5 || av.At(0, 1, 1) != 13.5 {
		t.Fatalf("avgpool = %v", av.Data)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	in := fromData([]float32{1, 2, 3, 4, 1000}, 5)
	out := Softmax(in)
	if s := out.Sum(); math.Abs(s-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", s)
	}
	// Stabilized against overflow: the huge logit must not produce NaN/Inf.
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax not numerically stable")
		}
	}
	if out.ArgMax() != 4 {
		t.Fatal("softmax must preserve argmax")
	}
}

func TestPad2D(t *testing.T) {
	in := tensor.New(2, 3, 3)
	fill(in, 5)
	out := Pad2D(in, 2)
	if out.Shape[1] != 7 || out.Shape[2] != 7 {
		t.Fatalf("pad shape = %v", out.Shape)
	}
	if out.At(0, 0, 0) != 0 || out.At(0, 2, 2) != 5 || out.At(1, 6, 6) != 0 {
		t.Fatal("pad values wrong")
	}
	if s := out.Sum(); s != 2*9*5 {
		t.Fatalf("pad must preserve mass: %v", s)
	}
}

func TestAddAndReLU(t *testing.T) {
	a := fromData([]float32{-1, 2}, 2)
	b := fromData([]float32{3, -4}, 2)
	s := Add(a, b)
	if s.At(0) != 2 || s.At(1) != -2 {
		t.Fatalf("add = %v", s.Data)
	}
	r := ReLU(s)
	if r.At(0) != 2 || r.At(1) != 0 {
		t.Fatalf("relu = %v", r.Data)
	}
	if a.At(0) != -1 {
		t.Fatal("Add must not mutate inputs")
	}
}

func TestConv2DParallelMatchesSerial(t *testing.T) {
	in := tensor.New(8, 14, 14)
	in.FillSeq(1)
	w := tensor.New(16, 8, 3, 3)
	w.FillSeq(2)
	bias := tensor.New(16)
	bias.FillSeq(3)
	serial := Conv2D(in, w, bias, 2, 1, true)
	for _, workers := range []int{2, 4, 16} {
		par := Conv2DGEMM(in, w, bias, 2, 1, true, workers)
		if tensor.MaxAbsDiff(serial, par) != 0 {
			t.Fatalf("parallel(%d) diverges from serial", workers)
		}
	}
}

// Property: convolving with a one-hot filter centered at the origin with
// padding reproduces the input channel.
func TestQuickConvIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		in := tensor.New(2, 6, 6)
		in.FillSeq(seed)
		w := tensor.New(1, 2, 3, 3)
		w.Set(1, 0, 0, 1, 1) // center tap of channel 0
		out := Conv2D(in, w, nil, 1, 1, false)
		want := fromData(in.Data[:36], 1, 6, 6)
		return tensor.AllClose(out, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is always a probability vector.
func TestQuickSoftmaxSimplex(t *testing.T) {
	f := func(seed uint64) bool {
		in := tensor.New(17)
		in.FillSeq(seed)
		out := Softmax(in)
		var sum float64
		for _, v := range out.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ---- baseline models ----

func TestBaselineAnchors(t *testing.T) {
	// 1-thread TVM anchors from Tables 6.10/6.12/6.15 (within 5%).
	anchors := map[string]float64{"lenet5": 2345, "mobilenetv1": 15.6, "resnet18": 5.8, "resnet34": 1.2}
	for net, want := range anchors {
		got, err := TVMCPUFPS(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s TVM-1T = %.1f FPS, thesis anchor %.1f", net, got, want)
		}
	}
}

func TestBaselineCurveShapes(t *testing.T) {
	// LeNet: more threads never help much and eventually hurt (§6.4.1).
	l1, _ := TVMCPUFPS("lenet5", 1)
	l56, _ := TVMCPUFPS("lenet5", 56)
	if l56 >= l1 {
		t.Fatalf("LeNet must degrade with 56 threads: %v vs %v", l56, l1)
	}
	// MobileNet: near-linear to 16 threads (§6.4.2).
	m1, _ := TVMCPUFPS("mobilenetv1", 1)
	m16, _ := TVMCPUFPS("mobilenetv1", 16)
	if m16 < 4*m1 {
		t.Fatalf("MobileNet must scale well to 16T: %v vs %v", m16, m1)
	}
	// ResNet-18 at 56T lands near the thesis's 54.3 FPS.
	r56, _ := TVMCPUFPS("resnet18", 56)
	if math.Abs(r56-54.3)/54.3 > 0.15 {
		t.Fatalf("ResNet-18 TVM-56T = %v, thesis 54.3", r56)
	}
}

func TestBestTVMThreads(t *testing.T) {
	n, fps, err := BestTVMThreads("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	if n > 4 {
		t.Fatalf("LeNet best thread count should be tiny, got %d (%.0f FPS)", n, fps)
	}
	n2, _, _ := BestTVMThreads("mobilenetv1")
	if n2 < 8 {
		t.Fatalf("MobileNet best thread count should be large, got %d", n2)
	}
}

func TestAnchorsTFAndGPU(t *testing.T) {
	fps, threads, err := TFCPUFPS("lenet5")
	if err != nil || fps != 1075 || threads != 4 {
		t.Fatalf("TF LeNet anchor wrong: %v %v %v", fps, threads, err)
	}
	g, err := GPUFPS("resnet34")
	if err != nil || g != 31.7 {
		t.Fatalf("GPU ResNet-34 anchor wrong: %v %v", g, err)
	}
	if _, err := GPUFPS("vgg"); err == nil {
		t.Fatal("unknown net must error")
	}
}
