package host

import (
	"math"
	"strings"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topi"
)

func lenetLayers(t *testing.T) []*relay.Layer {
	t.Helper()
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		t.Fatal(err)
	}
	return layers
}

func TestPipelinedVariantsMatchGolden(t *testing.T) {
	layers := lenetLayers(t)
	input := nn.Digit(3)
	want, err := relay.Execute(layers, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range PipeVariants {
		p, err := BuildPipelined(layers, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !p.Design.Synthesizable() {
			t.Fatalf("%s: %v", v, p.Design.Err())
		}
		got, err := p.Infer(input)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !tensor.AllClose(got, want, 1e-4) {
			t.Fatalf("%s diverges from golden: %v", v, tensor.MaxAbsDiff(got, want))
		}
		if got.ArgMax() != want.ArgMax() {
			t.Fatalf("%s changes the classification", v)
		}
	}
}

func TestPipelinedOptimizationLadder(t *testing.T) {
	layers := lenetLayers(t)
	fpsOf := func(v PipeVariant, concurrent bool) float64 {
		p, err := BuildPipelined(layers, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(20, concurrent, false)
		if err != nil {
			t.Fatal(err)
		}
		return r.FPS
	}
	base := fpsOf(PipeBase, false)
	unroll := fpsOf(PipeUnroll, false)
	channels := fpsOf(PipeChannels, false)
	autorun := fpsOf(PipeAutorun, false)
	autorunCE := fpsOf(PipeAutorun, true)
	tvmCE := fpsOf(PipeTVMAutorun, true)

	// The Table 6.4 / Fig 6.1 ladder: each optimization helps.
	if !(base < unroll && unroll < channels && channels <= autorun && autorun < autorunCE) {
		t.Fatalf("ladder not monotone: base=%.0f unroll=%.0f channels=%.0f autorun=%.0f autorun[CE]=%.0f",
			base, unroll, channels, autorun, autorunCE)
	}
	// Best config lands in the thesis's 6-10x-over-base band (§6.3.1).
	speedup := tvmCE / base
	if speedup < 4 || speedup > 16 {
		t.Fatalf("best/base speedup = %.2f, thesis band ~6-10x", speedup)
	}
	// TVM-automated kernels match the hand-applied ones.
	if math.Abs(tvmCE-autorunCE)/autorunCE > 0.05 {
		t.Fatalf("TVM-Autorun (%.0f) should match Autorun (%.0f)", tvmCE, autorunCE)
	}
}

func TestPipelinedRejectsResiduals(t *testing.T) {
	g, _ := nn.ResNet(18)
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPipelined(layers, PipeChannels, fpga.S10SX, aoc.DefaultOptions); err == nil ||
		!strings.Contains(err.Error(), "linear chain") {
		t.Fatalf("want linear-chain error, got %v", err)
	}
}

func TestPipelinedProfilingBreakdown(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeBase, fpga.S10MX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(10, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown["write"] <= 0 || r.Breakdown["kernel"] <= 0 || r.Breakdown["read"] <= 0 {
		t.Fatalf("incomplete breakdown: %v", r.Breakdown)
	}
	// Fig. 6.2: on the S10MX the write time dominates kernel+read by a wide
	// margin for LeNet-sized transfers.
	if r.Breakdown["write"] < r.Breakdown["read"] {
		t.Fatalf("S10MX writes must dominate reads: %v", r.Breakdown)
	}
}

func lenetFoldedConfig() FoldedConfig {
	return FoldedConfig{
		Conv:       map[string]topi.ConvSched{"conv3x3s1": topi.OptSched(1, 1, 1)},
		DenseVec:   4,
		Workaround: true,
	}
}

func TestFoldedLeNetMatchesGolden(t *testing.T) {
	layers := lenetLayers(t)
	f, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Design.Synthesizable() {
		t.Fatal(f.Design.Err())
	}
	input := nn.Digit(7)
	want, _ := relay.Execute(layers, input)
	got, err := f.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("folded LeNet diverges: %v", tensor.MaxAbsDiff(got, want))
	}
	// Kernel sharing: two convs map to one parameterized kernel, so the
	// design has fewer kernels than layers.
	if len(f.Design.Kernels) >= len(layers) {
		t.Fatalf("parameterized design should share kernels: %d kernels for %d layers",
			len(f.Design.Kernels), len(layers))
	}
}

func TestFoldedResidualNetwork(t *testing.T) {
	// A small residual net exercising skip buffers in the folded plan.
	g := relay.NewGraph()
	x := g.Input(4, 9, 9)
	skip := x
	y := g.ReLU(g.Conv(x, "a", 4, 3, 1, 1))
	y = g.Conv(y, "b", 4, 3, 1, 1)
	x = g.ReLU(g.Add(y, skip))
	x = g.Flatten(x)
	x = g.Dense(x, "fc", 6)
	x = g.Softmax(x)
	g.InitWeights(21)
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv3x3s1":     topi.OptSched(1, 1, 2),
			"conv3x3s1_res": topi.OptSched(1, 1, 2),
		},
		DenseVec: 4, Workaround: true,
	}
	f, err := BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	input := nn.RandomImage(5, 4, 9, 9)
	want, _ := relay.Execute(layers, input)
	got, err := f.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("folded residual net diverges: %v", tensor.MaxAbsDiff(got, want))
	}
	// Timed run must also work (skip buffer hazards).
	if _, err := f.Run(3, false); err != nil {
		t.Fatal(err)
	}
}

func TestFoldedNaiveVsOptimizedSpeedup(t *testing.T) {
	layers := lenetLayers(t)
	naive, err := BuildFolded(layers, FoldedConfig{Naive: true, Workaround: true}, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := naive.Run(5, false)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := opt.Run(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if ro.FPS <= rn.FPS {
		t.Fatalf("optimized folded must beat naive: %.1f vs %.1f", ro.FPS, rn.FPS)
	}
}

func TestFoldedMobileNetPlanAndProfile(t *testing.T) {
	g := nn.MobileNetV1()
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv1x1s1": topi.OptSched(7, 16, 4),
			"conv3x3s2": topi.OptSched(1, 1, 3),
		},
		DWVec:    map[string]int{"dw3x3s1": 7, "dw3x3s2": 7},
		DenseVec: 8, Workaround: true,
	}
	f, err := BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Design.Synthesizable() {
		t.Fatal(f.Design.Err())
	}
	// Expected kernel groups: conv1x1s1, conv3x3s2, dw s1, dw s2, dense,
	// pad1, avgpool7x7s1, softmax1000 = 8.
	if n := len(f.Design.Kernels); n != 8 {
		names := []string{}
		for _, m := range f.Design.Kernels {
			names = append(names, m.Kernel.Name)
		}
		t.Fatalf("MobileNet kernel groups = %d (%v), want 8", n, names)
	}
	prof, err := f.ProfileOps()
	if err != nil {
		t.Fatal(err)
	}
	var timeSum, flopSum float64
	classes := map[string]OpProfile{}
	for _, p := range prof {
		timeSum += p.TimeShare
		flopSum += p.FLOPShare
		classes[p.Class] = p
	}
	if math.Abs(timeSum-1) > 1e-6 || math.Abs(flopSum-1) > 1e-6 {
		t.Fatalf("profile shares must sum to 1: %v %v", timeSum, flopSum)
	}
	// Table 6.8 shape: 1x1 convs carry ~94.8% of FLOPs and achieve the
	// highest GFLOPS among convolution classes.
	pw := classes["1x1 conv"]
	if pw.FLOPShare < 0.92 || pw.FLOPShare > 0.97 {
		t.Fatalf("1x1 FLOP share = %.3f", pw.FLOPShare)
	}
	if dw := classes["3x3 DW conv"]; dw.GFLOPS >= pw.GFLOPS {
		t.Fatalf("depthwise GFLOPS (%.1f) must trail 1x1 (%.1f) — Table 6.8", dw.GFLOPS, pw.GFLOPS)
	}
	// Padding consumes a noticeable share of runtime despite zero FLOPs
	// (12.7-20.7% in Table 6.8; our convolution model is more efficient than
	// the thesis's measured kernels, so the share inflates — accept a broad
	// band, see EXPERIMENTS.md).
	if pad := classes["pad"]; pad.TimeShare < 0.03 || pad.TimeShare > 0.60 {
		t.Fatalf("pad time share = %.3f, expected noticeable overhead", pad.TimeShare)
	}
}

func TestFoldedRunTimedMobileNet(t *testing.T) {
	g := nn.MobileNetV1()
	layers, _ := relay.Lower(g)
	cfg := FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv1x1s1": topi.OptSched(7, 16, 4),
			"conv3x3s2": topi.OptSched(1, 1, 3),
		},
		DWVec:    map[string]int{"dw3x3s1": 7, "dw3x3s2": 7},
		DenseVec: 8, Workaround: true,
	}
	f, err := BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Run(3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Optimized MobileNet on the S10SX lands in the tens of FPS (thesis:
	// 30.3); accept a generous band for the model.
	if r.FPS < 5 || r.FPS > 200 {
		t.Fatalf("MobileNet folded FPS = %.2f, out of plausible band", r.FPS)
	}
}

func TestDenseUnrollDivisors(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{400, 40}, {120, 40}, {84, 4}, {1024, 32}, {1000, 40}, {13, 1},
	} {
		if got := denseUnroll(tc.n); got != tc.want {
			t.Fatalf("denseUnroll(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestChannelDepthsMatchPeakOccupancy(t *testing.T) {
	// §4.11: channel depths are sized to hold the producer's full output
	// feature map, "adequate to prevent channels from stalling". Verify the
	// functional run's peak FIFO occupancy never exceeds the declared depth.
	// Only the interpreter tier keeps every channel a FIFO (the others elide
	// balanced channels into buffers), so the audit runs there.
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	sess := sessionOn(t, p, sim.TierInterp)
	if _, err := sess.run(nn.Digit(1), nil); err != nil {
		t.Fatal(err)
	}
	m, kernels := sess.m, p.KernelSet()
	checked := 0
	for _, k := range kernels {
		_, writes := k.Channels()
		for _, ch := range writes {
			peak := m.Channel(ch).Peak
			if peak > ch.Depth {
				t.Fatalf("channel %s peak %d exceeds declared depth %d (would stall)", ch.Name, peak, ch.Depth)
			}
			if peak != ch.Depth {
				t.Fatalf("channel %s sized %d but peaks at %d (thesis sizes depth = full OFM)", ch.Name, ch.Depth, peak)
			}
			checked++
		}
	}
	if checked < 8 {
		t.Fatalf("only %d channels checked", checked)
	}
}

func TestFoldedConcatInceptionStyle(t *testing.T) {
	// A new operator (channel concat) through the whole flow: graph, fusion,
	// a parameterized copy kernel, the folded plan and functional execution —
	// the §1.1 extensibility demonstration.
	g := relay.NewGraph()
	x := g.Input(4, 12, 12)
	b1 := g.ReLU(g.Conv(x, "b1", 4, 1, 1, 0)) // 1x1 branch
	b2 := g.ReLU(g.Conv(x, "b2", 6, 3, 1, 1)) // 3x3 branch
	b3 := g.MaxPool(x, 3, 1, 1)               // pool branch
	y := g.Concat(b1, b2, b3)                 // 14 channels
	y = g.ReLU(g.Conv(y, "merge", 8, 1, 1, 0))
	y = g.Flatten(y)
	y = g.Dense(y, "fc", 5)
	y = g.Softmax(y)
	g.InitWeights(77)
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FoldedConfig{DenseVec: 4, Workaround: true}
	f, err := BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Design.Synthesizable() {
		t.Fatal(f.Design.Err())
	}
	input := nn.RandomImage(9, 4, 12, 12)
	want, err := relay.Execute(layers, input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("concat network diverges: %v", tensor.MaxAbsDiff(got, want))
	}
	// Timed run works too (three copy invocations share one compute unit).
	r, err := f.Run(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.FPS <= 0 {
		t.Fatal("no throughput")
	}
	// Exactly one concat_copy kernel exists in the design.
	found := 0
	for _, m := range f.Design.Kernels {
		if m.Kernel.Name == "concat_copy" {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("concat_copy kernels = %d, want 1 (folded reuse)", found)
	}
}

func TestPipelinedRejectsConcat(t *testing.T) {
	g := relay.NewGraph()
	x := g.Input(2, 8, 8)
	a := g.ReLU(g.Conv(x, "a", 2, 3, 1, 1))
	b := g.ReLU(g.Conv(x, "b", 2, 3, 1, 1))
	y := g.Concat(a, b)
	y = g.Flatten(y)
	y = g.Dense(y, "fc", 3)
	g.Softmax(y)
	g.InitWeights(3)
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPipelined(layers, PipeChannels, fpga.S10SX, aoc.DefaultOptions); err == nil {
		t.Fatal("pipelined execution must reject multi-input layers")
	}
}

func TestFoldedRejectsBadTiling(t *testing.T) {
	layers := lenetLayers(t)
	// conv W2 values (26, 11) are not divisible by 7.
	cfg := FoldedConfig{
		Conv:       map[string]topi.ConvSched{"conv3x3s1": topi.OptSched(7, 1, 1)},
		DenseVec:   4,
		Workaround: true,
	}
	if _, err := BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions); err == nil ||
		!strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("want divisibility error, got %v", err)
	}
	// Dense unroll that does not divide every dense layer's N.
	cfg2 := FoldedConfig{DenseVec: 7, Workaround: true}
	if _, err := BuildFolded(layers, cfg2, fpga.S10SX, aoc.DefaultOptions); err == nil {
		t.Fatal("want dense divisibility error")
	}
}

func TestFoldedRunRefusesUnsynthesizable(t *testing.T) {
	g := nn.MobileNetV1()
	layers, err := relay.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := BuildFolded(layers, FoldedConfig{Naive: true, Workaround: true}, fpga.A10, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Design.Synthesizable() {
		t.Skip("unexpectedly fits")
	}
	if _, err := dep.Run(1, false); err == nil {
		t.Fatal("Run must refuse an unsynthesizable design")
	}
	if _, err := dep.ProfileOps(); err == nil {
		t.Fatal("ProfileOps must refuse an unsynthesizable design")
	}
}

// TestRunRejectsNonPositiveImages: a timed run of fewer than one image is an
// error, not an empty result with a NaN frame rate.
func TestRunRejectsNonPositiveImages(t *testing.T) {
	p, err := BuildPipelined(lenetLayers(t), PipeBase, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0} {
		if res, err := p.Run(n, true, false); err == nil {
			t.Fatalf("Run(%d) = %+v, want an error", n, res)
		}
	}
	if res, err := p.Run(1, true, false); err != nil || res.Images != 1 {
		t.Fatalf("Run(1) = %+v, %v", res, err)
	}
}
