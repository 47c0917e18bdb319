package bench

// One benchmark per table and figure of the thesis's evaluation chapter,
// plus ablation benchmarks for the design choices catalogued in DESIGN.md.
// Each benchmark performs the full measurement for its experiment per
// iteration and reports the headline quantity through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the evaluation.

import (
	"testing"

	"repro/internal/aoc"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

func lenetLayers(b *testing.B) []*relay.Layer {
	b.Helper()
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		b.Fatal(err)
	}
	return layers
}

// ---- Table 6.4 / Fig 6.1: the LeNet optimization ladder ----

func BenchmarkTable64LeNetLadder(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, _, err := lenetLadder()
		if err != nil {
			b.Fatal(err)
		}
		best = res.FPSCE["S10SX"]["TVM-Autorun"]
	}
	b.ReportMetric(best, "fps-S10SX-best")
}

// ---- Fig 6.2: profiling breakdown ----

func BenchmarkFig62LeNetProfile(b *testing.B) {
	var mxWrite float64
	for i := 0; i < b.N; i++ {
		res, _, err := lenetProfile()
		if err != nil {
			b.Fatal(err)
		}
		mxWrite = res.Share["S10MX"]["Autorun"]["write"]
	}
	b.ReportMetric(mxWrite*100, "S10MX-write-%")
}

// ---- Table 6.5 is produced alongside Table 6.4 (area columns) ----

func BenchmarkTable65LeNetArea(b *testing.B) {
	layers := lenetLayers(b)
	var logic float64
	for i := 0; i < b.N; i++ {
		dep, err := host.BuildPipelined(layers, host.PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		logic, _, _ = dep.Design.Utilization()
	}
	b.ReportMetric(logic*100, "logic-%")
}

// ---- Table 6.6 / Fig 6.3: the 1x1 tiling sweep ----

func BenchmarkTable66TilingSweep(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		res, _, err := TilingSweep(fpga.A10)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Routed && r.Improvement > imp {
				imp = r.Improvement
			}
		}
	}
	b.ReportMetric(imp, "best-improvement-x")
}

// ---- Tables 6.9/6.10 / Fig 6.4: LeNet inference ----

func BenchmarkTable69LeNetInference(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		res, _, err := lenetInference()
		if err != nil {
			b.Fatal(err)
		}
		fps = res.FPS["S10SX"]
	}
	b.ReportMetric(fps, "fps-S10SX")
}

// ---- Tables 6.11/6.12 / Fig 6.5: MobileNet inference ----

func BenchmarkTable611MobileNetInference(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		res, _, err := foldedInference("mobilenetv1")
		if err != nil {
			b.Fatal(err)
		}
		fps = res.FPS["S10SX"]
	}
	b.ReportMetric(fps, "fps-S10SX")
}

// ---- Table 6.8: MobileNet per-operation profile ----

func BenchmarkTable68MobileNetOps(b *testing.B) {
	var pw float64
	for i := 0; i < b.N; i++ {
		prof, _, err := opsProfile("mobilenetv1")
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range prof["S10SX"] {
			if p.Class == "1x1 conv" {
				pw = p.GFLOPS
			}
		}
	}
	b.ReportMetric(pw, "1x1-GFLOPS-S10SX")
}

// ---- Tables 6.14/6.15 / Figs 6.6-6.7: ResNet inference ----

func BenchmarkTable614ResNet18Inference(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		res, _, err := foldedInference("resnet18")
		if err != nil {
			b.Fatal(err)
		}
		fps = res.FPS["S10SX"]
	}
	b.ReportMetric(fps, "fps-S10SX")
}

func BenchmarkTable614ResNet34Inference(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		res, _, err := foldedInference("resnet34")
		if err != nil {
			b.Fatal(err)
		}
		fps = res.FPS["S10SX"]
	}
	b.ReportMetric(fps, "fps-S10SX")
}

// ---- Table 6.16: ResNet per-operation profile ----

func BenchmarkTable616ResNetOps(b *testing.B) {
	var g33 float64
	for i := 0; i < b.N; i++ {
		prof, _, err := opsProfile("resnet34")
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range prof["S10SX"] {
			if p.Class == "3x3 conv" {
				g33 = p.GFLOPS
			}
		}
	}
	b.ReportMetric(g33, "3x3-GFLOPS-S10SX")
}

// ---- Fig 6.8 / §6.5: routing ----

func BenchmarkFig68RoutingMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RoutingMap(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables 6.17-6.19: related work ----

func BenchmarkTable617RelatedWork(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		in, err := gatherRelatedWork()
		if err != nil {
			b.Fatal(err)
		}
		g = in.ResNet34Conv3x3GFLOPS
	}
	b.ReportMetric(g, "3x3-GFLOPS")
}

// ---- Appendix A: transfer speeds ----

func BenchmarkAppendixATransferSpeeds(b *testing.B) {
	var w float64
	for i := 0; i < b.N; i++ {
		rows, _ := transferSpeeds()
		w = rows[len(rows)-1].WriteGBps
	}
	b.ReportMetric(w, "GBps")
}

// ---- Ablations (DESIGN.md) ----

// convPair builds naive and optimized variants of the same convolution and
// returns cycle counts on the S10MX (no auto-unroll, so the schedule effects
// are fully visible).
func convCycles(b *testing.B, naive bool) int64 {
	b.Helper()
	spec := topi.ConvSpec{Name: "abl", C1: 16, H: 30, W: 30, C2: 16, F: 3, S: 1, Relu: true}
	sched := topi.ConvSched{Naive: naive}
	if !naive {
		sched = topi.OptSched(7, 2, 4)
	}
	op, err := topi.Conv2D(spec, sched, topi.ConvIO{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := aoc.Analyze(op.Kernel, fpga.S10MX, aoc.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	return m.Cycles(nil)
}

// BenchmarkAblationFusion measures the fused-activation + write-cache
// schedule against the naive global-scratchpad schedule (II=1 vs II=5 and
// de-serialized loops).
func BenchmarkAblationFusion(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		naive := convCycles(b, true)
		opt := convCycles(b, false)
		ratio = float64(naive) / float64(opt)
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationCachedWrites isolates the write cache: the same fused
// loop nest with a global vs private accumulator.
func BenchmarkAblationCachedWrites(b *testing.B) {
	build := func(scope ir.Scope) int64 {
		acc := ir.NewBuffer("acc", scope, 1)
		in := ir.NewBuffer("in", ir.Global, 4096)
		out := ir.NewBuffer("out", ir.Global, 64)
		j, k := ir.V("j"), ir.V("k")
		z := []ir.Expr{ir.CInt(0)}
		body := ir.Loop(j, 64, ir.Seq(
			&ir.Store{Buf: acc, Index: z, Value: ir.CFloat(0)},
			ir.Loop(k, 64, &ir.Store{Buf: acc, Index: z,
				Value: ir.AddE(&ir.Load{Buf: acc, Index: z},
					&ir.Load{Buf: in, Index: []ir.Expr{ir.AddE(ir.MulE(j, ir.CInt(64)), k)}})}),
			&ir.Store{Buf: out, Index: []ir.Expr{j}, Value: &ir.Load{Buf: acc, Index: z}},
		))
		args := []*ir.Buffer{in, out}
		var pre ir.Stmt
		if scope == ir.Global {
			args = append([]*ir.Buffer{acc}, args...)
		} else {
			pre = &ir.Alloc{Buf: acc}
		}
		k2 := &ir.Kernel{Name: "abl", Args: args, Body: ir.Seq(pre, body)}
		m, err := aoc.Analyze(k2, fpga.S10MX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		return m.Cycles(nil)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(build(ir.Global)) / float64(build(ir.Private))
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationChannels compares the Channels bitstream against the
// buffered Unrolling bitstream for LeNet.
func BenchmarkAblationChannels(b *testing.B) {
	layers := lenetLayers(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		buffered, err := host.BuildPipelined(layers, host.PipeUnroll, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		chans, err := host.BuildPipelined(layers, host.PipeChannels, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		rb, err := buffered.Run(20, false, false)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := chans.Run(20, false, false)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rc.FPS / rb.FPS
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationAutorun measures removing host dispatch from the
// weight-less kernels.
func BenchmarkAblationAutorun(b *testing.B) {
	layers := lenetLayers(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		chans, err := host.BuildPipelined(layers, host.PipeChannels, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		auto, err := host.BuildPipelined(layers, host.PipeAutorun, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := chans.Run(20, false, false)
		if err != nil {
			b.Fatal(err)
		}
		ra, err := auto.Run(20, false, false)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ra.FPS / rc.FPS
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationConcurrency measures one queue per kernel vs a single
// shared queue on the autorun bitstream.
func BenchmarkAblationConcurrency(b *testing.B) {
	layers := lenetLayers(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		dep, err := host.BuildPipelined(layers, host.PipeAutorun, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		serial, err := dep.Run(20, false, false)
		if err != nil {
			b.Fatal(err)
		}
		ce, err := dep.Run(20, true, false)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ce.FPS / serial.FPS
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationFPRelaxed measures the -fp-relaxed single-cycle
// accumulator on the optimized dense layer.
func BenchmarkAblationFPRelaxed(b *testing.B) {
	op, err := topi.Dense(topi.DenseSpec{Name: "abl", N: 400, M: 120, Bias: true}, false, 8, topi.ConvIO{})
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		relaxed, err := aoc.Analyze(op.Kernel, fpga.S10MX, aoc.Options{FPRelaxed: true, FPC: true})
		if err != nil {
			b.Fatal(err)
		}
		strict, err := aoc.Analyze(op.Kernel, fpga.S10MX, aoc.Options{FPRelaxed: false, FPC: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(strict.Cycles(nil)) / float64(relaxed.Cycles(nil))
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkAblationSymbolicCoalesce measures the Listing 5.11 stride-1
// workaround on the parameterized 1x1 convolution.
func BenchmarkAblationSymbolicCoalesce(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, err := topi.ConvParam("wa", 1, 1, topi.OptSched(7, 8, 4), true, true, false, true)
		if err != nil {
			b.Fatal(err)
		}
		without, err := topi.ConvParam("nowa", 1, 1, topi.OptSched(7, 8, 4), true, true, false, false)
		if err != nil {
			b.Fatal(err)
		}
		mw, err := aoc.Analyze(with.Op.Kernel, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		mo, err := aoc.Analyze(without.Op.Kernel, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		// Compare logic cost: the nonaligned replicated LSUs of the
		// non-workaround kernel.
		ratio = float64(mo.Area.ALUTs) / float64(mw.Area.ALUTs)
	}
	b.ReportMetric(ratio, "logic-bloat-x")
}

// ---- Batched inference: the multi-image throughput path ----

// BenchmarkBatchThroughput compares the batch engine at one worker with
// depth-1 rings (the serial host structure) against its default worker pool
// with double buffering on a 16-image LeNet-5 batch, both on the same warm
// sessions. The "serial" and "batch" sub-benchmarks measure wall-clock host
// throughput; internal/host's TestRunBatchModeledWorkerScaling pins the
// modeled time of the same two rows.
func BenchmarkBatchThroughput(b *testing.B) {
	layers := lenetLayers(b)
	p, err := host.BuildPipelined(layers, host.PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	inputs := make([]*tensor.Tensor, batch)
	for i := range inputs {
		inputs[i] = nn.Digit(i % 10)
	}
	for _, c := range []struct {
		name string
		opt  host.BatchOptions
	}{
		{"serial", host.BatchOptions{Workers: 1, NoDoubleBuffer: true}},
		{"batch", host.BatchOptions{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *host.BatchResult
			for i := 0; i < b.N; i++ {
				r, err := p.RunBatch(inputs, c.opt)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "img/s")
			b.ReportMetric(res.ImagesPerSec, "modeled-img/s")
		})
	}
}

// ---- §4.11: parallel design-space exploration ----

func dseBenchLayers(b *testing.B) []*relay.Layer {
	b.Helper()
	layers, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		b.Fatal(err)
	}
	return layers
}

// BenchmarkDSESerial is the baseline: the MobileNetV1 thesis-tier search on
// one worker. Every run memoizes compilations in its own cache, so the pair
// with BenchmarkDSEParallel measures parallelism alone.
func BenchmarkDSESerial(b *testing.B) {
	layers := dseBenchLayers(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.ExploreWith(layers, "mobilenetv1", fpga.S10SX, dse.Options{
			Workers: 1, MaxCandidates: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated == 0 {
			b.Fatal("no candidates evaluated")
		}
	}
}

// BenchmarkDSEParallel runs the same search on a 4-worker pool. The ranking
// is bit-identical to the serial run; only the wall-time changes.
func BenchmarkDSEParallel(b *testing.B) {
	layers := dseBenchLayers(b)
	var hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.ExploreWith(layers, "mobilenetv1", fpga.S10SX, dse.Options{
			Workers: 4, MaxCandidates: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
		hitRate = res.CacheHitRate()
	}
	b.ReportMetric(hitRate*100, "cache-hit-%")
}

// BenchmarkAblationParameterized compares the per-layer naive design against
// the parameterized folded design for LeNet (kernel count and throughput).
func BenchmarkAblationParameterized(b *testing.B) {
	layers := lenetLayers(b)
	cfg := host.FoldedConfig{
		Conv:       map[string]topi.ConvSched{"conv3x3s1": topi.OptSched(1, 1, 1)},
		DenseVec:   4,
		Workaround: true,
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		naive, err := host.BuildFolded(layers, host.FoldedConfig{Naive: true, Workaround: true}, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := host.BuildFolded(layers, cfg, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(naive.Design.Area.ALUTs) / float64(opt.Design.Area.ALUTs)
	}
	b.ReportMetric(ratio, "area-ratio-x")
}
