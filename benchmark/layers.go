package main

// Per-layer micro-measurements of the traced pass: direct calls into host,
// clrt, sim and cpuref, timed from outside with the workload's own
// deployment and inputs. Each figure names the end-to-end metric it should
// move in README.md.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/clrt"
	"repro/internal/cpuref"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// timeOp returns the median ns per call of f over 5 batches sized to share
// budget, after one untimed warm call.
func timeOp(budget time.Duration, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := f()
	once := max(time.Since(t0), time.Nanosecond)
	n := max(1, int(budget/5/once))
	var per []float64
	for b := 0; b < 5 && err == nil; b++ {
		t0 := time.Now()
		for i := 0; i < n && err == nil; i++ {
			err = f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), err
}

// allocsOf returns heap allocations and KiB allocated by f.
func allocsOf(f func()) (allocs, kb float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc-a.TotalAlloc) / 1024
}

type gemmShape struct{ m, k, n int }

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// gemmNS times bare single-worker cpuref.Gemm at a shape: the same-run,
// same-machine roofline the sim kernels are judged against.
func gemmNS(s gemmShape, budget time.Duration) float64 {
	a, b, c := make([]float32, s.m*s.k), make([]float32, s.k*s.n), make([]float32, s.m*s.n)
	for i := range a {
		a[i] = float32(i%17)*0.25 - 1
	}
	for i := range b {
		b[i] = float32(i%13)*0.125 - 0.5
	}
	ns, _ := timeOp(budget, func() error { cpuref.Gemm(a, b, c, s.m, s.k, s.n, 1); return nil })
	return ns
}

// layerGemmShape is the (m,k,n) a conv or dense layer lowers to.
func layerGemmShape(l *relay.Layer) (gemmShape, bool) {
	switch l.Kind {
	case relay.KConv:
		return gemmShape{l.OutShape[0], l.InShape[0] * l.F * l.F, l.OutShape[1] * l.OutShape[2]}, true
	case relay.KDense:
		return gemmShape{l.OutShape[0], l.InShape[0], 1}, true
	}
	return gemmShape{}, false
}

// hostLayer measures the host layer on one deployment with the workload's
// inputs. inferUS and w2US are figures the caller already has for sequential
// Infer and for RunBatch at Workers 2 (0 to measure them here). Every call
// count is fixed, so the sim counters repeat exactly.
func hostLayer(rc *runCtx, net string, dep serve.Deployment, inputs []*tensor.Tensor, inferUS, w2US float64) error {
	m := rc.layer
	lenet := net == "lenet5"
	// Cheap networks repeat every call; the folded ones cost seconds per
	// image, so they run each call once.
	repeat := 1
	if lenet {
		repeat = 21
	}

	var buildMS []float64
	var layers []*relay.Layer
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, ls, err := serve.BuildDeployment(net, fpga.S10SX)
		if err != nil {
			return err
		}
		buildMS = append(buildMS, time.Since(t0).Seconds()*1e3)
		layers = ls
	}
	m["host.build_ms"] = median(buildMS)

	if inferUS == 0 {
		var us []float64
		for i := 0; i < lenetInputs; i++ {
			t0 := time.Now()
			if _, err := dep.Infer(inputs[i%len(inputs)]); err != nil {
				return err
			}
			us = append(us, time.Since(t0).Seconds()*1e6)
		}
		inferUS = median(us)
	}
	m["host.infer_us_per_image"] = inferUS

	stats, _ := dep.(interface{ SimStats() sim.StatsSnapshot })
	before := stats.SimStats()
	images := 0
	runBatch := func(in []*tensor.Tensor, workers int) (*host.BatchResult, float64, error) {
		var res *host.BatchResult
		var us []float64
		for i := 0; i < repeat; i++ {
			t0 := time.Now()
			r, err := dep.RunBatch(in, host.BatchOptions{Workers: workers})
			if err != nil {
				return nil, 0, err
			}
			us = append(us, time.Since(t0).Seconds()*1e6/float64(len(in)))
			if res != nil && r.ModeledUS != res.ModeledUS {
				return nil, 0, fmt.Errorf("modeled time differs between repetitions: %v vs %v us", r.ModeledUS, res.ModeledUS)
			}
			res = r
		}
		images += repeat * len(in)
		return res, median(us), nil
	}
	_, b1, err := runBatch(inputs[:1], 1)
	if err != nil {
		return err
	}
	m["host.runbatch_us_per_image.b1"] = b1
	// Steady state: the b1 calls warmed the Workers-1 arena.
	var (
		full *host.BatchResult
		w1   float64
	)
	allocs, kb := allocsOf(func() { full, w1, err = runBatch(inputs, 1) })
	if err != nil {
		return err
	}
	perImage := float64(repeat * len(inputs))
	m["host.allocs_per_image"], m["host.alloc_kb_per_image"] = allocs/perImage, kb/perImage
	if len(inputs) == 8 {
		m["host.runbatch_us_per_image.b8"] = w1
	}
	if w2US == 0 {
		if _, w2US, err = runBatch(inputs, 2); err != nil {
			return err
		}
	}
	m["host.runbatch_scaling_x"] = w1 / w2US
	m["host.modeled_us_per_image"] = full.ModeledUS / float64(len(inputs))
	m["host.modeled_overlap_ratio"] = full.Overlap.Ratio
	after := stats.SimStats()
	m["sim.fallback_loops"] = float64(after.FallbackLoops) // compile-time: since the deployment was built
	m["sim.guard_bailouts"] = float64(after.GuardBailouts - before.GuardBailouts)
	m["sim.gemm_bailouts"] = float64(after.GemmBailouts - before.GemmBailouts)
	m["sim.gemm_runs_per_image"] = float64(after.GemmRuns-before.GemmRuns) / float64(images)
	m["sim.kernel_cache_misses"] = float64(after.CacheMisses - before.CacheMisses)

	// The share of per-image time that is irreducible GEMM: bare cpuref.Gemm
	// at every conv/dense layer's shape, summed.
	floorNS := 0.0
	for _, l := range layers {
		if s, ok := layerGemmShape(l); ok {
			b := 2 * time.Millisecond
			if lenet {
				b = 20 * time.Millisecond
			}
			floorNS += gemmNS(s, b)
		}
	}
	m["host.gemm_floor_share"] = floorNS / 1e3 / inferUS

	switch d := dep.(type) {
	case *host.Pipelined:
		r, err := d.Run(8, true, false)
		if err != nil {
			return err
		}
		m["clrt.modeled_kernel_share"] = kernelShare(r.Breakdown)
		if err := clrtLayer(rc, d); err != nil {
			return err
		}
	case *host.Folded:
		r, err := d.Run(1, false)
		if err != nil {
			return err
		}
		m["clrt.modeled_kernel_share"] = kernelShare(r.Breakdown)
	}
	return nil
}

func kernelShare(breakdown map[string]float64) float64 {
	total := 0.0
	for _, v := range breakdown {
		total += v
	}
	if total == 0 {
		return 0
	}
	return breakdown["kernel"] / total
}

// clrtLayer times the wall cost of the simulated runtime's bookkeeping per
// enqueue on the LeNet design. A fresh context per batch keeps its event log
// from growing without bound.
func clrtLayer(rc *runCtx, p *host.Pipelined) error {
	name := ""
	for _, km := range p.Design.Kernels {
		if !km.Kernel.Autorun {
			name = km.Kernel.Name
			break
		}
	}
	if name == "" {
		return fmt.Errorf("clrt: no host-controlled kernel in design %s", p.Design.Name)
	}
	const n = 20000
	var kernelNS, transferNS []float64
	for b := 0; b < 5; b++ {
		ctx, err := clrt.NewContext(p.Design)
		if err != nil {
			return err
		}
		q, wq, rq := ctx.NewQueue(), ctx.NewQueue(), ctx.NewQueue()
		buf := ctx.NewBuffer("image", 4*28*28)
		call := clrt.KernelCall{Name: name}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := q.EnqueueKernel(call); err != nil {
				return err
			}
		}
		kernelNS = append(kernelNS, float64(time.Since(t0).Nanoseconds())/n)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := wq.EnqueueWrite(buf, buf.Bytes); err != nil {
				return err
			}
			if _, err := rq.EnqueueRead(buf, buf.Bytes); err != nil {
				return err
			}
		}
		transferNS = append(transferNS, float64(time.Since(t0).Nanoseconds())/n)
	}
	rc.layer["clrt.enqueue_kernel_ns"] = median(kernelNS)
	rc.layer["clrt.enqueue_transfer_ns"] = median(transferNS)
	return nil
}

// simCase is one kernel built through topi exactly as bench-sim builds it.
type simCase struct {
	name    string
	kern    *ir.Kernel
	scalars map[*ir.Var]int64
	sizes   map[*ir.Buffer]int
	gemm    gemmShape // zero for kernels that are not GEMM-lowered
}

func simCases(net string) ([]simCase, error) {
	sched := topi.ConvSched{W2vec: 7, C2vec: 4, C1vec: 4}
	switch net {
	case "lenet5":
		conv1, err := topi.Conv2D(topi.ConvSpec{Name: "conv1", C1: 1, H: 28, W: 28, C2: 6, F: 5, S: 1, Relu: true, Bias: true},
			topi.OptSched(6, 2, 1), topi.ConvIO{})
		if err != nil {
			return nil, err
		}
		conv2, err := topi.Conv2D(topi.ConvSpec{Name: "conv2", C1: 6, H: 12, W: 12, C2: 16, F: 5, S: 1, Relu: true, Bias: true},
			topi.OptSched(4, 4, 2), topi.ConvIO{})
		if err != nil {
			return nil, err
		}
		dense1, err := topi.Dense(topi.DenseSpec{Name: "dense1", N: 256, M: 120, Relu: true, Bias: true}, false, 32, topi.ConvIO{})
		if err != nil {
			return nil, err
		}
		pool1, err := topi.Pool2D(topi.PoolSpec{Name: "pool1", C: 6, H: 24, W: 24, F: 2, S: 2}, false, topi.ConvIO{}, false)
		if err != nil {
			return nil, err
		}
		return []simCase{
			{name: "lenet_conv1", kern: conv1.Kernel, gemm: gemmShape{6, 25, 576}, sizes: map[*ir.Buffer]int{
				conv1.In: 28 * 28, conv1.Weights: 6 * 25, conv1.Bias: 6, conv1.Out: 6 * 24 * 24}},
			{name: "lenet_conv2", kern: conv2.Kernel, gemm: gemmShape{16, 150, 64}, sizes: map[*ir.Buffer]int{
				conv2.In: 6 * 12 * 12, conv2.Weights: 16 * 150, conv2.Bias: 16, conv2.Out: 16 * 8 * 8}},
			{name: "lenet_dense1", kern: dense1.Kernel, gemm: gemmShape{120, 256, 1}, sizes: map[*ir.Buffer]int{
				dense1.In: 256, dense1.Weights: 120 * 256, dense1.Bias: 120, dense1.Out: 120}},
			{name: "lenet_pool1", kern: pool1.Kernel, sizes: map[*ir.Buffer]int{
				pool1.In: 6 * 24 * 24, pool1.Out: 6 * 12 * 12}},
		}, nil
	case "mobilenetv1":
		pw, err := topi.ConvParamAct("mn_pw", 1, 1, sched, false, true, true, false, false)
		if err != nil {
			return nil, err
		}
		pwScalars, err := pw.Bind(64, 14, 14, 128)
		if err != nil {
			return nil, err
		}
		dw, err := topi.DepthwiseParamAct("mn_dw", 3, 1, 7, false, true, true, false)
		if err != nil {
			return nil, err
		}
		dwScalars, err := dw.Bind(128, 16, 16)
		if err != nil {
			return nil, err
		}
		return []simCase{
			{name: "mobilenet_fold_pw", kern: pw.Op.Kernel, scalars: pwScalars, gemm: gemmShape{128, 64, 196}, sizes: map[*ir.Buffer]int{
				pw.Op.In: 64 * 14 * 14, pw.Op.Weights: 128 * 64, pw.Op.Bias: 128, pw.Op.Out: 128 * 14 * 14}},
			{name: "mobilenet_fold_dw", kern: dw.Op.Kernel, scalars: dwScalars, sizes: map[*ir.Buffer]int{
				dw.Op.In: 128 * 16 * 16, dw.Op.Weights: 128 * 9, dw.Op.Bias: 128, dw.Op.Out: 128 * 14 * 14}},
		}, nil
	case "resnet18":
		conv3, err := topi.ConvParamAct("rn_conv3", 3, 1, sched, true, false, true, true, false)
		if err != nil {
			return nil, err
		}
		conv3Scalars, err := conv3.Bind(128, 16, 16, 128)
		if err != nil {
			return nil, err
		}
		pad, err := topi.PadParam("rn_pad", 1, false)
		if err != nil {
			return nil, err
		}
		return []simCase{
			{name: "resnet_fold_conv3", kern: conv3.Op.Kernel, scalars: conv3Scalars, gemm: gemmShape{128, 1152, 196}, sizes: map[*ir.Buffer]int{
				conv3.Op.In: 128 * 16 * 16, conv3.Op.Weights: 128 * 1152, conv3.Op.Bias: 128, conv3.Op.Skip: 128 * 14 * 14, conv3.Op.Out: 128 * 14 * 14}},
			{name: "resnet_fold_pad", kern: pad.Op.Kernel, scalars: pad.Bind(128, 14, 14), sizes: map[*ir.Buffer]int{
				pad.Op.In: 128 * 14 * 14, pad.Op.Out: 128 * 16 * 16}},
		}, nil
	}
	return nil, fmt.Errorf("no sim kernels for %q", net)
}

// simLayer times the production (vector) tier on the network's kernels and,
// for the GEMM-lowered ones, bare cpuref.Gemm at the same shape.
func simLayer(rc *runCtx, net string) error {
	cases, err := simCases(net)
	if err != nil {
		return err
	}
	const budget = 100 * time.Millisecond
	for _, c := range cases {
		mach := sim.NewMachine()
		// Sorted so every run binds identical data to identical buffers.
		bufs := make([]*ir.Buffer, 0, len(c.sizes))
		for b := range c.sizes {
			bufs = append(bufs, b)
		}
		sort.Slice(bufs, func(i, j int) bool { return bufs[i].Name < bufs[j].Name })
		for _, b := range bufs {
			data := make([]float32, c.sizes[b])
			for i := range data {
				data[i] = float32(i%17)*0.25 - 1
			}
			mach.Bind(b, data)
		}
		ns, err := timeOp(budget, func() error { return mach.Run(c.kern, c.scalars) })
		if err != nil {
			return fmt.Errorf("sim %s: %w", c.name, err)
		}
		rc.layer["sim."+c.name+".vector_ns"] = ns
		if c.gemm.m > 0 {
			g := gemmNS(c.gemm, budget)
			rc.layer["sim."+c.name+".over_gemm_x"] = ns / g
			rc.layer["cpuref.gemm_gflops."+c.name] = c.gemm.flops() / g
		}
	}
	return nil
}

// gemmPeak is the machine-fingerprint roofline: 256^3 on one worker.
func gemmPeak() float64 {
	s := gemmShape{256, 256, 256}
	return s.flops() / gemmNS(s, 150*time.Millisecond)
}
