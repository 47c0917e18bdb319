package host

import (
	"fmt"
	"sort"

	"repro/internal/aoc"
	"repro/internal/clrt"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
	"repro/internal/trace"
)

// FoldedConfig selects the parameterized-kernel tiling for a folded
// deployment (Tables 6.7 and 6.13).
type FoldedConfig struct {
	// Naive builds one naive constant-shape kernel per layer instead of
	// parameterized kernels — the "base" folded bitstream. This is the
	// configuration that fails to fit on the Arria 10 (§6.3.2).
	Naive bool
	// Conv maps a convolution's ConfigKey to its tiling.
	Conv map[string]topi.ConvSched
	// DWVec maps a depthwise layer's ConfigKey to its W2 unroll factor.
	DWVec map[string]int
	// DenseVec is the dense reduction unroll.
	DenseVec int
	// Dense optionally overrides DenseVec per dense ConfigKey ("dense",
	// "dense_relu"); the guided explorer searches these axes independently.
	Dense map[string]int
	// Workaround applies the Listing 5.11 stride-1 coalescing fix
	// (on in all thesis deployments; off for the ablation).
	Workaround bool
}

// ConfigKey returns the key a layer's tiling is looked up under: in
// FoldedConfig.Conv for convolutions, DWVec for depthwise layers and Dense
// for dense layers. Other layer kinds take no per-layer tiling and get "".
// A convolution's key is also its kernel group's name; a depthwise group
// with a ReLU6 epilogue appends "_r6" to its key.
func ConfigKey(l *relay.Layer) string {
	switch l.Kind {
	case relay.KConv:
		return convSig(l.F, l.S, l.Relu, l.Relu6, l.HasSkip)
	case relay.KDepthwise:
		return fmt.Sprintf("dw%dx%ds%d", l.F, l.F, l.S)
	case relay.KDense:
		if l.Relu {
			return "dense_relu"
		}
		return "dense"
	}
	return ""
}

func convSig(f, s int, relu, relu6, res bool) string {
	sig := fmt.Sprintf("conv%dx%ds%d", f, f, s)
	if res {
		sig += "_res"
	}
	if relu6 {
		sig += "_r6"
	} else if !relu {
		sig += "_lin"
	}
	return sig
}

// invocation is one kernel call in the per-image execution plan.
type invocation struct {
	kernel   *ir.Kernel
	op       *topi.Op
	bindings map[*ir.Var]int64
	layer    *relay.Layer
	// opClass labels the invocation for the per-operation profiles
	// ("1x1 conv", "3x3 DW conv", "pad", ...).
	opClass string
	// buffer indices: -1 = network input, else index into layer outputs.
	inIdx, skipIdx, outIdx int
}

// Folded is a folded (time-multiplexed parameterized kernels) deployment.
type Folded struct {
	Board  *fpga.Board
	Design *aoc.Design
	Layers []*relay.Layer
	Config FoldedConfig

	engine
	plan     []*invocation
	inShape  []int
	outShape []int
	// outBytes[i] is the byte size of layer i's output buffer.
	outBytes []int
	outIdxOf map[int]int // layer index -> buffer-producing layer index (flatten aliasing)
}

// BuildFolded generates the kernel set and execution plan for a network.
func BuildFolded(layers []*relay.Layer, cfg FoldedConfig, board *fpga.Board, opts aoc.Options) (*Folded, error) {
	return BuildFoldedCached(layers, cfg, board, opts, nil)
}

// BuildFoldedCached is BuildFolded with kernel compilation memoized in cache
// (nil disables memoization). The design-space explorer calls this from many
// goroutines at once: the build touches no package-level state and reads the
// layers purely, so concurrent builds over the same layer slice are safe as
// long as callers do not mutate the layers. Each call gets its own kernels,
// plan and Folded; only the immutable cached KernelModels are shared.
func BuildFoldedCached(layers []*relay.Layer, cfg FoldedConfig, board *fpga.Board, opts aoc.Options, cache *aoc.CompileCache) (*Folded, error) {
	f := &Folded{Board: board, Layers: layers, Config: cfg, outIdxOf: map[int]int{}}
	f.inShape = layers[0].InShape
	f.outShape = layers[len(layers)-1].OutShape

	if cfg.Conv == nil {
		cfg.Conv = map[string]topi.ConvSched{}
	}
	if cfg.DWVec == nil {
		cfg.DWVec = map[string]int{}
	}
	if cfg.DenseVec == 0 {
		cfg.DenseVec = 1
	}

	// Resolve buffer aliasing: flatten layers are free reshapes on NCHW
	// row-major data and emit no kernel in the folded plan.
	bufOf := func(idx int) int {
		for idx >= 0 && layers[idx].Kind == relay.KFlatten {
			idx = layers[idx].In
		}
		return idx
	}

	f.outBytes = make([]int, len(layers))
	for i, l := range layers {
		f.outBytes[i] = shapeBytes(l.OutShape)
	}

	// Parameterized kernel groups, or per-layer naive kernels.
	type group struct {
		conv  *topi.ParamConv
		dw    *topi.ParamDepthwise
		dense *topi.ParamDense
		pad   *topi.ParamPad
		pool  *topi.ParamPool
		cp    *topi.ParamCopy
	}
	groups := map[string]*group{}
	// naiveShared dedupes constant-shape naive kernels: TVM compiles one
	// kernel per distinct (operator, shape) signature and reuses it for
	// identical layers, even in the base flow — weights are arguments.
	naiveShared := map[string]*topi.Op{}
	var kernels []*ir.Kernel

	addKernel := func(k *ir.Kernel) { kernels = append(kernels, k) }

	for i, l := range layers {
		if l.Kind == relay.KFlatten {
			f.outIdxOf[i] = bufOf(i)
			continue
		}
		if l.Kind == relay.KConcat {
			// Channel concatenation lowers to one offset-copy invocation per
			// input part, all writing regions of the same output buffer.
			g := groups["concat_copy"]
			if g == nil || g.cp == nil {
				cp, err := topi.CopyParam("concat_copy", 1, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups["concat_copy"] = &group{cp: cp}
				g = groups["concat_copy"]
				addKernel(cp.Op.Kernel)
			}
			total := f.outBytes[i] / 4
			off := 0
			for _, srcIdx := range l.Ins {
				src := bufOf(srcIdx)
				partLen := shapeBytes(f.inShape) / 4
				if src >= 0 {
					partLen = f.outBytes[src] / 4
				}
				bind, err := g.cp.Bind(partLen, off, total)
				if err != nil {
					return nil, err
				}
				f.plan = append(f.plan, &invocation{layer: l, opClass: "concat",
					kernel: g.cp.Op.Kernel, op: g.cp.Op, bindings: bind,
					inIdx: src, skipIdx: -1, outIdx: i})
				off += partLen
			}
			continue
		}
		inv := &invocation{layer: l, inIdx: bufOf(l.In), skipIdx: -1, outIdx: i}
		if l.HasSkip {
			inv.skipIdx = bufOf(l.Skip)
		}
		inv.opClass = opClass(l)

		if cfg.Naive {
			sig := fmt.Sprintf("%s_%v_%v_f%ds%d_r%v_k%v_b%v", l.Kind, l.InShape, l.OutShape,
				l.F, l.S, l.Relu, l.HasSkip, l.B != nil)
			op := naiveShared[sig]
			if op == nil {
				var err error
				op, err = buildLayerKernel(l, true, topi.ConvIO{}, false, denseUnroll)
				if err != nil {
					return nil, fmt.Errorf("host: naive kernel for %s: %w", l.Name, err)
				}
				op.Kernel.Name = fmt.Sprintf("%s_k%d", l.Name, i)
				naiveShared[sig] = op
				addKernel(op.Kernel)
			}
			inv.kernel, inv.op = op.Kernel, op
			f.plan = append(f.plan, inv)
			continue
		}

		switch l.Kind {
		case relay.KConv:
			sig := ConfigKey(l)
			g := groups[sig]
			if g == nil || g.conv == nil {
				// Tiling configs may be keyed without the activation suffix
				// (the activation does not change the loop structure).
				sched, ok := cfg.Conv[sig]
				if !ok {
					base := convSig(l.F, l.S, true, false, l.HasSkip)
					sched, ok = cfg.Conv[base]
				}
				if !ok {
					sched = topi.OptSched(1, 1, 1)
				}
				pc, err := topi.ConvParamAct(sig, l.F, l.S, sched, l.Relu, l.Relu6, l.B != nil, l.HasSkip, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups[sig] = &group{conv: pc}
				g = groups[sig]
				addKernel(pc.Op.Kernel)
			}
			bind, err := g.conv.Bind(l.InShape[0], l.InShape[1], l.InShape[2], l.OutShape[0])
			if err != nil {
				return nil, err
			}
			inv.kernel, inv.op, inv.bindings = g.conv.Op.Kernel, g.conv.Op, bind
		case relay.KDepthwise:
			key := ConfigKey(l)
			sig := key
			if l.Relu6 {
				sig += "_r6"
			}
			g := groups[sig]
			if g == nil || g.dw == nil {
				w2v := cfg.DWVec[key]
				pd, err := topi.DepthwiseParamAct(sig, l.F, l.S, w2v, l.Relu, l.Relu6, l.B != nil, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups[sig] = &group{dw: pd}
				g = groups[sig]
				addKernel(pd.Op.Kernel)
			}
			bind, err := g.dw.Bind(l.InShape[0], l.InShape[1], l.InShape[2])
			if err != nil {
				return nil, err
			}
			inv.kernel, inv.op, inv.bindings = g.dw.Op.Kernel, g.dw.Op, bind
		case relay.KDense:
			sig := ConfigKey(l)
			g := groups[sig]
			if g == nil || g.dense == nil {
				kvec := cfg.DenseVec
				if v, ok := cfg.Dense[sig]; ok && v > 0 {
					kvec = v
				}
				pd, err := topi.DenseParam(sig, kvec, l.Relu, l.B != nil, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups[sig] = &group{dense: pd}
				g = groups[sig]
				addKernel(pd.Op.Kernel)
			}
			bind, err := g.dense.Bind(l.InShape[0], l.OutShape[0])
			if err != nil {
				return nil, err
			}
			inv.kernel, inv.op, inv.bindings = g.dense.Op.Kernel, g.dense.Op, bind
		case relay.KPad:
			sig := fmt.Sprintf("pad%d", l.P)
			g := groups[sig]
			if g == nil || g.pad == nil {
				pp, err := topi.PadParam(sig, l.P, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups[sig] = &group{pad: pp}
				g = groups[sig]
				addKernel(pp.Op.Kernel)
			}
			inv.kernel, inv.op = g.pad.Op.Kernel, g.pad.Op
			inv.bindings = g.pad.Bind(l.InShape[0], l.InShape[1], l.InShape[2])
		case relay.KMaxPool, relay.KAvgPool:
			avg := l.Kind == relay.KAvgPool
			sig := fmt.Sprintf("pool%dx%ds%d", l.F, l.F, l.S)
			if avg {
				sig = "avg" + sig
			}
			g := groups[sig]
			if g == nil || g.pool == nil {
				pl, err := topi.PoolParam(sig, l.F, l.S, avg, cfg.Workaround)
				if err != nil {
					return nil, err
				}
				groups[sig] = &group{pool: pl}
				g = groups[sig]
				addKernel(pl.Op.Kernel)
			}
			inv.kernel, inv.op = g.pool.Op.Kernel, g.pool.Op
			inv.bindings = g.pool.Bind(l.InShape[0], l.InShape[1], l.InShape[2])
		case relay.KSoftmax:
			// Constant-shape kernel: one per distinct class count.
			sig := fmt.Sprintf("softmax%d", l.OutShape[0])
			found := false
			for _, k := range kernels {
				if k.Name == sig {
					found = true
					for _, p := range f.plan {
						if p.kernel.Name == sig {
							inv.kernel, inv.op = p.kernel, p.op
						}
					}
				}
			}
			if !found {
				op, err := topi.Softmax(sig, l.OutShape[0], false, topi.ConvIO{})
				if err != nil {
					return nil, err
				}
				inv.kernel, inv.op = op.Kernel, op
				addKernel(op.Kernel)
			}
		default:
			return nil, fmt.Errorf("host: folded plan cannot handle layer kind %v", l.Kind)
		}
		f.plan = append(f.plan, inv)
	}

	d, err := aoc.CompileCached(foldedName(cfg), kernels, board, opts, cache)
	if err != nil {
		return nil, err
	}
	f.Design = d
	return f, nil
}

func foldedName(cfg FoldedConfig) string {
	if cfg.Naive {
		return "folded-base"
	}
	return "folded-optimized"
}

func opClass(l *relay.Layer) string {
	switch l.Kind {
	case relay.KConv:
		return fmt.Sprintf("%dx%d conv", l.F, l.F)
	case relay.KDepthwise:
		return fmt.Sprintf("%dx%d DW conv", l.F, l.F)
	case relay.KDense:
		return "dense"
	case relay.KPad:
		return "pad"
	case relay.KMaxPool, relay.KAvgPool:
		return "pool"
	case relay.KSoftmax:
		return "softmax"
	}
	return l.Kind.String()
}

// newSession binds the folded plan to a fresh machine. One machine executes
// the whole plan, so each parameterized kernel compiles once per session;
// per-invocation buffer arguments are rebound the way the host passes new
// cl_mem arguments to the same kernel.
func (f *Folded) newSession() (*session, error) {
	m := f.newMachine()
	outs := make([][]float32, len(f.Layers))
	scratch := map[*ir.Buffer][]float32{}
	for _, inv := range f.plan {
		if outs[inv.outIdx] == nil {
			outs[inv.outIdx] = make([]float32, f.outBytes[inv.outIdx]/4)
		}
		for _, sc := range inv.op.Scratches {
			if n, ok := sc.ConstLen(); ok && scratch[sc] == nil {
				scratch[sc] = make([]float32, n)
			}
		}
	}
	// No activation is cleared between images: every deployed kernel
	// writes its whole output before any kernel reads it, so an image never
	// sees the last one's values (TestFoldedIgnoresStaleActivations).
	// Clearing them would cost a MobileNetV1 image 34.5 MB of stores.
	image := func(input []float32, tap tapFn) ([]float32, error) {
		act := func(idx int) []float32 {
			if idx < 0 {
				return input
			}
			return outs[idx]
		}
		for _, inv := range f.plan {
			op, l := inv.op, inv.layer
			if op.In != nil {
				m.Bind(op.In, act(inv.inIdx))
			}
			if op.Weights != nil {
				m.Bind(op.Weights, l.W.Data)
			}
			if op.Bias != nil {
				m.Bind(op.Bias, l.B.Data)
			}
			if op.Skip != nil {
				m.Bind(op.Skip, act(inv.skipIdx))
			}
			for _, sc := range op.Scratches {
				if s := scratch[sc]; s != nil {
					// Zeroed per invocation, not per image: the same op
					// serves many layers, and a cold machine would hand each
					// of them a fresh slice.
					clear(s)
					m.Bind(sc, s)
				}
			}
			m.Bind(op.Out, outs[inv.outIdx])
			if err := m.Run(inv.kernel, inv.bindings); err != nil {
				return nil, fmt.Errorf("host: layer %s: %w", l.Name, err)
			}
		}
		if tap != nil {
			for i, l := range f.Layers {
				src := i
				if l.Kind == relay.KFlatten {
					src = f.outIdxOf[i]
				}
				if outs[src] != nil {
					tap(i, outs[src])
				}
			}
		}
		return outs[f.plan[len(f.plan)-1].outIdx], nil
	}
	return &session{m: m, outShape: f.outShape, image: image}, nil
}

// program loads the folded plan onto ctx: one activation buffer per layer,
// one persistent scratch buffer per kernel scratchpad, every layer's
// parameters uploaded once, and a single command queue for setup and
// execution alike — folded kernels time-multiplex one datapath, so concurrent
// queues do not apply (§4.11) and the flag is ignored.
func (f *Folded) program(ctx *clrt.Context, _ bool, try tryFn) (*program, error) {
	q := ctx.NewQueue()
	acts := make([]*clrt.Buffer, len(f.Layers))
	params := map[*tensor.Tensor]*clrt.Buffer{}
	scratch := map[*ir.Buffer]*clrt.Buffer{}
	// One closure serves every upload (and, below, every kernel launch): a
	// literal at each try call would be heap-allocated per command.
	var (
		param *clrt.Buffer
		bytes int
	)
	upload := func() (*clrt.Event, error) { return q.EnqueueWrite(param, bytes) }
	for _, inv := range f.plan {
		if acts[inv.outIdx] == nil {
			acts[inv.outIdx] = ctx.NewBuffer(fmt.Sprintf("act%d", inv.outIdx), f.outBytes[inv.outIdx])
		}
		for _, sc := range inv.op.Scratches {
			if n, ok := sc.ConstLen(); ok && scratch[sc] == nil {
				scratch[sc] = ctx.NewBuffer(sc.Name, int(n)*4)
			}
		}
		for _, pb := range []struct {
			arg    *ir.Buffer
			t      *tensor.Tensor
			suffix string
		}{{inv.op.Weights, inv.layer.W, "_w"}, {inv.op.Bias, inv.layer.B, "_b"}} {
			if pb.arg == nil || pb.t == nil || params[pb.t] != nil {
				continue
			}
			param, bytes = ctx.NewBuffer(inv.layer.Name+pb.suffix, pb.t.Bytes()), pb.t.Bytes()
			params[pb.t] = param
			if _, err := try(upload); err != nil {
				return nil, fmt.Errorf("parameter upload %s: %w", inv.layer.Name, err)
			}
		}
	}
	ctx.Finish()

	queue := func() *clrt.Queue { return q }
	last := f.plan[len(f.plan)-1].outIdx
	prog := &program{
		in: ctx.NewBuffer("input", shapeBytes(f.inShape)), out: acts[last],
		inBytes: shapeBytes(f.inShape), outBytes: shapeBytes(f.outShape),
		writeQ: queue, readQ: queue,
	}
	var call clrt.KernelCall
	launch := func() (*clrt.Event, error) { return q.EnqueueKernel(call) }
	prog.enqueueImage = func(devIn, devOut *clrt.Buffer) error {
		act := func(idx int) *clrt.Buffer {
			switch {
			case idx < 0:
				return devIn
			case idx == last:
				return devOut
			}
			return acts[idx]
		}
		for _, inv := range f.plan {
			call = clrt.KernelCall{Name: inv.kernel.Name, Bindings: inv.bindings,
				Reads: append(call.Reads[:0], act(inv.inIdx)), Writes: call.Writes[:0]}
			if inv.op.Weights != nil && inv.layer.W != nil {
				call.Reads = append(call.Reads, params[inv.layer.W])
			}
			if inv.op.Bias != nil && inv.layer.B != nil {
				call.Reads = append(call.Reads, params[inv.layer.B])
			}
			if inv.layer.HasSkip {
				call.Reads = append(call.Reads, act(inv.skipIdx))
			}
			for _, sc := range inv.op.Scratches {
				if b := scratch[sc]; b != nil {
					call.Writes = append(call.Writes, b)
				}
			}
			call.Writes = append(call.Writes, act(inv.outIdx))
			if _, err := try(launch); err != nil {
				return fmt.Errorf("kernel %s (layer %s): %w", call.Name, inv.layer.Name, err)
			}
		}
		return nil
	}
	return prog, nil
}

func (f *Folded) design() *aoc.Design { return f.Design }

// Infer runs one image functionally on a warm session and returns the
// network output in a freshly allocated tensor the caller owns (practical
// for small networks; the large networks are verified per-kernel and via the
// relay reference executor). Safe for concurrent use.
func (f *Folded) Infer(input *tensor.Tensor) (*tensor.Tensor, error) {
	return infer(f, input, nil)
}

// Run simulates classifying n images on a single command queue (concurrent
// execution is not applicable to folded kernels, §4.11).
func (f *Folded) Run(n int, profiling bool) (*RunResult, error) {
	return f.RunTraced(n, profiling, nil)
}

// RunTraced is Run with structured tracing (see Pipelined.RunTraced); a nil
// collector disables it.
func (f *Folded) RunTraced(n int, profiling bool, tc *trace.Collector) (*RunResult, error) {
	return runTimed(f, n, false, profiling, tc)
}

// ForwardTimeUS returns the modeled time of one forward pass: per-invocation
// kernel times summed in plan order. Unlike summing ProfileOps (whose
// grouping map iterates in random order), the result is bit-identical across
// runs — the design-space explorer ranks candidates with it.
func (f *Folded) ForwardTimeUS() (float64, error) {
	if err := f.Design.Err(); err != nil {
		return 0, err
	}
	var us float64
	for _, inv := range f.plan {
		m := f.Design.Model(inv.kernel.Name)
		if m == nil {
			return 0, fmt.Errorf("host: kernel %s missing from design", inv.kernel.Name)
		}
		us += m.TimeUS(inv.bindings, f.Design.FmaxMHz, f.Board)
	}
	return us, nil
}

// OpProfile aggregates modeled kernel time and GFLOPS by operation class
// for one image (Tables 6.8 and 6.16).
type OpProfile struct {
	Class     string
	TimeUS    float64
	FLOPs     int64
	GFLOPS    float64
	TimeShare float64
	FLOPShare float64
}

// ProfileOps returns the per-operation-class profile of a single forward
// pass using the AOC timing model at the design's fmax.
func (f *Folded) ProfileOps() ([]OpProfile, error) {
	if err := f.Design.Err(); err != nil {
		return nil, err
	}
	byClass := map[string]*OpProfile{}
	var classes []string // first-appearance order, so ties sort deterministically
	var totalUS float64
	var totalFL int64
	for _, inv := range f.plan {
		m := f.Design.Model(inv.kernel.Name)
		if m == nil {
			return nil, fmt.Errorf("host: kernel %s missing from design", inv.kernel.Name)
		}
		us := m.TimeUS(inv.bindings, f.Design.FmaxMHz, f.Board)
		fl := inv.layer.FLOPs()
		p := byClass[inv.opClass]
		if p == nil {
			p = &OpProfile{Class: inv.opClass}
			byClass[inv.opClass] = p
			classes = append(classes, inv.opClass)
		}
		p.TimeUS += us
		p.FLOPs += fl
		totalUS += us
		totalFL += fl
	}
	var out []OpProfile
	for _, c := range classes {
		p := byClass[c]
		if p.TimeUS > 0 {
			p.GFLOPS = float64(p.FLOPs) / p.TimeUS / 1e3
		}
		p.TimeShare = p.TimeUS / totalUS
		p.FLOPShare = float64(p.FLOPs) / float64(totalFL)
		out = append(out, *p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].FLOPs > out[j].FLOPs })
	return out, nil
}
