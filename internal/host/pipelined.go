// Package host implements the thesis's custom OpenCL host program (§5.2) on
// top of the clrt runtime simulator: loading parameters, executing kernels
// with different buffer/parameter sets, toggleable concurrent execution
// (one command queue per kernel), asynchronous enqueueing, and output
// verification against the native references.
//
// Two deployment modes mirror §3.1: Pipelined (one kernel per layer, CL
// channels carrying activations, optional autorun, used for LeNet) and
// Folded (parameterized kernels time-multiplexed over layers, used for
// MobileNet and ResNet).
package host

import (
	"fmt"

	"repro/internal/aoc"
	"repro/internal/clrt"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/relay"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topi"
	"repro/internal/trace"
)

// PipeVariant selects one of the Table 6.4 bitstreams.
type PipeVariant int

const (
	// PipeBase is the default TVM schedule: naive kernels, global buffers.
	PipeBase PipeVariant = iota
	// PipeUnroll adds hand-applied unrolling: the convolution inner product
	// loops (F×F) and the dense reductions (40/40/4 for LeNet).
	PipeUnroll
	// PipeChannels moves activations into CL channels with fused
	// activations, write caches and optimized schedules.
	PipeChannels
	// PipeAutorun additionally declares weight-less kernels autorun.
	PipeAutorun
	// PipeTVMAutorun is PipeAutorun with unrolling/fusion applied through
	// the schedule primitives instead of by hand (the automation validation
	// step of §6.3.1). The generated kernels are structurally identical.
	PipeTVMAutorun
)

func (v PipeVariant) String() string {
	switch v {
	case PipeBase:
		return "Base"
	case PipeUnroll:
		return "Unrolling"
	case PipeChannels:
		return "Channels"
	case PipeAutorun:
		return "Autorun"
	case PipeTVMAutorun:
		return "TVM-Autorun"
	}
	return "?"
}

// PipeVariants lists the Table 6.4 ladder in order.
var PipeVariants = []PipeVariant{PipeBase, PipeUnroll, PipeChannels, PipeAutorun, PipeTVMAutorun}

// denseUnrollFactors returns the hand-chosen dense unroll factors of Table
// 6.4 (40/40/4 for LeNet's three dense layers); other networks default to
// the largest divisor of N not exceeding 40.
func denseUnroll(n int) int {
	for _, f := range []int{40, 32, 20, 16, 10, 8, 5, 4, 2} {
		if n%f == 0 {
			return f
		}
	}
	return 1
}

// stage couples a lowered layer with its generated kernel and buffers.
type stage struct {
	layer *relay.Layer
	op    *topi.Op
	// scalars for symbolic kernels (nil for pipelined).
	bindings map[*ir.Var]int64
}

// Pipelined is a fully built pipelined deployment: kernels, design and the
// metadata needed to drive or verify it.
type Pipelined struct {
	Variant PipeVariant
	Board   *fpga.Board
	Design  *aoc.Design
	Layers  []*relay.Layer

	engine
	stages   []*stage
	inBuf    *ir.Buffer // network input (first kernel's global input)
	outBuf   *ir.Buffer // network output
	inShape  []int
	outShape []int
}

// BuildPipelined generates one kernel per layer according to the variant
// and compiles the design for the board.
func BuildPipelined(layers []*relay.Layer, variant PipeVariant, board *fpga.Board, opts aoc.Options) (*Pipelined, error) {
	p := &Pipelined{Variant: variant, Board: board, Layers: layers}
	useChannels := variant >= PipeChannels
	useAutorun := variant >= PipeAutorun

	// Pipelined execution requires a linear chain (no residuals) — the
	// thesis pipelines LeNet only.
	for _, l := range layers {
		if l.HasSkip || len(l.Ins) > 1 {
			return nil, fmt.Errorf("host: pipelined execution requires a linear chain (layer %s)", l.Name)
		}
	}

	// Channels between consecutive layers, sized to hold the producer's
	// full output feature map (§4.11).
	var chans []*ir.Channel
	if useChannels {
		for i, l := range layers[:len(layers)-1] {
			n := 1
			for _, d := range l.OutShape {
				n *= d
			}
			chans = append(chans, &ir.Channel{Name: fmt.Sprintf("ch%d", i), Depth: n})
		}
	}
	chanIn := func(i int) *ir.Channel {
		if !useChannels || i == 0 {
			return nil
		}
		return chans[i-1]
	}
	chanOut := func(i int) *ir.Channel {
		if !useChannels || i == len(layers)-1 {
			return nil
		}
		return chans[i]
	}

	var kernels []*ir.Kernel
	for i, l := range layers {
		io := topi.ConvIO{InCh: chanIn(i), OutCh: chanOut(i)}
		naive := variant <= PipeUnroll
		autorun := useAutorun && io.InCh != nil && io.OutCh != nil &&
			(l.Kind == relay.KMaxPool || l.Kind == relay.KAvgPool || l.Kind == relay.KFlatten)
		op, err := buildLayerKernel(l, naive, io, autorun, denseUnroll)
		if err != nil {
			return nil, err
		}
		if variant == PipeUnroll {
			if err := applyHandUnroll(op, l); err != nil {
				return nil, err
			}
		}
		p.stages = append(p.stages, &stage{layer: l, op: op})
		kernels = append(kernels, op.Kernel)
	}

	// Locate the network input/output buffers.
	first, last := p.stages[0], p.stages[len(p.stages)-1]
	p.inBuf, p.outBuf = first.op.In, last.op.Out
	p.inShape, p.outShape = layers[0].InShape, last.layer.OutShape
	if p.inBuf == nil || p.outBuf == nil {
		return nil, fmt.Errorf("host: pipeline endpoints must be global buffers")
	}

	d, err := aoc.Compile(fmt.Sprintf("pipelined-%s", variant), kernels, board, opts)
	if err != nil {
		return nil, err
	}
	p.Design = d
	return p, nil
}

// buildLayerKernel generates the kernel for one lowered layer.
func buildLayerKernel(l *relay.Layer, naive bool, io topi.ConvIO, autorun bool, du func(int) int) (*topi.Op, error) {
	switch l.Kind {
	case relay.KConv:
		spec := topi.ConvSpec{Name: l.Name, C1: l.InShape[0], H: l.InShape[1], W: l.InShape[2],
			C2: l.OutShape[0], F: l.F, S: l.S, Relu: l.Relu, Relu6: l.Relu6, Bias: l.B != nil, Residual: l.HasSkip}
		sched := topi.ConvSched{Naive: naive}
		if !naive {
			sched = topi.OptSched(1, 1, 1)
		}
		return topi.Conv2D(spec, sched, io)
	case relay.KDepthwise:
		spec := topi.DepthwiseSpec{Name: l.Name, C: l.InShape[0], H: l.InShape[1], W: l.InShape[2],
			F: l.F, S: l.S, Relu: l.Relu, Relu6: l.Relu6, Bias: l.B != nil}
		return topi.DepthwiseConv2D(spec, naive, 1, io)
	case relay.KDense:
		spec := topi.DenseSpec{Name: l.Name, N: l.InShape[0], M: l.OutShape[0], Relu: l.Relu, Relu6: l.Relu6, Bias: l.B != nil}
		kvec := 1
		if !naive {
			kvec = du(l.InShape[0])
		}
		return topi.Dense(spec, naive, kvec, io)
	case relay.KMaxPool, relay.KAvgPool:
		spec := topi.PoolSpec{Name: l.Name, C: l.InShape[0], H: l.InShape[1], W: l.InShape[2],
			F: l.F, S: l.S, Avg: l.Kind == relay.KAvgPool}
		return topi.Pool2D(spec, naive, io, autorun)
	case relay.KFlatten:
		return topi.Flatten(l.Name, l.OutShape[0], io, autorun)
	case relay.KSoftmax:
		return topi.Softmax(l.Name, l.OutShape[0], naive, io)
	case relay.KPad:
		return topi.Pad2D(topi.PadSpec{Name: l.Name, C: l.InShape[0], H: l.InShape[1], W: l.InShape[2], P: l.P}, io)
	}
	return nil, fmt.Errorf("host: cannot build kernel for layer kind %v", l.Kind)
}

// applyHandUnroll reproduces the Table 6.4 "Unrolling" bitstream: explicit
// #pragma unroll on the convolution F×F product loops and strip-mine+unroll
// on the dense reductions, applied with the schedule primitives to the naive
// kernels.
func applyHandUnroll(op *topi.Op, l *relay.Layer) error {
	body := op.Kernel.Body
	var err error
	switch l.Kind {
	case relay.KConv, relay.KDepthwise:
		for _, loop := range []string{"ry", "rx"} {
			body, err = schedule.UnrollByName(body, loop, -1)
			if err != nil {
				return fmt.Errorf("host: unrolling %s of %s: %w", loop, l.Name, err)
			}
		}
	case relay.KDense:
		f := denseUnroll(l.InShape[0])
		if f > 1 {
			body, err = schedule.UnrollByName(body, "k", f)
			if err != nil {
				return fmt.Errorf("host: unrolling dense %s: %w", l.Name, err)
			}
		}
	default:
		return nil
	}
	op.Kernel.Body = body
	return nil
}

// newSession binds every stage to a fresh machine. In buffered variants the
// consumer's input buffer aliases the producer's output, as the host program
// passes the same cl_mem to both kernels; a stage reading from one that does
// not strictly precede it would alias a buffer nothing has written yet, so it
// is refused with a TopologyError. Channel elision happens here, once per
// session, never per image and never at build time.
func (p *Pipelined) newSession() (*session, error) {
	m := p.newMachine()
	// zero collects every slice that must be cleared before each image so a
	// warm run starts from the same state as a cold one.
	var zero [][]float32
	own := func(b *ir.Buffer) {
		// Idempotent: when two stages share a buffer the first bind wins —
		// re-binding would orphan the slice a consumer already aliases.
		if b == nil || m.Buffer(b) != nil {
			return
		}
		n, _ := b.ConstLen()
		data := make([]float32, n)
		m.Bind(b, data)
		zero = append(zero, data)
	}
	var netIns []*ir.Buffer // rebound to the input of every image
	kernels := make([]*ir.Kernel, len(p.stages))
	for i, st := range p.stages {
		kernels[i] = st.op.Kernel
		if st.op.Weights != nil {
			m.Bind(st.op.Weights, st.layer.W.Data)
		}
		if st.op.Bias != nil {
			m.Bind(st.op.Bias, st.layer.B.Data)
		}
		for _, sc := range st.op.Scratches {
			own(sc)
		}
		own(st.op.Out)
		switch {
		case st.op.In == nil:
		case st.layer.In < 0:
			netIns = append(netIns, st.op.In)
		case st.layer.In >= i:
			return nil, &TopologyError{Stage: st.layer.Name, Index: i, In: st.layer.In}
		default:
			m.Bind(st.op.In, m.Buffer(p.stages[st.layer.In].op.Out))
		}
	}
	// Off the interpreter, balanced channels become session-owned buffers so
	// the nests around them reach the GEMM and vector lowerings; the
	// interpreter keeps the FIFOs as the channel-semantics oracle.
	if m.GetTier() != sim.TierInterp {
		var bufs []*ir.Buffer
		kernels, bufs = sim.ElideChannels(kernels)
		for _, b := range bufs {
			own(b)
		}
	}
	image := func(input []float32, tap tapFn) ([]float32, error) {
		for _, s := range zero {
			clear(s)
		}
		m.ResetChannels()
		for _, b := range netIns {
			m.Bind(b, input)
		}
		if err := m.RunGraph(kernels, nil); err != nil {
			return nil, err
		}
		if tap != nil {
			for i, st := range p.stages {
				tap(i, m.Buffer(st.op.Out))
			}
		}
		return m.Buffer(p.outBuf), nil
	}
	return &session{m: m, outShape: p.outShape, image: image}, nil
}

// program loads the pipeline onto ctx: one device buffer per kernel argument,
// parameters copied once at startup on a setup queue, then one shared command
// queue or — concurrent — one per kernel (§4.8). The shared queue is created
// in both modes, so a queue's id (which names its trace track) does not
// depend on the mode.
func (p *Pipelined) program(ctx *clrt.Context, concurrent bool, try tryFn) (*program, error) {
	bufs := map[*ir.Buffer]*clrt.Buffer{}
	devBuf := func(b *ir.Buffer) *clrt.Buffer {
		d, ok := bufs[b]
		if !ok {
			sz, _ := b.ConstLen()
			d = ctx.NewBuffer(b.Name, int(sz)*4)
			bufs[b] = d
		}
		return d
	}
	// One closure serves every upload (and, below, every kernel launch): a
	// literal at each try call would be heap-allocated per command.
	setup := ctx.NewQueue()
	var (
		param *clrt.Buffer
		bytes int
	)
	upload := func() (*clrt.Event, error) { return setup.EnqueueWrite(param, bytes) }
	for _, st := range p.stages {
		for _, pb := range []struct {
			buf *ir.Buffer
			t   *tensor.Tensor
		}{{st.op.Weights, st.layer.W}, {st.op.Bias, st.layer.B}} {
			if pb.buf == nil {
				continue
			}
			param, bytes = devBuf(pb.buf), pb.t.Bytes()
			if _, err := try(upload); err != nil {
				return nil, fmt.Errorf("parameter upload %s: %w", pb.buf.Name, err)
			}
		}
	}
	ctx.Finish()

	shared := ctx.NewQueue()
	queues := map[string]*clrt.Queue{}
	queueFor := func(kernel string) *clrt.Queue {
		if !concurrent {
			return shared
		}
		q, ok := queues[kernel]
		if !ok {
			q = ctx.NewQueue()
			queues[kernel] = q
		}
		return q
	}
	// The network input and output travel on the first and last kernel's
	// queue.
	first, last := p.stages[0].op.Kernel.Name, p.stages[len(p.stages)-1].op.Kernel.Name
	prog := &program{
		in: devBuf(p.inBuf), out: devBuf(p.outBuf),
		inBytes: shapeBytes(p.inShape), outBytes: shapeBytes(p.outShape),
		writeQ: func() *clrt.Queue { return queueFor(first) },
		readQ:  func() *clrt.Queue { return queueFor(last) },
	}
	var (
		call clrt.KernelCall
		q    *clrt.Queue
	)
	launch := func() (*clrt.Event, error) { return q.EnqueueKernel(call) }
	prog.enqueueImage = func(devIn, devOut *clrt.Buffer) error {
		for _, st := range p.stages {
			if st.op.Kernel.Autorun {
				continue
			}
			call = clrt.KernelCall{Name: st.op.Kernel.Name, Reads: call.Reads[:0], Writes: call.Writes[:0]}
			// In buffered variants the consumer reads the producer's output
			// buffer.
			if st.op.In != nil {
				if st.layer.In < 0 {
					call.Reads = append(call.Reads, devIn)
				} else {
					call.Reads = append(call.Reads, devBuf(p.stages[st.layer.In].op.Out))
				}
			}
			for _, b := range []*ir.Buffer{st.op.Weights, st.op.Bias} {
				if b != nil {
					call.Reads = append(call.Reads, devBuf(b))
				}
			}
			for _, b := range st.op.Scratches {
				call.Writes = append(call.Writes, devBuf(b))
			}
			if st.op.Out == p.outBuf {
				call.Writes = append(call.Writes, devOut)
			} else if st.op.Out != nil {
				call.Writes = append(call.Writes, devBuf(st.op.Out))
			}
			q = queueFor(call.Name)
			if _, err := try(launch); err != nil {
				return fmt.Errorf("kernel %s: %w", call.Name, err)
			}
		}
		return nil
	}
	return prog, nil
}

func (p *Pipelined) design() *aoc.Design { return p.Design }

// Infer runs one image functionally on a warm session (the host program's
// verification path) and returns the network output in a freshly allocated
// tensor the caller owns. Safe for concurrent use.
func (p *Pipelined) Infer(input *tensor.Tensor) (*tensor.Tensor, error) {
	return infer(p, input, nil)
}

// RunResult summarizes a timed run.
type RunResult struct {
	Images    int
	ElapsedUS float64
	FPS       float64
	// Breakdown sums event time by kind ("kernel"/"write"/"read").
	Breakdown map[string]float64
	// PerKernelUS sums kernel time by kernel name.
	PerKernelUS map[string]float64
	// Timeline is an ASCII Gantt chart of the measured window (setup
	// transfers excluded), showing queue serialization and pipeline overlap.
	Timeline string
}

// Run simulates classifying n images and reports throughput. concurrent
// selects one command queue per kernel (§4.8); profiling enables the OpenCL
// event profiler (which serializes execution, §5.2).
func (p *Pipelined) Run(n int, concurrent, profiling bool) (*RunResult, error) {
	return p.RunTraced(n, concurrent, profiling, nil)
}

// RunTraced is Run with structured tracing: the clrt event stream becomes
// device-side spans and each image a host-side span, with run metrics
// (occupancy, stall %, bandwidth, FPS) published to the collector's
// registry. A nil collector is ignored, so Run delegates here for free.
func (p *Pipelined) RunTraced(n int, concurrent, profiling bool, tc *trace.Collector) (*RunResult, error) {
	return runTimed(p, n, concurrent, profiling, tc)
}
