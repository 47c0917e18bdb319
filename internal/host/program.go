// The modeled device side shared by both deployment shapes: a deployment
// loaded onto one simulated device (program), the bounded retry-with-backoff
// policy for transient OpenCL failures (retrier), and the per-image timed
// driver behind Run and RunTraced. All timing is simulated clrt time;
// nothing here sleeps on the wall clock.

package host

import (
	"fmt"

	"repro/internal/aoc"
	"repro/internal/clrt"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The retry policy for transient injected faults: a command is re-enqueued
// up to maxRetries times, the host backing off retryBackoffUS of simulated
// time before the first retry and doubling it before each further one.
const (
	maxRetries     = 3
	retryBackoffUS = 50
)

// tryFn wraps one device command in its caller's retry policy.
type tryFn func(op func() (*clrt.Event, error)) (*clrt.Event, error)

// once issues a command exactly once: the policy of the per-image timed
// driver, which arms no fault injector.
func once(op func() (*clrt.Event, error)) (*clrt.Event, error) { return op() }

// retrier is the batch engine's policy: bounded retry-with-backoff on
// transient faults. Backoff advances the simulated host cursor, modeling the
// host spinning between clEnqueue attempts. retries counts the re-enqueues.
type retrier struct {
	ctx     *clrt.Context
	retries *int
}

func (r *retrier) try(op func() (*clrt.Event, error)) (*clrt.Event, error) {
	backoff := float64(retryBackoffUS)
	for attempt := 0; ; attempt++ {
		ev, err := op()
		if err == nil {
			return ev, nil
		}
		if !fault.IsTransient(err) || attempt >= maxRetries {
			return ev, fmt.Errorf("after %d attempt(s): %w", attempt+1, err)
		}
		*r.retries++
		r.ctx.AdvanceHost(backoff)
		backoff *= 2
	}
}

// program is a deployment loaded onto one simulated device — the one modeled
// description of a shape, built by its program method: device buffers
// allocated, parameters uploaded through the caller's retry wrapper, command
// queues created. Both modeled drivers (runTimed per image, runBatchWorker
// over buffer rings) enqueue through it.
type program struct {
	// in/out are the network I/O buffers of a per-image run; a batch worker
	// substitutes ring slots.
	in, out           *clrt.Buffer
	inBytes, outBytes int
	// writeQ/readQ resolve the queues a per-image run moves its input and
	// output on (resolved per use: per-kernel queues are created on demand).
	writeQ, readQ func() *clrt.Queue
	// enqueueImage enqueues one image's kernels reading devIn and writing
	// devOut.
	enqueueImage func(devIn, devOut *clrt.Buffer) error
}

// shapeBytes is the byte size of a float32 tensor of the given shape.
func shapeBytes(shape []int) int {
	n := 4
	for _, d := range shape {
		n *= d
	}
	return n
}

// runTimed is the per-image modeled driver behind every timed entry point:
// the shape's device program, then n images streamed back to back (write,
// kernels, read), free to pipeline across queues. The per-image event index
// ranges become the trace's image spans. It refuses an unsynthesizable
// design and a run of fewer than one image.
func runTimed(sh shape, n int, concurrent, profiling bool, tc *trace.Collector) (*RunResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("host: a timed run needs at least one image, got %d", n)
	}
	ctx, err := clrt.NewContext(sh.design()) // refuses an unsynthesizable design
	if err != nil {
		return nil, err
	}
	ctx.Profiling = profiling
	prog, err := sh.program(ctx, concurrent, once)
	if err != nil {
		return nil, err
	}

	start := ctx.ElapsedUS()
	imgRanges := make([][2]int, n)
	for img := range imgRanges {
		evLo := len(ctx.Events())
		if _, err := prog.writeQ().EnqueueWrite(prog.in, prog.inBytes); err != nil {
			return nil, fmt.Errorf("image %d: input write: %w", img, err)
		}
		if err := prog.enqueueImage(prog.in, prog.out); err != nil {
			return nil, fmt.Errorf("image %d: %w", img, err)
		}
		if _, err := prog.readQ().EnqueueRead(prog.out, prog.outBytes); err != nil {
			return nil, fmt.Errorf("image %d: output read: %w", img, err)
		}
		imgRanges[img] = [2]int{evLo, len(ctx.Events())}
	}
	ctx.Finish()
	elapsed := ctx.ElapsedUS() - start
	res := &RunResult{
		Images:      n,
		ElapsedUS:   elapsed,
		FPS:         float64(n) / elapsed * 1e6,
		Breakdown:   ctx.Breakdown(),
		PerKernelUS: ctx.BreakdownByName(),
		Timeline:    ctx.TimelineSince(72, start),
	}
	collectRunTrace(tc, ctx, imgRanges, start, res)
	return res, nil
}

// Deployment is a built accelerator deployment; both shapes (Pipelined,
// Folded) satisfy it. Servers and fleets run it through Infer and RunBatch;
// the code and host-program generators read its kernel set.
type Deployment interface {
	Infer(input *tensor.Tensor) (*tensor.Tensor, error)
	RunBatch(inputs []*tensor.Tensor, opts BatchOptions) (*BatchResult, error)
	KernelSet() []*ir.Kernel
}

// KernelSet implements Deployment.
func (p *Pipelined) KernelSet() []*ir.Kernel { return designKernels(p.Design) }

// KernelSet implements Deployment.
func (f *Folded) KernelSet() []*ir.Kernel { return designKernels(f.Design) }

func designKernels(d *aoc.Design) []*ir.Kernel {
	ks := make([]*ir.Kernel, len(d.Kernels))
	for i, m := range d.Kernels {
		ks[i] = m.Kernel
	}
	return ks
}
