// Host-side resilience (§5.2 hardening): bounded retry with backoff for
// transient OpenCL failures, a watchdog deadline on per-image completion,
// and a graceful-degradation ladder that falls from the optimized deployment
// through simpler bitstream variants down to the CPU reference executor,
// recording every fault, retry and fallback along the way. All timing is
// simulated clrt time; nothing here sleeps on the wall clock.

package host

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/clrt"
	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// RunControl configures the resilient execution path.
type RunControl struct {
	// FaultSeed/FaultRate build a deterministic fault.Injector when Injector
	// is nil. Rate 0 disables injection.
	FaultSeed int64
	FaultRate float64
	// Injector overrides seed/rate with a caller-owned injector (shared
	// across ladder rungs so the fault sequence and ledger stay contiguous).
	Injector *fault.Injector
	// WatchdogUS is the per-image completion deadline in simulated
	// microseconds; 0 disables the watchdog.
	WatchdogUS float64
	// MaxRetries bounds retries per command and per image (default 3).
	MaxRetries int
	// BackoffUS is the initial retry backoff in simulated microseconds,
	// doubled each attempt (default 50).
	BackoffUS float64
	// Trace receives spans and metrics for the run; nil disables tracing.
	Trace *trace.Collector
	// TraceOffsetUS shifts this run's events on the global trace clock. The
	// degradation ladder runs every rung in a fresh clrt context starting at
	// 0, so it places each rung after the cumulative time of the ones before.
	TraceOffsetUS float64
}

func (c RunControl) withDefaults() RunControl {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffUS == 0 {
		c.BackoffUS = 50
	}
	return c
}

func (c RunControl) injector() *fault.Injector {
	if c.Injector != nil {
		return c.Injector
	}
	if c.FaultRate <= 0 {
		return nil
	}
	return fault.NewInjector(c.FaultSeed, c.FaultRate)
}

// Resilience reports what the resilient runner absorbed during one run.
type Resilience struct {
	Retries       int
	WatchdogTrips int
	Faults        []fault.Record
	// TotalUS is the run's total simulated time including setup — the amount
	// the degradation ladder advances its global trace clock by.
	TotalUS float64
}

// tryFn wraps one device command in its caller's retry policy.
type tryFn func(op func() (*clrt.Event, error)) (*clrt.Event, error)

// retrier is that policy: bounded retry-with-backoff on transient faults.
// Backoff advances the simulated host cursor, modeling the host spinning
// between clEnqueue attempts. retries counts the re-enqueues.
type retrier struct {
	ctx     *clrt.Context
	ctrl    RunControl
	retries *int
}

func (r *retrier) try(op func() (*clrt.Event, error)) (*clrt.Event, error) {
	backoff := r.ctrl.BackoffUS
	for attempt := 0; ; attempt++ {
		ev, err := op()
		if err == nil {
			return ev, nil
		}
		if !fault.IsTransient(err) || attempt >= r.ctrl.MaxRetries {
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
// queues created. Both modeled drivers (runResilient per image, runBatchWorker
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

// runImages drives n images through enqueueImage under the watchdog. When a
// deadline is set, each image is synchronized (clFinish) and checked; a trip
// re-enqueues the image, up to MaxRetries. Without a deadline images stream
// back-to-back and pipeline freely. The returned event index ranges cover
// each image's commands including retried attempts (the trace's image span
// shows what the image actually cost, not just the successful attempt).
func runImages(ctx *clrt.Context, ctrl RunControl, stats *Resilience, n int, enqueueImage func() error) ([][2]int, error) {
	imgRanges := make([][2]int, 0, n)
	for img := 0; img < n; img++ {
		evLo := len(ctx.Events())
		if ctrl.WatchdogUS <= 0 {
			if err := enqueueImage(); err != nil {
				return imgRanges, fmt.Errorf("image %d: %w", img, err)
			}
			imgRanges = append(imgRanges, [2]int{evLo, len(ctx.Events())})
			continue
		}
		backoff := ctrl.BackoffUS
		for attempt := 0; ; attempt++ {
			imgStart := ctx.ElapsedUS()
			if err := enqueueImage(); err != nil {
				return imgRanges, fmt.Errorf("image %d: %w", img, err)
			}
			ctx.Finish()
			ev := ctx.WatchdogExceeded(imgStart, ctrl.WatchdogUS)
			if ev == nil {
				break
			}
			stats.WatchdogTrips++
			if attempt >= ctrl.MaxRetries {
				return imgRanges, fmt.Errorf("image %d: %s %s exceeded the %v us watchdog deadline (%v us) %d time(s)",
					img, ev.Kind, ev.Name, ctrl.WatchdogUS, ev.Duration(), attempt+1)
			}
			ctx.AdvanceHost(backoff)
			backoff *= 2
		}
		imgRanges = append(imgRanges, [2]int{evLo, len(ctx.Events())})
	}
	ctx.Finish()
	return imgRanges, nil
}

// runResilient is the per-image modeled driver behind every timed entry
// point: fault injection, bounded retry and an optional per-image watchdog
// around the shape's device program. Run and RunTraced are this with a zero
// RunControl (plus the profiler switch and a collector). It returns the
// absorbed-fault statistics alongside the timing result; an error means the
// deployment could not complete even with retries (the degradation ladder's
// cue to fall back).
func runResilient(sh shape, n int, concurrent, profiling bool, ctrl RunControl) (*RunResult, *Resilience, error) {
	ctrl = ctrl.withDefaults()
	ctx, err := clrt.NewContext(sh.design()) // refuses an unsynthesizable design
	if err != nil {
		return nil, nil, err
	}
	ctx.Profiling = profiling
	inj := ctrl.injector()
	ctx.Injector = inj
	stats := &Resilience{}
	faultsBefore := inj.Count() // a ladder-shared injector already has records
	r := &retrier{ctx: ctx, ctrl: ctrl, retries: &stats.Retries}
	prog, err := sh.program(ctx, concurrent, r.try)
	if err != nil {
		return nil, stats, err
	}

	start := ctx.ElapsedUS()
	enqueueImage := func() error {
		if _, err := r.try(func() (*clrt.Event, error) { return prog.writeQ().EnqueueWrite(prog.in, prog.inBytes) }); err != nil {
			return fmt.Errorf("input write: %w", err)
		}
		if err := prog.enqueueImage(prog.in, prog.out); err != nil {
			return err
		}
		if _, err := r.try(func() (*clrt.Event, error) { return prog.readQ().EnqueueRead(prog.out, prog.outBytes) }); err != nil {
			return fmt.Errorf("output read: %w", err)
		}
		return nil
	}
	imgRanges, err := runImages(ctx, ctrl, stats, n, enqueueImage)
	stats.TotalUS = ctx.ElapsedUS()
	stats.Faults = inj.Records()
	var res *RunResult
	if err == nil {
		elapsed := ctx.ElapsedUS() - start
		res = &RunResult{
			Images:      n,
			ElapsedUS:   elapsed,
			FPS:         float64(n) / elapsed * 1e6,
			Breakdown:   ctx.Breakdown(),
			PerKernelUS: ctx.BreakdownByName(),
			Timeline:    ctx.TimelineSince(72, start),
		}
	}
	collectResilientTrace(ctrl, ctx, inj, faultsBefore, stats, res, imgRanges, start)
	return res, stats, err
}

// RunResilient is Run with fault injection, bounded retry, and an optional
// per-image watchdog; see runResilient.
func (p *Pipelined) RunResilient(n int, concurrent bool, ctrl RunControl) (*RunResult, *Resilience, error) {
	return runResilient(p, n, concurrent, false, ctrl)
}

// RunResilient is the folded counterpart of the pipelined resilient runner.
func (f *Folded) RunResilient(n int, ctrl RunControl) (*RunResult, *Resilience, error) {
	return runResilient(f, n, false, false, ctrl)
}

// Deployment is a built accelerator deployment the degradation ladder can
// drive: functional inference for output checking, resilient timed
// execution, and enough introspection to verify the kernel set.
type Deployment interface {
	Infer(input *tensor.Tensor) (*tensor.Tensor, error)
	Resilient(n int, ctrl RunControl) (*RunResult, *Resilience, error)
	KernelSet() []*ir.Kernel
	DesignErr() error
}

// Resilient implements Deployment (pipelined deployments always use
// concurrent queues on the ladder; serial execution is a benchmarking mode,
// not a deployment mode).
func (p *Pipelined) Resilient(n int, ctrl RunControl) (*RunResult, *Resilience, error) {
	return p.RunResilient(n, true, ctrl)
}

// KernelSet implements Deployment.
func (p *Pipelined) KernelSet() []*ir.Kernel { return designKernels(p.Design) }

// DesignErr implements Deployment.
func (p *Pipelined) DesignErr() error { return p.Design.Err() }

// Resilient implements Deployment.
func (f *Folded) Resilient(n int, ctrl RunControl) (*RunResult, *Resilience, error) {
	return f.RunResilient(n, ctrl)
}

// KernelSet implements Deployment.
func (f *Folded) KernelSet() []*ir.Kernel { return designKernels(f.Design) }

// DesignErr implements Deployment.
func (f *Folded) DesignErr() error { return f.Design.Err() }

func designKernels(d *aoc.Design) []*ir.Kernel {
	ks := make([]*ir.Kernel, len(d.Kernels))
	for i, m := range d.Kernels {
		ks[i] = m.Kernel
	}
	return ks
}

// Rung is one candidate deployment on the degradation ladder, ordered most
// to least optimized. Build is called lazily: lower rungs cost nothing
// unless an upper rung fails.
type Rung struct {
	Name  string
	Build func() (Deployment, error)
}

// Fallback records one step down the ladder and why it was taken.
type Fallback struct {
	From   string
	Reason string
}

// ResilientReport is the full outcome of a ladder run: which rung finally
// served, the output it produced, and everything absorbed on the way.
type ResilientReport struct {
	Net    string
	Mode   string // rung name, or "cpuref" when fully degraded
	Output *tensor.Tensor
	// Run is the timed result of the serving rung; nil when degraded to the
	// CPU reference (which has no device timeline).
	Run           *RunResult
	Faults        []fault.Record
	Fallbacks     []Fallback
	Retries       int
	WatchdogTrips int
	Degraded      bool
}

// Summary renders the report for humans.
func (r *ResilientReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: served by %s", r.Net, r.Mode)
	if r.Run != nil {
		fmt.Fprintf(&b, " (%d image(s), %.0f us, %.1f FPS)", r.Run.Images, r.Run.ElapsedUS, r.Run.FPS)
	}
	fmt.Fprintf(&b, "\n  retries=%d watchdog_trips=%d faults=%d degraded=%v\n",
		r.Retries, r.WatchdogTrips, len(r.Faults), r.Degraded)
	if len(r.Faults) > 0 {
		byKind := map[string]int{}
		var order []string
		for _, f := range r.Faults {
			if byKind[f.Kind.String()] == 0 {
				order = append(order, f.Kind.String())
			}
			byKind[f.Kind.String()]++
		}
		b.WriteString("  injected: ")
		for i, k := range order {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s x%d", k, byKind[k])
		}
		b.WriteString("\n")
	}
	for _, f := range r.Fallbacks {
		fmt.Fprintf(&b, "  fell back from %s: %s\n", f.From, f.Reason)
	}
	return b.String()
}

// RunLadder walks the rungs most-optimized first. A rung serves only if it
// builds, fits, passes static channel verification, produces output matching
// the CPU reference, and completes a timed resilient run of n images. Any
// failure records a Fallback and tries the next rung; when every rung fails
// the CPU reference executor serves the answer, so the ladder never returns
// an inference failure for a network the reference can run.
func RunLadder(net string, layers []*relay.Layer, rungs []Rung, input *tensor.Tensor, n int, ctrl RunControl) (*ResilientReport, error) {
	ctrl = ctrl.withDefaults()
	if ctrl.Injector == nil {
		ctrl.Injector = ctrl.injector() // share one ledger across rungs
	}
	want, err := relay.Execute(layers, input)
	if err != nil {
		return nil, fmt.Errorf("host: reference execution failed, nothing to degrade to: %w", err)
	}

	rep := &ResilientReport{Net: net}
	tc := ctrl.Trace
	// Cumulative clock of the ladder walk: every rung runs in a fresh clrt
	// context starting at 0, so its spans are shifted past the rungs before.
	offsetUS := ctrl.TraceOffsetUS
	fail := func(rung Rung, reason string) {
		rep.Fallbacks = append(rep.Fallbacks, Fallback{From: rung.Name, Reason: reason})
		tc.Metrics().Counter("host.fallbacks").Inc()
		tc.Instant("host", "ladder", rung.Name, "rung", offsetUS,
			map[string]string{"status": "failed", "reason": reason})
	}
	for _, rung := range rungs {
		dep, err := rung.Build()
		if err != nil {
			fail(rung, fmt.Sprintf("build failed: %v", err))
			continue
		}
		if err := dep.DesignErr(); err != nil {
			fail(rung, fmt.Sprintf("does not fit/route: %v", err))
			continue
		}
		if err := verify.Kernels(dep.KernelSet()).Err(); err != nil {
			fail(rung, fmt.Sprintf("static channel verification rejected the design: %v", err))
			continue
		}
		out, err := dep.Infer(input)
		if err != nil {
			fail(rung, fmt.Sprintf("functional execution failed: %v", err))
			continue
		}
		if out.ArgMax() != want.ArgMax() || tensor.MaxAbsDiff(out, want) > 1e-3 {
			fail(rung, fmt.Sprintf("output mismatch vs reference (max |diff| %.2e)", tensor.MaxAbsDiff(out, want)))
			continue
		}
		rungCtrl := ctrl
		rungCtrl.TraceOffsetUS = offsetUS
		run, stats, err := dep.Resilient(n, rungCtrl)
		status := "served"
		if err != nil {
			status = "failed"
		}
		if stats != nil {
			rep.Retries += stats.Retries
			rep.WatchdogTrips += stats.WatchdogTrips
			if stats.TotalUS > 0 {
				tc.Add(trace.Span{Proc: "host", Track: "ladder", Name: rung.Name, Cat: "rung",
					StartUS: offsetUS, DurUS: stats.TotalUS,
					Args: map[string]string{"status": status}})
				offsetUS += stats.TotalUS
			}
		}
		if err != nil {
			fail(rung, fmt.Sprintf("timed run failed despite retries: %v", err))
			continue
		}
		rep.Mode, rep.Output, rep.Run = rung.Name, out, run
		rep.Degraded = len(rep.Fallbacks) > 0
		if ctrl.Injector != nil {
			rep.Faults = ctrl.Injector.Records()
		}
		return rep, nil
	}

	// Fully degraded: serve from the CPU reference executor.
	rep.Mode, rep.Output, rep.Degraded = "cpuref", want, true
	tc.Instant("host", "ladder", "cpuref", "rung", offsetUS,
		map[string]string{"status": "served", "degraded": "true"})
	if ctrl.Injector != nil {
		rep.Faults = ctrl.Injector.Records()
	}
	return rep, nil
}

// PipelinedLadder builds the standard pipelined degradation ladder:
// the fully optimized autorun deployment, then channels without autorun,
// then the naive base bitstream.
func PipelinedLadder(layers []*relay.Layer, board *fpga.Board, opts aoc.Options) []Rung {
	mk := func(v PipeVariant) Rung {
		return Rung{
			Name: "pipelined-" + v.String(),
			Build: func() (Deployment, error) {
				return BuildPipelined(layers, v, board, opts)
			},
		}
	}
	return []Rung{mk(PipeTVMAutorun), mk(PipeChannels), mk(PipeBase)}
}

// FoldedLadder builds the folded degradation ladder: the tuned configuration
// first, then the untuned parameterized kernel set (vector width 1
// everywhere), which uses far less area.
func FoldedLadder(layers []*relay.Layer, tuned FoldedConfig, board *fpga.Board, opts aoc.Options) []Rung {
	return []Rung{
		{Name: "folded-tuned", Build: func() (Deployment, error) {
			return BuildFolded(layers, tuned, board, opts)
		}},
		{Name: "folded-untuned", Build: func() (Deployment, error) {
			return BuildFolded(layers, FoldedConfig{Workaround: true}, board, opts)
		}},
	}
}
