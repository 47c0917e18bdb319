package host

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

func mobilenetFoldedConfig() FoldedConfig {
	return FoldedConfig{
		Conv: map[string]topi.ConvSched{
			"conv1x1s1": topi.OptSched(7, 16, 4),
			"conv3x3s2": topi.OptSched(1, 1, 3),
		},
		DWVec:    map[string]int{"dw3x3s1": 7, "dw3x3s2": 7},
		DenseVec: 8, Workaround: true,
	}
}

// TestResilientLeNetLadderUnderFaults is the LeNet half of the chaos matrix:
// at fault rate 0.1 across three seeds, inference must complete with the
// correct output — by absorbing faults with retries, or by degrading — and
// must report what happened. FAULT_SEED selects the seed in CI.
func TestResilientLeNetLadderUnderFaults(t *testing.T) {
	layers := lenetLayers(t)
	input := nn.Digit(3)
	want, err := relay.Execute(layers, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		ctrl := RunControl{FaultSeed: seed, FaultRate: 0.1}
		rep, err := RunLadder("lenet5", layers, PipelinedLadder(layers, fpga.S10SX, aoc.DefaultOptions), input, 5, ctrl)
		if err != nil {
			t.Fatalf("seed %d: ladder must never fail outright: %v", seed, err)
		}
		if rep.Output == nil || rep.Output.ArgMax() != want.ArgMax() {
			t.Fatalf("seed %d: wrong classification under faults", seed)
		}
		if rep.Mode == "" {
			t.Fatalf("seed %d: report must name the serving mode", seed)
		}
		if len(rep.Faults) == 0 {
			t.Fatalf("seed %d: rate-0.1 run must record injected faults", seed)
		}
		if rep.Mode != "cpuref" && rep.Retries == 0 {
			t.Fatalf("seed %d: an accelerator rung at rate 0.1 must have retried (faults=%d)", seed, len(rep.Faults))
		}
		t.Logf("seed %d: %s", seed, rep.Summary())
	}
}

// TestResilientMobileNetUnderFaults is the MobileNet half of the chaos
// matrix: the timed resilient run must complete across three seeds at rate
// 0.1 without a panic, hang, or unrecovered error.
func TestResilientMobileNetUnderFaults(t *testing.T) {
	layers, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildFolded(layers, mobilenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		run, stats, err := f.Resilient(2, RunControl{FaultSeed: seed, FaultRate: 0.1})
		if err != nil {
			t.Fatalf("seed %d: MobileNet must complete via retries: %v", seed, err)
		}
		if run.FPS <= 0 {
			t.Fatalf("seed %d: no throughput", seed)
		}
		if len(stats.Faults) == 0 || stats.Retries == 0 {
			t.Fatalf("seed %d: expected absorbed faults (faults=%d retries=%d)",
				seed, len(stats.Faults), stats.Retries)
		}
	}
}

// TestResilientMatchesPlainRunWithoutFaults: rate 0 and no watchdog must
// reproduce the plain runner's timing exactly.
func TestResilientMatchesPlainRunWithoutFaults(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.Run(5, true, false)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := p.RunResilient(5, true, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedUS != plain.ElapsedUS {
		t.Fatalf("fault-free resilient run must match plain run: %v vs %v us", res.ElapsedUS, plain.ElapsedUS)
	}
	if stats.Retries != 0 || stats.WatchdogTrips != 0 || len(stats.Faults) != 0 {
		t.Fatalf("fault-free run absorbed something: %+v", stats)
	}
}

// fakeDeployment lets ladder tests exercise individual failure causes
// without paying for real builds.
type fakeDeployment struct {
	designErr error
	kernels   []*ir.Kernel
	inferErr  error
	out       *tensor.Tensor
	runErr    error
}

func (d *fakeDeployment) Infer(*tensor.Tensor) (*tensor.Tensor, error) { return d.out, d.inferErr }
func (d *fakeDeployment) Resilient(n int, ctrl RunControl) (*RunResult, *Resilience, error) {
	if d.runErr != nil {
		return nil, &Resilience{Retries: ctrl.MaxRetries}, d.runErr
	}
	return &RunResult{Images: n, ElapsedUS: 1, FPS: 1}, &Resilience{}, nil
}
func (d *fakeDeployment) RunBatch([]*tensor.Tensor, BatchOptions) (*BatchResult, error) {
	return nil, d.runErr
}
func (d *fakeDeployment) KernelSet() []*ir.Kernel { return d.kernels }
func (d *fakeDeployment) DesignErr() error        { return d.designErr }

// mismatchedKernels is a channel pair with unequal trip counts — the set the
// static verifier must keep off the device.
func mismatchedKernels() []*ir.Kernel {
	c := &ir.Channel{Name: "c", Depth: 8}
	d := ir.NewBuffer("d", ir.Global, 65)
	i, j := ir.V("i"), ir.V("j")
	prod := &ir.Kernel{Name: "prod",
		Body: ir.Loop(i, 64, &ir.ChannelWrite{Ch: c, Value: ir.CFloat(1)})}
	cons := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{d},
		Body: ir.Loop(j, 65, &ir.Store{Buf: d, Index: []ir.Expr{j}, Value: &ir.ChannelRead{Ch: c}})}
	return []*ir.Kernel{prod, cons}
}

func TestLadderRecordsEveryFallbackCause(t *testing.T) {
	layers := lenetLayers(t)
	input := nn.Digit(8)
	want, err := relay.Execute(layers, input)
	if err != nil {
		t.Fatal(err)
	}
	rungs := []Rung{
		{Name: "broken-build", Build: func() (Deployment, error) {
			return nil, errors.New("tiling does not divide")
		}},
		{Name: "unfit", Build: func() (Deployment, error) {
			return &fakeDeployment{designErr: errors.New("logic 182% of device")}, nil
		}},
		{Name: "bad-channels", Build: func() (Deployment, error) {
			return &fakeDeployment{kernels: mismatchedKernels()}, nil
		}},
		{Name: "flaky-runtime", Build: func() (Deployment, error) {
			return &fakeDeployment{out: want, runErr: fmt.Errorf("kernel conv1: %w",
				&fault.Error{Kind: fault.EnqueueFail, Code: fault.OutOfHostMemory, Transient: true})}, nil
		}},
		{Name: "healthy", Build: func() (Deployment, error) {
			return BuildPipelined(layers, PipeBase, fpga.S10SX, aoc.DefaultOptions)
		}},
	}
	rep, err := RunLadder("lenet5", layers, rungs, input, 2, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "healthy" || !rep.Degraded {
		t.Fatalf("should degrade to the healthy rung: mode=%s degraded=%v", rep.Mode, rep.Degraded)
	}
	if rep.Output.ArgMax() != want.ArgMax() {
		t.Fatal("degraded output must still classify correctly")
	}
	wantReasons := map[string]string{
		"broken-build":  "build failed",
		"unfit":         "does not fit",
		"bad-channels":  "verification rejected",
		"flaky-runtime": "timed run failed",
	}
	if len(rep.Fallbacks) != len(wantReasons) {
		t.Fatalf("fallbacks = %+v, want %d entries", rep.Fallbacks, len(wantReasons))
	}
	for _, fb := range rep.Fallbacks {
		if frag, ok := wantReasons[fb.From]; !ok || !strings.Contains(fb.Reason, frag) {
			t.Fatalf("fallback %q reason %q does not name its cause", fb.From, fb.Reason)
		}
	}
	sum := rep.Summary()
	for _, frag := range []string{"served by healthy", "fell back from broken-build", "fell back from bad-channels"} {
		if !strings.Contains(sum, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, sum)
		}
	}
}

func TestLadderFullyDegradesToCPUReference(t *testing.T) {
	layers := lenetLayers(t)
	input := nn.Digit(4)
	want, err := relay.Execute(layers, input)
	if err != nil {
		t.Fatal(err)
	}
	rungs := []Rung{
		{Name: "dead", Build: func() (Deployment, error) { return nil, errors.New("no bitstream") }},
	}
	rep, err := RunLadder("lenet5", layers, rungs, input, 1, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "cpuref" || !rep.Degraded || rep.Run != nil {
		t.Fatalf("want cpuref degradation, got mode=%s degraded=%v run=%v", rep.Mode, rep.Degraded, rep.Run)
	}
	if !tensor.AllClose(rep.Output, want, 0) {
		t.Fatal("cpuref output must be the reference output")
	}
}

// TestWatchdogTripDegrades: an impossibly tight deadline fails every
// accelerator rung through the watchdog; the ladder must still answer via
// the CPU reference and count the trips.
func TestWatchdogTripDegrades(t *testing.T) {
	layers := lenetLayers(t)
	input := nn.Digit(6)
	rungs := []Rung{{Name: "pipelined-Base", Build: func() (Deployment, error) {
		return BuildPipelined(layers, PipeBase, fpga.S10SX, aoc.DefaultOptions)
	}}}
	rep, err := RunLadder("lenet5", layers, rungs, input, 1, RunControl{WatchdogUS: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "cpuref" {
		t.Fatalf("nothing completes under a 1e-6us deadline; got mode=%s", rep.Mode)
	}
	if rep.WatchdogTrips == 0 {
		t.Fatal("watchdog trips must be counted")
	}
	if len(rep.Fallbacks) != 1 || !strings.Contains(rep.Fallbacks[0].Reason, "watchdog") {
		t.Fatalf("fallback must blame the watchdog: %+v", rep.Fallbacks)
	}
}

// TestWatchdogGenerousDeadlinePasses: a deadline above the longest command
// must not trip.
func TestWatchdogGenerousDeadlinePasses(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeBase, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.RunResilient(3, false, RunControl{WatchdogUS: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WatchdogTrips != 0 {
		t.Fatalf("generous deadline tripped %d times", stats.WatchdogTrips)
	}
}

// TestResilientRefusesUnsynthesizable: Design.Err() gates the resilient
// path exactly like the plain one.
func TestResilientRefusesUnsynthesizable(t *testing.T) {
	layers, err := relay.Lower(nn.MobileNetV1())
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
	if _, _, err := dep.Resilient(1, RunControl{}); err == nil {
		t.Fatal("Resilient must refuse an unsynthesizable design")
	}
}
