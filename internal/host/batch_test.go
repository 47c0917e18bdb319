package host

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

func batchInputs(n int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = nn.Digit(i % 10)
	}
	return ins
}

// bitEqual asserts two tensors are identical to the bit, not just close:
// RunBatch's contract is exact equivalence with sequential Infer.
func bitEqual(t *testing.T, tag string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", tag, len(got.Data), len(want.Data))
	}
	for j := range want.Data {
		if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
			t.Fatalf("%s: elem %d: %v (%#08x) != %v (%#08x) (bit-exact contract)", tag, j,
				got.Data[j], math.Float32bits(got.Data[j]), want.Data[j], math.Float32bits(want.Data[j]))
		}
	}
}

// batchDeployment is the surface the property tests drive on both shapes.
type batchDeployment interface {
	shape
	Infer(*tensor.Tensor) (*tensor.Tensor, error)
	RunBatch([]*tensor.Tensor, BatchOptions) (*BatchResult, error)
	DumpActivations(*tensor.Tensor) ([]*tensor.Tensor, error)
}

// batchDeployments builds the three deployment shapes the batch engine must
// serve: a channel/autorun pipeline, a plain buffered pipeline, and a folded
// plan with parameterized kernels.
func batchDeployments(t *testing.T) map[string]batchDeployment {
	t.Helper()
	layers := lenetLayers(t)
	out := map[string]batchDeployment{}
	for _, v := range []PipeVariant{PipeTVMAutorun, PipeBase} {
		p, err := BuildPipelined(layers, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		out["pipelined-"+v.String()] = p
	}
	f, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	out["folded"] = f
	return out
}

// coldInfer is the independent oracle now that Infer itself is warm: a
// fresh session per image — the same code on cold state (new
// machine, nothing compiled, plain make()d buffers, empty FIFOs).
func coldInfer(t *testing.T, sh shape, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	s, err := sh.newSession()
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func coldInferAll(t *testing.T, sh shape, inputs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	want := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		want[i] = coldInfer(t, sh, in)
	}
	return want
}

// TestRunBatchMatchesSequential is the batch/serial equivalence property
// test: for every deployment shape and worker count, RunBatch outputs and N
// sequential (warm) Infer calls must both be bit-identical to the cold
// reference.
func TestRunBatchMatchesSequential(t *testing.T) {
	const n = 12
	inputs := batchInputs(n)
	for name, dep := range batchDeployments(t) {
		want := coldInferAll(t, dep, inputs)
		for i, in := range inputs {
			got, err := dep.Infer(in)
			if err != nil {
				t.Fatalf("%s: sequential image %d: %v", name, i, err)
			}
			bitEqual(t, name+" warm Infer vs cold session", got, want[i])
		}
		for _, workers := range []int{1, 2, 8} {
			res, err := dep.RunBatch(inputs, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if res.Images != n || len(res.Outputs) != n {
				t.Fatalf("%s workers=%d: %d/%d outputs", name, workers, len(res.Outputs), res.Images)
			}
			if res.ModeledUS <= 0 || res.ImagesPerSec <= 0 {
				t.Fatalf("%s workers=%d: no modeled time (%v us, %v img/s)", name, workers, res.ModeledUS, res.ImagesPerSec)
			}
			for i := range inputs {
				bitEqual(t, name, res.Outputs[i], want[i])
			}
		}
	}
}

// ledgerString renders the attribution invariants of a batch fault ledger:
// image, kind and per-image sequence. Op is excluded — it names the physical
// ring slot, which depends on the worker striping.
func ledgerString(faults []BatchFault) string {
	var b strings.Builder
	for _, bf := range faults {
		fmt.Fprintf(&b, "%d:%s:%d ", bf.Image, bf.Record.Kind, bf.Record.Seq)
	}
	return b.String()
}

// TestInferMatchesSessionUnderFaults is the Infer-equals-session property
// under fault injection: with Infer and RunBatch workers drawing from one
// session cache, every output — warm Infer before, between and after faulted
// batches, and every batch output at workers {1,2,8} — is bit-identical to
// the cold reference, and the per-image fault ledger, retry count and
// single-worker modeled time are exactly the ones the twelve hand-copied
// loops produced before they were folded into one session and one device
// program per shape.
func TestInferMatchesSessionUnderFaults(t *testing.T) {
	const n = 12
	inputs := batchInputs(n)
	golden := map[string]struct {
		ledger    string
		retries   int
		modeledUS float64 // Workers: 1
	}{
		"pipelined-TVM-Autorun": {"0:enqueue-fail:1 0:kernel-stall:2 1:kernel-stall:1 1:kernel-stall:2 2:enqueue-fail:1 2:kernel-stall:2 3:transfer-corrupt:1 3:kernel-stall:2 4:enqueue-fail:1 5:kernel-stall:1 6:enqueue-fail:1 7:kernel-stall:1 8:enqueue-fail:1 8:transfer-corrupt:2 9:kernel-stall:1 9:transfer-corrupt:2 10:enqueue-fail:1 10:enqueue-fail:2 11:kernel-stall:1 11:enqueue-fail:2 ",
			11, 15069.760687937214},
		"pipelined-Base": {"0:enqueue-fail:1 0:kernel-stall:2 1:kernel-stall:1 1:kernel-stall:2 2:enqueue-fail:1 2:kernel-stall:2 2:transfer-corrupt:3 3:transfer-corrupt:1 3:kernel-stall:2 3:enqueue-fail:3 4:enqueue-fail:1 4:enqueue-fail:2 5:kernel-stall:1 5:enqueue-fail:2 6:enqueue-fail:1 6:enqueue-fail:2 7:kernel-stall:1 7:enqueue-fail:2 8:enqueue-fail:1 8:enqueue-fail:2 9:kernel-stall:1 9:enqueue-fail:2 10:enqueue-fail:1 10:enqueue-fail:2 11:kernel-stall:1 11:enqueue-fail:2 ",
			17, 175337.48954849658},
		"folded": {"0:enqueue-fail:1 0:kernel-stall:2 1:kernel-stall:1 1:kernel-stall:2 2:enqueue-fail:1 2:kernel-stall:2 3:transfer-corrupt:1 3:kernel-stall:2 3:transfer-corrupt:3 4:enqueue-fail:1 4:transfer-corrupt:2 5:kernel-stall:1 5:transfer-corrupt:2 6:enqueue-fail:1 6:enqueue-fail:2 7:kernel-stall:1 7:enqueue-fail:2 8:enqueue-fail:1 8:enqueue-fail:2 9:kernel-stall:1 9:enqueue-fail:2 10:enqueue-fail:1 10:enqueue-fail:2 11:kernel-stall:1 11:enqueue-fail:2 ",
			16, 26473.702115431795},
	}
	for name, dep := range batchDeployments(t) {
		want := coldInferAll(t, dep, inputs)
		checkInfer := func(when string) {
			for i, in := range inputs {
				got, err := dep.Infer(in)
				if err != nil {
					t.Fatalf("%s: Infer %s: image %d: %v", name, when, i, err)
				}
				bitEqual(t, name+" Infer "+when, got, want[i])
			}
		}
		checkInfer("before any batch")
		for _, workers := range []int{1, 2, 8} {
			res, err := dep.RunBatch(inputs, BatchOptions{Workers: workers, FaultSeed: 5, FaultRate: 0.1})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i := range inputs {
				bitEqual(t, name+" faulted batch", res.Outputs[i], want[i])
			}
			g := golden[name]
			if got := ledgerString(res.Faults); got != g.ledger {
				t.Errorf("%s workers=%d: per-image ledger drifted:\n got %s\nwant %s", name, workers, got, g.ledger)
			}
			if res.Retries != g.retries {
				t.Errorf("%s workers=%d: %d retries, want %d", name, workers, res.Retries, g.retries)
			}
			if workers == 1 && res.ModeledUS != g.modeledUS {
				t.Errorf("%s: modeled time %v us, want %v", name, res.ModeledUS, g.modeledUS)
			}
			checkInfer(fmt.Sprintf("after the workers=%d batch", workers))
		}
	}
}

// TestWarmSessionsStopRecompiling: after one warm-up call, further Infer and
// DumpActivations calls reuse the deployment's warm session — no kernel is
// compiled again (CacheMisses) and no loop is re-analysed into the fallback
// tier (FallbackLoops). Before sessions, every call built cold machines and
// both counters grew per call.
func TestWarmSessionsStopRecompiling(t *testing.T) {
	in := nn.Digit(4)
	for name, dep := range batchDeployments(t) {
		call := func() {
			if _, err := dep.Infer(in); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "pipelined-TVM-Autorun" {
				return // channelized: no per-layer dump
			}
			if _, err := dep.DumpActivations(in); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		call()
		warm := dep.state().SimStats()
		if warm.CacheMisses == 0 {
			t.Fatalf("%s: warm-up compiled nothing: %+v", name, warm)
		}
		for i := 0; i < 5; i++ {
			call()
		}
		after := dep.state().SimStats()
		if after.CacheMisses != warm.CacheMisses || after.FallbackLoops != warm.FallbackLoops {
			t.Errorf("%s: recompiled after warm-up: misses %d -> %d, fallback loops %d -> %d",
				name, warm.CacheMisses, after.CacheMisses, warm.FallbackLoops, after.FallbackLoops)
		}
		if after.CacheHits <= warm.CacheHits {
			t.Errorf("%s: warm calls did not hit the kernel cache (%d -> %d)", name, warm.CacheHits, after.CacheHits)
		}
	}
}

// TestConcurrentInfer: concurrent Infer calls on one deployment each get a
// session of their own and stay bit-identical to the cold reference (run
// under the race detector by `make race`).
func TestConcurrentInfer(t *testing.T) {
	inputs := batchInputs(4)
	for name, dep := range batchDeployments(t) {
		want := coldInferAll(t, dep, inputs)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					i := (g + r) % len(inputs)
					got, err := dep.Infer(inputs[i])
					if err != nil {
						t.Errorf("%s: goroutine %d: %v", name, g, err)
						return
					}
					for j := range want[i].Data {
						if got.Data[j] != want[i].Data[j] {
							t.Errorf("%s: goroutine %d image %d elem %d: %v != %v", name, g, i, j, got.Data[j], want[i].Data[j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestRunBatchFaultLedgerDeterministic checks the fault-attribution property:
// under injection, outputs stay bit-identical to fault-free sequential runs
// (transient faults are absorbed by retry) and the per-image fault ledger is
// identical for every worker count.
func TestRunBatchFaultLedgerDeterministic(t *testing.T) {
	const n = 16
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(n)
	want := coldInferAll(t, p, inputs)
	opts := BatchOptions{FaultSeed: 42, FaultRate: 0.04}
	var ref *BatchResult
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		res, err := p.RunBatch(inputs, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range inputs {
			bitEqual(t, "faulted batch", res.Outputs[i], want[i])
		}
		if ref == nil {
			ref = res
			if len(res.Faults) == 0 {
				t.Fatal("fault rate 0.04 over 16 LeNet images injected nothing; test is vacuous")
			}
			continue
		}
		if len(res.Faults) != len(ref.Faults) {
			t.Fatalf("workers=%d: %d faults vs %d at workers=1", workers, len(res.Faults), len(ref.Faults))
		}
		// Op is excluded from the comparison: it names the physical ring slot
		// ("write batch_in[0]"), and which slot an image lands on depends on
		// the worker striping. Image index, kind, code and per-image sequence
		// are the attribution invariants.
		for i, bf := range res.Faults {
			rf := ref.Faults[i]
			if bf.Image != rf.Image || bf.Record.Kind != rf.Record.Kind ||
				bf.Record.Seq != rf.Record.Seq || bf.Record.Code != rf.Record.Code {
				t.Fatalf("workers=%d: fault %d = {img %d %s seq %d}, want {img %d %s seq %d}",
					res.Workers, i, bf.Image, bf.Record.Kind, bf.Record.Seq,
					rf.Image, rf.Record.Kind, rf.Record.Seq)
			}
		}
		if res.Retries != ref.Retries {
			t.Fatalf("workers=%d: %d retries vs %d at workers=1", workers, res.Retries, ref.Retries)
		}
	}
}

// TestRunBatchKeepsFaultLedgerOnFailure: a batch that fails despite retries returns
// a partial result with its error — no outputs, but every fault injected so
// far, the failing image's included, and the retries spent.
func TestRunBatchKeepsFaultLedgerOnFailure(t *testing.T) {
	p, err := BuildPipelined(lenetLayers(t), PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := p.RunBatch(batchInputs(4), BatchOptions{Workers: 1, FaultSeed: seed, FaultRate: 0.9})
		if err == nil {
			t.Fatalf("seed %d: rate 0.9 must exhaust the retries", seed)
		}
		if res == nil || res.Outputs != nil {
			t.Fatalf("seed %d: want a partial result without outputs, got %+v", seed, res)
		}
		var failed int
		if _, serr := fmt.Sscanf(err.Error()[strings.Index(err.Error(), "image "):], "image %d", &failed); serr != nil {
			t.Fatalf("seed %d: error does not name the failing image: %v", seed, err)
		}
		var own int
		for _, bf := range res.Faults {
			if bf.Image == failed {
				own++
			}
		}
		if own <= maxRetries || res.Retries < maxRetries {
			t.Fatalf("seed %d: image %d failed (%v) but the ledger holds %d of its faults and %d retries",
				seed, failed, err, own, res.Retries)
		}
	}
}

// TestRunBatchDoubleBufferingHelps: with double buffering on (default), the
// modeled batch time must beat the depth-1 ablation and hide more transfer
// time behind kernels.
func TestRunBatchDoubleBufferingHelps(t *testing.T) {
	const n = 16
	layers := lenetLayers(t)
	f, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(n)
	db, err := f.RunBatch(inputs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := f.RunBatch(inputs, BatchOptions{Workers: 1, NoDoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.ModeledUS >= serial.ModeledUS {
		t.Fatalf("double buffering did not help: %v >= %v us", db.ModeledUS, serial.ModeledUS)
	}
	if db.Overlap.Ratio <= serial.Overlap.Ratio {
		t.Fatalf("overlap ratio did not improve: %v <= %v", db.Overlap.Ratio, serial.Overlap.Ratio)
	}
}

// TestRunBatchModeledWorkerScaling pins the modeled clock of the deployed
// LeNet (pipelined, S10SX) over 16 digits: one worker with depth-1 rings
// (the serial host structure) against a four-worker pool, which divides the
// modeled time by four.
func TestRunBatchModeledWorkerScaling(t *testing.T) {
	p, err := BuildPipelined(lenetLayers(t), PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(16)
	for _, c := range []struct {
		opts BatchOptions
		us   float64
	}{
		{BatchOptions{Workers: 1, NoDoubleBuffer: true}, 3104.064},
		{BatchOptions{Workers: 4}, 776.016},
	} {
		res, err := p.RunBatch(inputs, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ModeledUS-c.us) > 1e-6 {
			t.Errorf("%+v: modeled %.6f us, want %.3f", c.opts, res.ModeledUS, c.us)
		}
	}
}

// TestRunBatchCancellation: a canceled context stops the batch with the
// context's error instead of finishing the work.
func TestRunBatchCancellation(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeBase, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunBatch(batchInputs(8), BatchOptions{Workers: 2, Context: cctx}); err == nil {
		t.Fatal("canceled batch returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry the context cause: %v", err)
	}
}

// TestRunBatchTrace: the batch publishes per-image spans, per-worker device
// processes and throughput gauges to the collector.
func TestRunBatchTrace(t *testing.T) {
	const n = 6
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewCollector()
	res, err := p.RunBatch(batchInputs(n), BatchOptions{Workers: 2, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	images, device := 0, 0
	for _, sp := range tc.Spans() {
		if sp.Cat == "image" {
			images++
		}
		if sp.Proc == "device w0" || sp.Proc == "device w1" {
			device++
		}
	}
	if images != n {
		t.Fatalf("%d image spans, want %d", images, n)
	}
	if device == 0 {
		t.Fatal("no per-worker device spans")
	}
	if got := tc.Metrics().Gauge("host.batch.images_per_sec").Value(); got != res.ImagesPerSec {
		t.Fatalf("images_per_sec gauge %v != result %v", got, res.ImagesPerSec)
	}
	if got := tc.Metrics().Gauge("host.batch.overlap_ratio").Value(); got != res.Overlap.Ratio {
		t.Fatalf("overlap_ratio gauge %v != result %v", got, res.Overlap.Ratio)
	}
	if got := tc.Metrics().Counter("host.batch.images").Value(); got != int64(n) {
		t.Fatalf("images counter %d != %d", got, n)
	}
}

// TestRunBatchTraceFaultAccounting: a traced batch under injection neither
// drops nor double counts faults — the per-kind fault counters and the fault
// instants both sum to the result's ledger.
func TestRunBatchTraceFaultAccounting(t *testing.T) {
	p, err := BuildPipelined(lenetLayers(t), PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewCollector()
	res, err := p.RunBatch(batchInputs(8), BatchOptions{Workers: 2, Trace: tc, FaultSeed: 7, FaultRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) == 0 {
		t.Fatal("fault rate 0.05 over 8 LeNet images injected nothing; test is vacuous")
	}
	var counted int64
	for _, k := range []fault.Kind{fault.TransferFail, fault.TransferCorrupt, fault.KernelStall, fault.EnqueueFail} {
		counted += tc.Metrics().Counter("fault." + k.String()).Value()
	}
	instants := 0
	for _, sp := range tc.Spans() {
		if sp.Cat == "fault" {
			instants++
		}
	}
	if counted != int64(len(res.Faults)) || instants != len(res.Faults) {
		t.Fatalf("fault counters sum to %d and %d instants, ledger holds %d", counted, instants, len(res.Faults))
	}
}

// TestRunBatchPublishesSimStats: the execution-tier counters reach the
// metrics registry: the copy lowering must fire on LeNet's 8 staging and
// flatten copies, the compiled-kernel cache must be warm across images, and
// in-bounds schedules must not guard-bail.
func TestRunBatchPublishesSimStats(t *testing.T) {
	layers := lenetLayers(t)
	p, err := BuildPipelined(layers, PipeTVMAutorun, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewCollector()
	if _, err := p.RunBatch(batchInputs(8), BatchOptions{Workers: 2, Trace: tc}); err != nil {
		t.Fatal(err)
	}
	m := tc.Metrics()
	if v := m.Counter("sim.exec.vector_loops").Value(); v == 0 || v%8 != 0 {
		t.Errorf("sim.exec.vector_loops = %d, want eight copies per compiled session", v)
	}
	if v := m.Counter("sim.exec.vector_runs").Value(); v != 8*8 {
		t.Errorf("sim.exec.vector_runs = %d, want 64 (eight copies per image)", v)
	}
	if v := m.Counter("sim.compile.cache_hits").Value(); v == 0 {
		t.Error("sim.compile.cache_hits: warm arenas must hit the kernel cache")
	}
	if v := m.Counter("sim.exec.guard_bailouts").Value(); v != 0 {
		t.Errorf("sim.exec.guard_bailouts = %d on in-bounds LeNet schedules", v)
	}
	// Both max pools compile onto the window executor (once per session
	// the workers open); each image runs each pool and each of the three
	// dense GEMVs, which the GEMM declines, there once.
	if v := m.Counter("sim.exec.window_loops").Value(); v == 0 || v%2 != 0 {
		t.Errorf("sim.exec.window_loops = %d, want two per compiled session", v)
	}
	if v := m.Counter("sim.exec.window_runs").Value(); v != 5*8 {
		t.Errorf("sim.exec.window_runs = %d, want 40 (two pools and three dense layers per image)", v)
	}
	snap := p.SimStats()
	if snap.VectorRuns == 0 || snap.CacheMisses == 0 {
		t.Fatalf("deployment snapshot empty: %+v", snap)
	}
}

// TestRunBatchGemmTierMatchesInterpOracle is the GEMM-lowering property test
// at deployment scope: the folded plan's parameterized convs lower whole onto
// cpuref.Gemm on the vector tier, and every output across worker counts and
// under fault injection must be bit-identical to the tree-walking interpreter
// oracle. Zero guard bailouts expected on in-bounds folded schedules.
func TestRunBatchGemmTierMatchesInterpOracle(t *testing.T) {
	const n = 12
	layers := lenetLayers(t)
	inputs := batchInputs(n)
	oracle, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	oracle.tier = sim.TierInterp
	want := make([]*tensor.Tensor, n)
	for i, in := range inputs {
		if want[i], err = oracle.Infer(in); err != nil {
			t.Fatalf("interp oracle image %d: %v", i, err)
		}
	}

	f, err := BuildFolded(layers, lenetFoldedConfig(), fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		res, err := f.RunBatch(inputs, BatchOptions{
			Workers: workers, FaultSeed: 7, FaultRate: 0.03})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range inputs {
			bitEqual(t, "gemm-tier batch vs interp oracle", res.Outputs[i], want[i])
		}
	}
	snap := f.SimStats()
	if snap.GemmLoops == 0 || snap.GemmRuns == 0 {
		t.Fatalf("folded convs did not take the GEMM lowering: %+v", snap)
	}
	if snap.GemmBailouts != 0 {
		t.Errorf("GemmBailouts = %d on in-bounds folded schedules", snap.GemmBailouts)
	}
}
