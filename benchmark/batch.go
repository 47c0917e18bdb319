package main

// The two offline workloads: RunBatch on a folded deployment at Workers 2.
// Kernel-bound, so serve and HTTP do nothing here and a serve-only change
// must not move them. MobileNetV1 feeds the GEMM tier through the pointwise
// zero-copy path and runs depthwise on non-GEMM kernels; ResNet-18 feeds it
// through 3x3 im2col with the bias/residual/ReLU epilogue and pad kernels.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	// batchImages is 2, not the 8 the issue sketched: one image costs 1.3-1.6 s
	// of one core here, and a run has to fit set-up, oracle and several
	// repetitions into about 20 s. Two images still keep both workers busy.
	batchImages  = 2
	batchWorkers = 2
	batchMinReps = 3
)

type batchEnv struct {
	net    string
	dep    serve.Deployment
	layers []*relay.Layer
	inputs []*tensor.Tensor
	// seq[i] is the deployment's own sequential Infer(inputs[i]); want[i] is
	// relay.Execute's argmax. Filled by oracle().
	seq  []*tensor.Tensor
	want []int

	pending []batchRep // measured repetitions awaiting the oracle

	warmS         float64 // wall time of the warm-up RunBatch, sizes the repetitions
	refMSPerImage float64
	inferUS       float64
}

// setupBatch builds the deployment, generates the inputs and runs one
// warm-up RunBatch so both workers' arenas and compiled kernels exist.
func setupBatch(rc *runCtx, net string) (*batchEnv, error) {
	e := &batchEnv{net: net}
	var err error
	if e.dep, e.layers, err = serve.BuildDeployment(net, fpga.S10SX); err != nil {
		return nil, err
	}
	for i := 0; i < batchImages; i++ {
		e.inputs = append(e.inputs, nn.RandomImage(uint64(rc.seed)*1000+uint64(i)+1, e.layers[0].InShape...))
	}
	t0 := time.Now()
	if _, err := e.dep.RunBatch(e.inputs, host.BatchOptions{Workers: batchWorkers}); err != nil {
		return nil, err
	}
	e.warmS = time.Since(t0).Seconds()
	return e, nil
}

type batchRep struct {
	w   window
	res *host.BatchResult
}

func (e *batchEnv) close() error { return nil }

// oracle runs the two references side by side (one core each): the
// deployment's sequential Infer, which RunBatch must match bit for bit, and
// relay.Execute, whose argmax it must match.
func (e *batchEnv) oracle(rc *runCtx) error {
	e.seq = make([]*tensor.Tensor, len(e.inputs))
	e.want = make([]int, len(e.inputs))
	var (
		wg         sync.WaitGroup
		errA, errB error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for i, in := range e.inputs {
			s := time.Now()
			if e.seq[i], errA = e.dep.Infer(in); errA != nil {
				return
			}
			rc.rec.add("infer", 0, 0, 1, s, time.Now())
		}
		e.inferUS = time.Since(t0).Seconds() * 1e6 / float64(len(e.inputs))
	}()
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for i, in := range e.inputs {
			out, err := relay.Execute(e.layers, in)
			if err != nil {
				errB = err
				return
			}
			e.want[i] = out.ArgMax()
		}
		e.refMSPerImage = time.Since(t0).Seconds() * 1e3 / float64(len(e.inputs))
	}()
	wg.Wait()
	if errA != nil {
		return errA
	}
	return errB
}

// check counts the outputs that differ from the oracle.
func (e *batchEnv) check(res *host.BatchResult) (failed int) {
	for i, out := range res.Outputs {
		if !bitIdentical(out, e.seq[i]) || out.ArgMax() != e.want[i] {
			failed++
		}
	}
	return failed
}

func bitIdentical(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// repsFor sizes the equal repetitions to the measuring time from the
// warm-up's duration.
func (e *batchEnv) repsFor(seconds float64) int {
	return max(batchMinReps, int(seconds/e.warmS))
}

func (e *batchEnv) runOnce(rc *runCtx, parent int) (*host.BatchResult, float64, error) {
	t0 := time.Now()
	res, err := e.dep.RunBatch(e.inputs, host.BatchOptions{Workers: batchWorkers})
	t1 := time.Now()
	rc.rec.add("runbatch", parent, 0, 0, t0, t1)
	return res, t1.Sub(t0).Seconds(), err
}

func (e *batchEnv) measure(rc *runCtx) error {
	n := e.repsFor(rc.seconds)
	if rc.reps > 0 {
		n = rc.reps
	}
	for i := 0; i < n; i++ {
		u := snapshot()
		res, wallS, err := e.runOnce(rc, 0)
		if err != nil {
			return fmt.Errorf("%s RunBatch: %w", e.net, err)
		}
		w := since(u)
		w.wallS = wallS
		e.pending = append(e.pending, batchRep{w, res})
	}
	return nil
}

func (e *batchEnv) score(rc *runCtx) {
	for _, p := range e.pending {
		failed := e.check(p.res)
		rc.addRep(p.w, len(e.inputs)-failed, len(e.inputs), failed, []float64{p.w.wallS * 1e3})
	}
	e.pending = nil
}

// traced records a runbatch span around RunBatch (the per-image infer spans
// were recorded by the oracle's sequential Infer calls), then the host, clrt,
// sim and cpuref layer figures for this deployment.
func (e *batchEnv) traced(rc *runCtx) error {
	res, wallS, err := e.runOnce(rc, 0)
	if err != nil {
		return err
	}
	failed := e.check(res)
	rc.attempted, rc.failed = rc.attempted+len(e.inputs), rc.failed+failed
	rc.tracedOpsPerS = float64(len(e.inputs)-failed) / wallS
	rc.layer["cpuref.reference_ms_per_image"] = e.refMSPerImage
	return hostLayer(rc, e.net, e.dep, e.inputs, e.inferUS, wallS*1e6/float64(len(e.inputs)))
}
