package host

// Batched, parallel inference: RunBatch streams N images through a bounded
// worker pool. Each worker owns (a) a warm functional session (session.go)
// that produces the actual outputs, and (b) its own simulated device context
// whose modeled time reflects double-buffered H2D/D2H transfer/compute overlap —
// the thesis's concurrent-queue optimization applied across images instead of
// across layers. Images are striped statically (image i → worker i mod K), so
// outputs, modeled time per worker, and the per-image fault ledgers are all
// deterministic for a given worker count, and the outputs are bit-identical
// to N sequential Infer calls for every worker count.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/clrt"
	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// BatchOptions configures a RunBatch call. The zero value is usable: all
// available CPUs, no cancellation, no tracing, no fault injection.
type BatchOptions struct {
	// Workers bounds the worker pool; <=0 selects GOMAXPROCS. Clamped to the
	// batch size.
	Workers int
	// Context cancels the batch between images; nil means Background.
	Context context.Context
	// Trace receives per-image spans, per-worker device timelines and batch
	// metrics (images/sec, overlap ratio). Nil disables tracing.
	Trace *trace.Collector
	// FaultSeed/FaultRate derive one deterministic injector per image
	// (seed+image index), so the ledger attributes every fault to the image
	// whose commands provoked it regardless of worker count. Rate 0 disables
	// injection.
	FaultSeed int64
	FaultRate float64
	// NoDoubleBuffer uses depth-1 buffer rings (the serial-transfer ablation).
	NoDoubleBuffer bool
}

// BatchFault is one injected fault attributed to the image whose commands
// provoked it.
type BatchFault struct {
	Image  int
	Record fault.Record
}

// BatchResult is the outcome of a RunBatch call.
type BatchResult struct {
	// Outputs[i] is the network output for inputs[i], bit-identical to a
	// sequential Infer(inputs[i]).
	Outputs []*tensor.Tensor
	Images  int
	Workers int
	// ModeledUS is the simulated wall time of the batch: the max over workers
	// of their device-context elapsed time (setup transfers excluded).
	ModeledUS    float64
	ImagesPerSec float64
	// Overlap aggregates transfer/compute overlap across workers; Ratio near
	// 0 means transfers serialized with kernels, higher means hidden.
	Overlap clrt.Overlap
	// Faults lists injected faults in image order; Retries counts device
	// commands re-enqueued after transient faults.
	Faults  []BatchFault
	Retries int
}

// RunBatch classifies a batch of images on a pipelined deployment. See
// BatchOptions/BatchResult; outputs are bit-identical to sequential Infer.
// Transient injected faults are retried per command (see retrier). When the
// batch fails anyway, the error comes with a partial result: Outputs nil,
// but Faults (the failing image's records included) and Retries hold what
// every attempted image absorbed, so callers that degrade keep the ledger.
func (p *Pipelined) RunBatch(inputs []*tensor.Tensor, opt BatchOptions) (*BatchResult, error) {
	return runBatch(p, inputs, opt)
}

// RunBatch classifies a batch of images on a folded deployment; see
// Pipelined.RunBatch.
func (f *Folded) RunBatch(inputs []*tensor.Tensor, opt BatchOptions) (*BatchResult, error) {
	return runBatch(f, inputs, opt)
}

// wstat is one worker's contribution to the batch result.
type wstat struct {
	elapsed float64
	overlap clrt.Overlap
	retries int
	spans   []trace.Span
	events  []*clrt.Event
	err     error
}

func runBatch(sh shape, inputs []*tensor.Tensor, opt BatchOptions) (*BatchResult, error) {
	n := len(inputs)
	res := &BatchResult{Images: n}
	if n == 0 {
		return res, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	res.Workers = workers
	cctx := opt.Context
	if cctx == nil {
		cctx = context.Background()
	}

	outputs := make([]*tensor.Tensor, n)
	injs := make([]*fault.Injector, n)
	stats := make([]wstat, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w] = runBatchWorker(sh, w, workers, inputs, outputs, injs, opt, cctx)
		}(w)
	}
	wg.Wait()
	// The ledger is complete whether or not the batch succeeded: every image
	// a worker reached has its injector, holding what its commands provoked.
	for img, inj := range injs {
		for _, r := range inj.Records() {
			res.Faults = append(res.Faults, BatchFault{Image: img, Record: r})
		}
	}
	for _, st := range stats {
		res.Retries += st.retries
	}
	for w := range stats {
		if stats[w].err != nil {
			return res, fmt.Errorf("host: batch worker %d: %w", w, stats[w].err)
		}
	}

	res.Outputs = outputs
	for w, st := range stats {
		if st.elapsed > res.ModeledUS {
			res.ModeledUS = st.elapsed
		}
		res.Overlap.TransferUS += st.overlap.TransferUS
		res.Overlap.KernelUS += st.overlap.KernelUS
		res.Overlap.HiddenUS += st.overlap.HiddenUS
		if tc := opt.Trace; tc != nil {
			tc.AddEventsAs(fmt.Sprintf("device w%d", w), st.events, st.elapsed)
			for _, sp := range st.spans {
				tc.Add(sp)
			}
		}
	}
	if res.Overlap.TransferUS > 0 {
		res.Overlap.Ratio = res.Overlap.HiddenUS / res.Overlap.TransferUS
	}
	if res.ModeledUS > 0 {
		res.ImagesPerSec = float64(n) / res.ModeledUS * 1e6
	}
	if tc := opt.Trace; tc != nil {
		for _, inj := range injs {
			tc.AddFaults(inj.Records())
		}
		tc.Metrics().Counter("host.batch.images").Add(int64(n))
		tc.Metrics().Gauge("host.batch.workers").Set(float64(workers))
		tc.Metrics().Gauge("host.batch.images_per_sec").Set(res.ImagesPerSec)
		tc.Metrics().Gauge("host.batch.overlap_ratio").Set(res.Overlap.Ratio)
		publishSimStats(tc.Metrics(), sh.state().SimStats())
	}
	return res, nil
}

// runBatchWorker drives the images striped to one worker: functional results
// through a warm session, modeled time on the worker's own device through a
// software-pipelined enqueue loop (write i → kernels i → read i-1) over
// depth-2 buffer rings, bounded retry on transient injected faults, and a
// per-image injector stored in injs[i], whose ledger runBatch reads once the
// workers are done. Host-side transfers run on dedicated write/read
// queues so ring-buffer hazards — not queue order — decide what serializes.
func runBatchWorker(sh shape, w, workers int, inputs, outputs []*tensor.Tensor, injs []*fault.Injector,
	opt BatchOptions, cctx context.Context) (st wstat) {

	depth := 2
	if opt.NoDoubleBuffer {
		depth = 1
	}
	cache := &sh.state().sessions
	sess, err := cache.checkout(sh)
	if err != nil {
		st.err = err
		return st
	}
	defer cache.checkin(sess)
	ctx, err := clrt.NewContext(sh.design()) // refuses an unsynthesizable design
	if err != nil {
		st.err = err
		return st
	}
	r := &retrier{ctx: ctx, retries: &st.retries}
	// Parameters upload outside the measured window, with no injector armed.
	prog, err := sh.program(ctx, true, r.try)
	if err != nil {
		st.err = err
		return st
	}
	setupEvents := len(ctx.Events())
	writeQ, readQ := ctx.NewQueue(), ctx.NewQueue()
	start := ctx.ElapsedUS()
	inRing := ctx.NewBufferRing("batch_in", prog.inBytes, depth)
	outRing := ctx.NewBufferRing("batch_out", prog.outBytes, depth)

	// pending is an image whose D2H read is deferred one iteration so it can
	// overlap the next image's kernels (the software pipeline's drain stage).
	type pending struct {
		img   int
		buf   *clrt.Buffer
		inj   *fault.Injector
		write *clrt.Event
	}
	flush := func(p *pending) error {
		ctx.Injector = p.inj
		rev, err := r.try(func() (*clrt.Event, error) { return readQ.EnqueueRead(p.buf, prog.outBytes) })
		if err != nil {
			return fmt.Errorf("image %d output read: %w", p.img, err)
		}
		if opt.Trace != nil && p.write != nil && rev != nil {
			st.spans = append(st.spans, trace.Span{
				Proc:    "host",
				Track:   fmt.Sprintf("batch w%d", w),
				Name:    fmt.Sprintf("image %d", p.img),
				Cat:     "image",
				StartUS: p.write.StartUS,
				DurUS:   rev.EndUS - p.write.StartUS,
				Args:    map[string]string{"worker": fmt.Sprintf("%d", w)},
			})
		}
		return nil
	}

	var prev *pending
	for img := w; img < len(inputs); img += workers {
		select {
		case <-cctx.Done():
			st.err = cctx.Err()
			return st
		default:
		}
		out, err := sess.run(inputs[img], nil)
		if err != nil {
			st.err = fmt.Errorf("image %d: %w", img, err)
			return st
		}
		outputs[img] = out

		var inj *fault.Injector
		if opt.FaultRate > 0 {
			inj = fault.NewInjector(opt.FaultSeed+int64(img)+1, opt.FaultRate)
			injs[img] = inj
		}
		ctx.Injector = inj
		devIn, devOut := inRing.Next(), outRing.Next()
		wev, err := r.try(func() (*clrt.Event, error) { return writeQ.EnqueueWrite(devIn, prog.inBytes) })
		if err != nil {
			st.err = fmt.Errorf("image %d input write: %w", img, err)
			return st
		}
		if err := prog.enqueueImage(devIn, devOut); err != nil {
			st.err = fmt.Errorf("image %d: %w", img, err)
			return st
		}
		cur := &pending{img: img, buf: devOut, inj: inj, write: wev}
		if prev != nil {
			if err := flush(prev); err != nil {
				st.err = err
				return st
			}
		}
		prev = cur
	}
	if prev != nil {
		if err := flush(prev); err != nil {
			st.err = err
			return st
		}
	}
	ctx.Finish()
	st.elapsed = ctx.ElapsedUS() - start
	st.overlap = ctx.OverlapSince(start)
	st.events = ctx.Events()[setupEvents:]
	return st
}
