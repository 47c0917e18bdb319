package clrt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/aoc"
	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/ir"
)

// simpleKernel: out[i] = in[i]*2 over n elements.
func simpleKernel(name string, n int) (*ir.Kernel, *ir.Buffer, *ir.Buffer) {
	in := ir.NewBuffer(name+"_in", ir.Global, n)
	out := ir.NewBuffer(name+"_out", ir.Global, n)
	i := ir.V("i")
	k := &ir.Kernel{Name: name, Args: []*ir.Buffer{in, out},
		Body: ir.Loop(i, n, &ir.Store{Buf: out, Index: []ir.Expr{i},
			Value: ir.MulE(&ir.Load{Buf: in, Index: []ir.Expr{i}}, ir.CFloat(2))})}
	return k, in, out
}

// chainKernels builds producer -> (autorun mid) -> consumer via channels.
func chainKernels(n int) []*ir.Kernel {
	c0 := &ir.Channel{Name: "c0", Depth: n}
	c1 := &ir.Channel{Name: "c1", Depth: n}
	a := ir.NewBuffer("a", ir.Global, n)
	d := ir.NewBuffer("d", ir.Global, n)
	i, j, l := ir.V("i"), ir.V("j"), ir.V("l")
	prod := &ir.Kernel{Name: "prod", Args: []*ir.Buffer{a},
		Body: ir.Loop(i, n, &ir.ChannelWrite{Ch: c0, Value: ir.AddE(&ir.Load{Buf: a, Index: []ir.Expr{i}}, ir.CFloat(1))})}
	mid := &ir.Kernel{Name: "mid", Autorun: true,
		Body: ir.Loop(j, n, &ir.ChannelWrite{Ch: c1, Value: ir.MulE(&ir.ChannelRead{Ch: c0}, ir.CFloat(0.5))})}
	cons := &ir.Kernel{Name: "cons", Args: []*ir.Buffer{d},
		Body: ir.Loop(l, n, &ir.Store{Buf: d, Index: []ir.Expr{l}, Value: &ir.ChannelRead{Ch: c1}})}
	return []*ir.Kernel{prod, mid, cons}
}

func mustDesign(t testing.TB, name string, ks []*ir.Kernel) *aoc.Design {
	t.Helper()
	d, err := aoc.Compile(name, ks, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Synthesizable() {
		t.Fatalf("design does not synthesize: %v", d.Err())
	}
	return d
}

func TestContextRejectsUnsynthesizableDesign(t *testing.T) {
	var ks []*ir.Kernel
	for i := 0; i < 60; i++ {
		k, _, _ := simpleKernel("k"+string(rune('a'+i%26))+string(rune('a'+i/26)), 1024)
		ks = append(ks, k)
	}
	d, err := aoc.Compile("big", ks, fpga.A10, aoc.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if d.Synthesizable() {
		t.Skip("design unexpectedly fits; adjust test size")
	}
	if _, err := NewContext(d); err == nil {
		t.Fatal("NewContext must reject unsynthesizable designs")
	}
}

func TestWriteKernelReadTimeline(t *testing.T) {
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "d", []*ir.Kernel{k})
	ctx, err := NewContext(d)
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue()
	in := ctx.NewBuffer("in", 4096*4)
	out := ctx.NewBuffer("out", 4096*4)
	w, err := q.EnqueueWrite(in, 4096*4)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueKernel(KernelCall{Name: "k1", Reads: []*Buffer{in}, Writes: []*Buffer{out}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := q.EnqueueRead(out, 4096*4)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Finish()

	if w.StartUS >= w.EndUS || ev.StartUS >= ev.EndUS || r.StartUS >= r.EndUS {
		t.Fatal("events must have positive duration")
	}
	if ev.StartUS < w.EndUS {
		t.Fatal("in-order queue: kernel must wait for the write")
	}
	if r.StartUS < ev.EndUS {
		t.Fatal("read must wait for the kernel (buffer hazard)")
	}
	if ctx.ElapsedUS() < r.EndUS {
		t.Fatal("Finish must advance host time past the last event")
	}
	bd := ctx.Breakdown()
	if bd["write"] <= 0 || bd["kernel"] <= 0 || bd["read"] <= 0 {
		t.Fatalf("breakdown incomplete: %v", bd)
	}
}

func TestUnknownKernelRejected(t *testing.T) {
	k, _, _ := simpleKernel("k1", 64)
	d := mustDesign(t, "d", []*ir.Kernel{k})
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	if _, err := q.EnqueueKernel(KernelCall{Name: "ghost"}); err == nil ||
		!strings.Contains(err.Error(), "not in design") {
		t.Fatalf("want unknown-kernel error, got %v", err)
	}
}

func TestAutorunCannotBeEnqueued(t *testing.T) {
	d := mustDesign(t, "chain", chainKernels(256))
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	if _, err := q.EnqueueKernel(KernelCall{Name: "mid"}); err == nil ||
		!strings.Contains(err.Error(), "autorun") {
		t.Fatalf("want autorun error, got %v", err)
	}
}

func TestChannelPipelineOverlapsWithConcurrentQueues(t *testing.T) {
	run := func(concurrent bool) float64 {
		d := mustDesign(t, "chain", chainKernels(4096))
		ctx, _ := NewContext(d)
		var qp, qc *Queue
		qp = ctx.NewQueue()
		if concurrent {
			qc = ctx.NewQueue()
		} else {
			qc = qp
		}
		a := ctx.NewBuffer("a", 4096*4)
		dd := ctx.NewBuffer("d", 4096*4)
		if _, err := qp.EnqueueWrite(a, 4096*4); err != nil {
			t.Fatal(err)
		}
		if _, err := qp.EnqueueKernel(KernelCall{Name: "prod", Reads: []*Buffer{a}}); err != nil {
			t.Fatal(err)
		}
		if _, err := qc.EnqueueKernel(KernelCall{Name: "cons", Writes: []*Buffer{dd}}); err != nil {
			t.Fatal(err)
		}
		if _, err := qc.EnqueueRead(dd, 4096*4); err != nil {
			t.Fatal(err)
		}
		ctx.Finish()
		return ctx.ElapsedUS()
	}
	serial := run(false)
	conc := run(true)
	if conc >= serial {
		t.Fatalf("concurrent queues must beat a single queue for channelized kernels: %v vs %v us", conc, serial)
	}
}

func TestPipelinedThroughputAcrossImages(t *testing.T) {
	// Enqueuing many images through a channel pipeline with concurrent
	// queues must approach 1/max-stage throughput: total time much less than
	// N * single-image latency.
	d := mustDesign(t, "chain", chainKernels(4096))

	single := func() float64 {
		ctx, _ := NewContext(d)
		q1, q2 := ctx.NewQueue(), ctx.NewQueue()
		a := ctx.NewBuffer("a", 4096*4)
		dd := ctx.NewBuffer("d", 4096*4)
		q1.EnqueueWrite(a, 4096*4) //nolint:errcheck
		q1.EnqueueKernel(KernelCall{Name: "prod", Reads: []*Buffer{a}})
		q2.EnqueueKernel(KernelCall{Name: "cons", Writes: []*Buffer{dd}})
		ctx.Finish()
		return ctx.ElapsedUS()
	}()

	const n = 16
	ctx, _ := NewContext(d)
	q1, q2 := ctx.NewQueue(), ctx.NewQueue()
	a := ctx.NewBuffer("a", 4096*4)
	dd := ctx.NewBuffer("d", 4096*4)
	for i := 0; i < n; i++ {
		q1.EnqueueWrite(a, 4096*4) //nolint:errcheck
		q1.EnqueueKernel(KernelCall{Name: "prod", Reads: []*Buffer{a}})
		q2.EnqueueKernel(KernelCall{Name: "cons", Writes: []*Buffer{dd}})
	}
	ctx.Finish()
	total := ctx.ElapsedUS()
	if total >= float64(n)*single*0.95 {
		t.Fatalf("pipelining across images shows no overlap: %v vs %v per image", total, single)
	}
}

func TestProfilingSerializesAndAddsOverhead(t *testing.T) {
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "d", []*ir.Kernel{k})

	run := func(prof bool) float64 {
		ctx, _ := NewContext(d)
		ctx.Profiling = prof
		q := ctx.NewQueue()
		in := ctx.NewBuffer("in", 4096*4)
		out := ctx.NewBuffer("out", 4096*4)
		for i := 0; i < 4; i++ {
			q.EnqueueWrite(in, 4096*4) //nolint:errcheck
			q.EnqueueKernel(KernelCall{Name: "k1", Reads: []*Buffer{in}, Writes: []*Buffer{out}})
			q.EnqueueRead(out, 4096*4) //nolint:errcheck
		}
		ctx.Finish()
		return ctx.ElapsedUS()
	}
	if run(true) <= run(false) {
		t.Fatal("profiling must slow execution down")
	}
}

func TestAutorunChainExtendsPipeline(t *testing.T) {
	d := mustDesign(t, "chain", chainKernels(4096))
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	a := ctx.NewBuffer("a", 4096*4)
	ev, err := q.EnqueueKernel(KernelCall{Name: "prod", Reads: []*Buffer{a}})
	if err != nil {
		t.Fatal(err)
	}
	// mid (autorun) runs without being enqueued; its output channel must be
	// marked ready so a later consumer can proceed.
	if _, err := q.EnqueueKernel(KernelCall{Name: "cons"}); err != nil {
		t.Fatal(err)
	}
	ctx.Finish()
	if ctx.ElapsedUS() <= ev.EndUS {
		t.Fatal("downstream work must extend the timeline")
	}
	// Only two kernel events recorded: autorun never appears as a command.
	kernels := 0
	for _, e := range ctx.Events() {
		if e.Kind == "kernel" {
			kernels++
		}
	}
	if kernels != 2 {
		t.Fatalf("expected 2 kernel commands, got %d", kernels)
	}
}

func TestBreakdownByName(t *testing.T) {
	k1, _, _ := simpleKernel("alpha", 1024)
	k2, _, _ := simpleKernel("beta", 2048)
	d := mustDesign(t, "two", []*ir.Kernel{k1, k2})
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	q.EnqueueKernel(KernelCall{Name: "alpha"})
	q.EnqueueKernel(KernelCall{Name: "beta"})
	q.EnqueueKernel(KernelCall{Name: "beta"})
	ctx.Finish()
	bn := ctx.BreakdownByName()
	if bn["alpha"] <= 0 || bn["beta"] <= bn["alpha"] {
		t.Fatalf("per-kernel breakdown wrong: %v", bn)
	}
	kinds := SortedKinds(bn)
	if len(kinds) != 2 || kinds[0] != "alpha" {
		t.Fatalf("SortedKinds = %v", kinds)
	}
}

func TestSameKernelSerializesOnComputeUnit(t *testing.T) {
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "d", []*ir.Kernel{k})
	ctx, _ := NewContext(d)
	// Two queues, same kernel: executions must not overlap (one compute unit).
	q1, q2 := ctx.NewQueue(), ctx.NewQueue()
	e1, _ := q1.EnqueueKernel(KernelCall{Name: "k1"})
	e2, _ := q2.EnqueueKernel(KernelCall{Name: "k1"})
	if e2.StartUS < e1.EndUS {
		t.Fatalf("compute unit double-booked: [%v,%v] vs [%v,%v]", e1.StartUS, e1.EndUS, e2.StartUS, e2.EndUS)
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	k1, _, _ := simpleKernel("alpha", 2048)
	k2, _, _ := simpleKernel("beta", 2048)
	d := mustDesign(t, "tl", []*ir.Kernel{k1, k2})
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	in := ctx.NewBuffer("in", 8192)
	q.EnqueueWrite(in, 8192) //nolint:errcheck
	q.EnqueueKernel(KernelCall{Name: "alpha", Reads: []*Buffer{in}})
	q.EnqueueKernel(KernelCall{Name: "beta"})
	q.EnqueueRead(in, 8192) //nolint:errcheck
	ctx.Finish()
	tl := ctx.TimelineSince(40, 0)
	for _, want := range []string{"kernel alpha", "kernel beta", "write in", "read in", "#", "W", "R"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	// Serial queue: beta's bar must start at or after alpha's ends. Check by
	// lane content: the first '#' column of beta >= last '#' column of alpha.
	lines := strings.Split(tl, "\n")
	lane := func(name string) string {
		for _, l := range lines {
			if strings.Contains(l, name) {
				return l[strings.Index(l, "|"):]
			}
		}
		return ""
	}
	a, b := lane("kernel alpha"), lane("kernel beta")
	if strings.LastIndex(a, "#") > strings.Index(b, "#") {
		t.Fatalf("serial kernels overlap in timeline:\n%s", tl)
	}
}

func TestTimelineSinceFilters(t *testing.T) {
	k1, _, _ := simpleKernel("alpha", 2048)
	d := mustDesign(t, "tl2", []*ir.Kernel{k1})
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	setup := ctx.NewBuffer("weights", 4096)
	q.EnqueueWrite(setup, 4096) //nolint:errcheck
	ctx.Finish()
	cut := ctx.ElapsedUS()
	q.EnqueueKernel(KernelCall{Name: "alpha"})
	ctx.Finish()
	tl := ctx.TimelineSince(40, cut)
	if strings.Contains(tl, "weights") {
		t.Fatalf("TimelineSince must exclude setup events:\n%s", tl)
	}
	if !strings.Contains(tl, "kernel alpha") {
		t.Fatalf("TimelineSince lost the measured event:\n%s", tl)
	}
	if ctx.TimelineSince(40, 0) == tl {
		t.Fatal("full timeline should differ from the filtered one")
	}
}

func TestTimelineEmpty(t *testing.T) {
	k1, _, _ := simpleKernel("alpha", 64)
	d := mustDesign(t, "tl3", []*ir.Kernel{k1})
	ctx, _ := NewContext(d)
	if tl := ctx.TimelineSince(40, 0); !strings.Contains(tl, "no events") {
		t.Fatalf("empty timeline should say so: %q", tl)
	}
}

// TestWaitListOrdersAcrossQueues: independent kernels on two in-order
// queues overlap; a wait list on the second kernel serializes it behind the
// first.
func TestWaitListOrdersAcrossQueues(t *testing.T) {
	k1, _, _ := simpleKernel("alpha", 4096)
	k2, _, _ := simpleKernel("beta", 4096)
	d := mustDesign(t, "wait", []*ir.Kernel{k1, k2})
	run := func(wait bool) (e1, e2 *Event) {
		ctx, _ := NewContext(d)
		q1, q2 := ctx.NewQueue(), ctx.NewQueue()
		e1, err := q1.EnqueueKernel(KernelCall{Name: "alpha"})
		if err != nil {
			t.Fatal(err)
		}
		call := KernelCall{Name: "beta"}
		if wait {
			call.Wait = []*Event{e1}
		}
		e2, err = q2.EnqueueKernel(call)
		if err != nil {
			t.Fatal(err)
		}
		return e1, e2
	}
	if e1, e2 := run(false); e2.StartUS >= e1.EndUS {
		t.Fatalf("independent kernels on two queues must overlap: beta starts %v, alpha ends %v", e2.StartUS, e1.EndUS)
	}
	if e1, e2 := run(true); e2.StartUS < e1.EndUS {
		t.Fatalf("wait list violated: beta starts %v before alpha ends %v", e2.StartUS, e1.EndUS)
	}
}

func TestInjectedTransferFaultsSurfaceAsErrors(t *testing.T) {
	k, _, _ := simpleKernel("k1", 1024)
	d := mustDesign(t, "d", []*ir.Kernel{k})
	ctx, _ := NewContext(d)
	ctx.Injector = fault.NewInjector(7, 1.0) // every probe fires
	q := ctx.NewQueue()
	in := ctx.NewBuffer("in", 1024*4)

	sawHard, sawCorrupt := false, false
	for i := 0; i < 16 && !(sawHard && sawCorrupt); i++ {
		ev, err := q.EnqueueWrite(in, 1024*4)
		if err == nil {
			t.Fatal("rate-1 injector must fail every transfer")
		}
		var fe *fault.Error
		if !errors.As(err, &fe) || !fe.Transient {
			t.Fatalf("want transient *fault.Error, got %v", err)
		}
		switch fe.Kind {
		case fault.TransferFail:
			sawHard = true
			if ev != nil {
				t.Fatal("hard transfer failure must not record an event")
			}
		case fault.TransferCorrupt:
			sawCorrupt = true
			if ev == nil || !ev.Corrupt {
				t.Fatalf("corrupt transfer must record a Corrupt event, got %+v", ev)
			}
		default:
			t.Fatalf("unexpected fault kind %v", fe.Kind)
		}
	}
	if !sawHard || !sawCorrupt {
		t.Fatalf("expected both failure modes within 16 draws (hard=%v corrupt=%v)", sawHard, sawCorrupt)
	}
	if len(ctx.Injector.Records()) == 0 {
		t.Fatal("injector ledger must record fired faults")
	}
}

// An injected stall reports no error; it marks the kernel and stretches its
// modeled duration past the fault-free baseline.
func TestInjectedStallLengthensKernel(t *testing.T) {
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "d", []*ir.Kernel{k})

	base := func() float64 {
		ctx, _ := NewContext(d)
		q := ctx.NewQueue()
		ev, err := q.EnqueueKernel(KernelCall{Name: "k1"})
		if err != nil {
			t.Fatal(err)
		}
		return ev.duration()
	}()

	ctx, _ := NewContext(d)
	// Rate below 1 so the enqueue probe (checked first) lets some kernels
	// through to the stall probe.
	inj := fault.NewInjector(3, 0.5)
	ctx.Injector = inj
	q := ctx.NewQueue()
	var stalled *Event
	for i := 0; i < 200; i++ {
		ev, err := q.EnqueueKernel(KernelCall{Name: "k1"})
		if err != nil {
			continue // transient enqueue fault; retry
		}
		if ev.Stalled {
			stalled = ev
			break
		}
	}
	if stalled == nil {
		t.Fatal("injector never stalled a kernel in 200 attempts at rate 0.5")
	}
	if stalled.duration() <= base {
		t.Fatalf("stalled kernel (%v us) must exceed baseline (%v us)", stalled.duration(), base)
	}
}

func TestAdvanceHostMovesCursor(t *testing.T) {
	k, _, _ := simpleKernel("k1", 64)
	d := mustDesign(t, "d", []*ir.Kernel{k})
	ctx, _ := NewContext(d)
	before := ctx.ElapsedUS()
	ctx.AdvanceHost(125)
	if got := ctx.ElapsedUS(); got < before+125 {
		t.Fatalf("AdvanceHost must move host time: %v -> %v", before, got)
	}
}

func TestEventInvariants(t *testing.T) {
	// Properties every recorded event stream must satisfy: monotone
	// queue/start/end times per event, no overlap among same-queue commands
	// on an in-order queue, and Breakdown equal to the summed durations.
	k1, _, _ := simpleKernel("alpha", 2048)
	k2, _, _ := simpleKernel("beta", 1024)
	d := mustDesign(t, "inv", []*ir.Kernel{k1, k2})
	ctx, _ := NewContext(d)
	q := ctx.NewQueue()
	in := ctx.NewBuffer("in", 8192)
	for i := 0; i < 5; i++ {
		q.EnqueueWrite(in, 8192) //nolint:errcheck
		q.EnqueueKernel(KernelCall{Name: "alpha", Reads: []*Buffer{in}})
		q.EnqueueKernel(KernelCall{Name: "beta"})
		q.EnqueueRead(in, 8192) //nolint:errcheck
	}
	ctx.Finish()
	events := ctx.Events()
	var prevEnd float64
	sums := map[string]float64{}
	for _, e := range events {
		if e.QueuedUS > e.StartUS || e.StartUS >= e.EndUS {
			t.Fatalf("event time disorder: %+v", e)
		}
		if e.StartUS < prevEnd {
			t.Fatalf("in-order queue overlap: %s starts %v before %v", e.Name, e.StartUS, prevEnd)
		}
		prevEnd = e.EndUS
		sums[e.Kind] += e.duration()
	}
	bd := ctx.Breakdown()
	for k, v := range sums {
		if diff := bd[k] - v; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("breakdown[%s] = %v, summed %v", k, bd[k], v)
		}
	}
}
