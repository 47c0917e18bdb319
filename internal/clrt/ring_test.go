package clrt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/ir"
)

// runSerial models the seed host loop: one buffer pair, one in-order queue,
// write/kernel/read strictly per image.
func runSerial(t *testing.T, images int) *Context {
	t.Helper()
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "serial", []*ir.Kernel{k})
	ctx, err := NewContext(d)
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue()
	in := ctx.NewBuffer("in", 4096*4)
	out := ctx.NewBuffer("out", 4096*4)
	for i := 0; i < images; i++ {
		if _, err := q.EnqueueWrite(in, in.Bytes); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueKernel(KernelCall{Name: "k1", Reads: []*Buffer{in}, Writes: []*Buffer{out}}); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueRead(out, out.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Finish()
	return ctx
}

// runDoubleBuffered models the batched host loop: depth-2 rings, transfers
// and kernels on separate queues, software-pipelined so image i+1's H2D and
// image i-1's D2H run while image i computes.
func runDoubleBuffered(t testing.TB, images, depth int) *Context {
	t.Helper()
	k, _, _ := simpleKernel("k1", 4096)
	d := mustDesign(t, "db", []*ir.Kernel{k})
	ctx, err := NewContext(d)
	if err != nil {
		t.Fatal(err)
	}
	wq, kq, rq := ctx.NewQueue(), ctx.NewQueue(), ctx.NewQueue()
	inRing := ctx.NewBufferRing("in", 4096*4, depth)
	outRing := ctx.NewBufferRing("out", 4096*4, depth)
	ins := make([]*Buffer, images)
	outs := make([]*Buffer, images)
	for i := 0; i < images; i++ {
		ins[i], outs[i] = inRing.Next(), outRing.Next()
		if _, err := wq.EnqueueWrite(ins[i], ins[i].Bytes); err != nil {
			t.Fatal(err)
		}
		if _, err := kq.EnqueueKernel(KernelCall{Name: "k1", Reads: []*Buffer{ins[i]}, Writes: []*Buffer{outs[i]}}); err != nil {
			t.Fatal(err)
		}
		if i >= 1 {
			if _, err := rq.EnqueueRead(outs[i-1], outs[i-1].Bytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rq.EnqueueRead(outs[images-1], outs[images-1].Bytes); err != nil {
		t.Fatal(err)
	}
	ctx.Finish()
	return ctx
}

func TestBufferRingRotation(t *testing.T) {
	k, _, _ := simpleKernel("k1", 16)
	d := mustDesign(t, "ring", []*ir.Kernel{k})
	ctx, err := NewContext(d)
	if err != nil {
		t.Fatal(err)
	}
	r := ctx.NewBufferRing("act", 64, 2)
	if len(r.bufs) != 2 {
		t.Fatalf("depth = %d", len(r.bufs))
	}
	a, b, c, d2 := r.Next(), r.Next(), r.Next(), r.Next()
	if a == b || a != c || b != d2 {
		t.Fatal("ring must alternate between exactly two buffers")
	}
	if r0 := ctx.NewBufferRing("one", 64, 0); len(r0.bufs) != 1 {
		t.Fatalf("depth must clamp to 1, got %d", len(r0.bufs))
	}
}

// TestDoubleBufferingOverlapsTransfers is the core modeled-overlap assertion:
// the pipelined ring schedule must finish faster than the serial loop and hide
// a meaningful share of transfer time behind kernel execution.
func TestDoubleBufferingOverlapsTransfers(t *testing.T) {
	const images = 16
	serial := runSerial(t, images)
	db := runDoubleBuffered(t, images, 2)

	so, do := serial.OverlapSince(0), db.OverlapSince(0)
	if db.ElapsedUS() >= serial.ElapsedUS() {
		t.Fatalf("double buffering did not help: %v >= %v us", db.ElapsedUS(), serial.ElapsedUS())
	}
	if do.Ratio <= so.Ratio {
		t.Fatalf("overlap ratio did not improve: %v <= %v", do.Ratio, so.Ratio)
	}
	if do.Ratio < 0.1 {
		t.Fatalf("steady-state overlap too low: %v", do.Ratio)
	}
	if do.Ratio > 1.0001 || so.Ratio < 0 {
		t.Fatalf("overlap ratio out of range: serial %v, db %v", so.Ratio, do.Ratio)
	}
	// The total modeled work (transfer + kernel) is the same in both runs;
	// only the schedule differs.
	if diff := (so.TransferUS + so.KernelUS) - (do.TransferUS + do.KernelUS); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("total busy time diverged: serial %v, db %v", so.TransferUS+so.KernelUS, do.TransferUS+do.KernelUS)
	}
}

// TestDepthOneRingMatchesSerialHazards: with depth 1 every image reuses the
// same buffers, so the hazards alone must serialize the schedule back to
// (at least) per-buffer ordering — no overlap regression into incorrectness.
func TestDepthOneRingMatchesSerialHazards(t *testing.T) {
	const images = 8
	db1 := runDoubleBuffered(t, images, 1)
	db2 := runDoubleBuffered(t, images, 2)
	if db2.ElapsedUS() > db1.ElapsedUS() {
		t.Fatalf("depth-2 slower than depth-1: %v > %v", db2.ElapsedUS(), db1.ElapsedUS())
	}
	// Depth-1 keeps per-image write->kernel->read ordering via hazards.
	var lastKernelEnd float64
	for _, ev := range db1.Events() {
		if ev.Kind == "kernel" {
			if ev.StartUS < lastKernelEnd {
				t.Fatalf("kernel %q started at %v before previous kernel finished at %v", ev.Name, ev.StartUS, lastKernelEnd)
			}
			lastKernelEnd = ev.EndUS
		}
	}
}

// overlapSinceScan is OverlapSince as it was first written: every transfer
// intersected with every merged kernel span, O(T·K). It is the oracle for
// the binary-searched version.
func overlapSinceScan(c *Context, sinceUS float64) Overlap {
	var o Overlap
	type span struct{ s, e float64 }
	var kernels []span
	events := make([]*Event, 0, len(c.events))
	for _, ev := range c.events {
		if ev.StartUS >= sinceUS {
			events = append(events, ev)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case "kernel":
			o.KernelUS += ev.duration()
			if ev.EndUS > ev.StartUS {
				kernels = append(kernels, span{ev.StartUS, ev.EndUS})
			}
		case "write", "read":
			o.TransferUS += ev.duration()
		}
	}
	if len(kernels) > 0 {
		sort.Slice(kernels, func(i, j int) bool { return kernels[i].s < kernels[j].s })
		merged := kernels[:1]
		for _, sp := range kernels[1:] {
			last := &merged[len(merged)-1]
			if sp.s <= last.e {
				last.e = math.Max(last.e, sp.e)
			} else {
				merged = append(merged, sp)
			}
		}
		for _, ev := range events {
			if ev.Kind != "write" && ev.Kind != "read" {
				continue
			}
			for _, sp := range merged {
				lo := math.Max(ev.StartUS, sp.s)
				hi := math.Min(ev.EndUS, sp.e)
				if hi > lo {
					o.HiddenUS += hi - lo
				}
			}
		}
	}
	if o.TransferUS > 0 {
		o.Ratio = o.HiddenUS / o.TransferUS
	}
	return o
}

// randomEventLog fills a context with n seeded events: kernels and
// transfers of random kinds at random, often overlapping or touching,
// times, some of zero length, on a coarse grid so equal endpoints occur.
func randomEventLog(seed uint64, n int) *Context {
	r := rand.New(rand.NewPCG(seed, 7))
	c := &Context{}
	kinds := []string{"kernel", "write", "read"}
	t := 0.0
	for i := 0; i < n; i++ {
		t += float64(r.IntN(8)) * 0.25
		start := t + float64(r.IntN(40))*0.5 - 10
		dur := float64(r.IntN(12)) * 0.75
		if r.IntN(10) == 0 {
			dur = 0
		}
		c.events = append(c.events, &Event{Kind: kinds[r.IntN(3)], StartUS: start, EndUS: start + dur})
	}
	return c
}

// TestOverlapSinceMatchesScan: on random event logs, from every cut-off
// including none, the binary-searched OverlapSince returns bit for bit what
// the full scan does.
func TestOverlapSinceMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		c := randomEventLog(seed, 1+int(seed%97))
		for _, since := range []float64{math.Inf(-1), 0, 5, 20, 60} {
			got, want := c.OverlapSince(since), overlapSinceScan(c, since)
			if math.Float64bits(got.HiddenUS) != math.Float64bits(want.HiddenUS) ||
				math.Float64bits(got.TransferUS) != math.Float64bits(want.TransferUS) ||
				math.Float64bits(got.KernelUS) != math.Float64bits(want.KernelUS) ||
				math.Float64bits(got.Ratio) != math.Float64bits(want.Ratio) {
				t.Fatalf("seed %d since %v: %+v, scan %+v", seed, since, got, want)
			}
		}
	}
}

// BenchmarkOverlapSince times OverlapSince ("search") and the scan it
// replaced ("scan") on double-buffered runs of T = 1k, 4k and 16k
// transfers: two per image, against one merged kernel span per image.
func BenchmarkOverlapSince(b *testing.B) {
	for _, n := range []int{1 << 9, 1 << 11, 1 << 13} {
		c := runDoubleBuffered(b, n, 2)
		for _, impl := range []struct {
			name string
			fn   func(*Context, float64) Overlap
		}{{"search", (*Context).OverlapSince}, {"scan", overlapSinceScan}} {
			b.Run(fmt.Sprintf("T=%d/%s", 2*n, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.fn(c, 0)
				}
			})
		}
	}
}
