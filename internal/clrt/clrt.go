// Package clrt is a discrete-event simulator of the Intel OpenCL host
// runtime as the thesis's custom host program drives it (§5.2): contexts,
// in-order command queues, device buffers, events with profiling timestamps,
// host→device/device→host transfers over a shared PCIe link, kernel
// execution serialized per compute unit, Intel channels coupling concurrent
// kernels into pipelines, and autorun kernels that run without host control.
//
// Time is simulated in microseconds; nothing here consults the wall clock,
// so every experiment is deterministic. Kernel durations come from the AOC
// cycle/traffic model; the runtime adds what the runtime really adds —
// enqueue overhead, dispatch latency, transfer time, queue serialization and
// profiling costs. Those overheads are exactly the quantities the thesis's
// Autorun and Concurrent-Execution optimizations attack.
package clrt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/aoc"
	"repro/internal/fault"
	"repro/internal/ir"
)

// errChannelDrain marks a channel dataflow whose fixed-point propagation
// never converges: a cyclic channel topology that can never drain. On
// hardware this is a hang; here it is a returned diagnostic.
var errChannelDrain = errors.New("clrt: channel dataflow does not converge (cyclic channel topology that can never drain)")

const (
	// dispatchUS is the device-side cost of launching a host-controlled
	// kernel (ID dispatch logic); autorun kernels avoid it (§4.7).
	dispatchUS = 11.0
	// stageLatencyUS is the channel hand-off latency between pipelined
	// kernels (fill of the downstream datapath).
	stageLatencyUS = 2.0
	// profilingOverheadUS is added to every command when the OpenCL event
	// profiler is enabled; profiling also forces blocking semantics (§5.2).
	profilingOverheadUS = 18.0
)

// Event mirrors a cl_event with profiling info.
type Event struct {
	Kind     string // "write", "read", "kernel"
	Name     string
	QueuedUS float64
	StartUS  float64
	EndUS    float64
	// Queue is the index (creation order) of the command queue the event ran
	// on — the trace exporter renders one track per queue.
	Queue int
	// Bytes is the transfer payload size for write/read events (0 for
	// kernels); with the duration it yields the effective PCIe bandwidth.
	Bytes int
	// StallUS is the portion of a kernel's span spent waiting for channel
	// producers to finish (the §4.6 rate-mismatch back-pressure): the amount
	// its end was pushed past start+modeled-duration by channel coupling.
	StallUS float64
	// Corrupt marks a transfer whose payload was damaged in flight by an
	// injected fault (the host detects it by checksum and re-transfers).
	Corrupt bool
	// Stalled marks a kernel execution inflated by an injected stall; no CL
	// error reports it, it only lengthens the modeled time.
	Stalled bool
}

// duration returns the command's execution span in microseconds.
func (e *Event) duration() float64 { return e.EndUS - e.StartUS }

// Buffer is a device-side cl_mem allocation.
type Buffer struct {
	Name  string
	Bytes int

	writeAvail float64 // completion time of the last writer
	readAvail  float64 // completion time of the last reader
}

// Context holds one programmed device: the compiled design plus simulation
// state (PCIe link, per-kernel compute-unit availability, channel dataflow).
type Context struct {
	Design *aoc.Design
	// Profiling enables per-event timestamps and, as in the thesis's host
	// code, disables asynchronous/concurrent execution benefits by forcing
	// a sync after every command.
	Profiling bool
	// Injector, when set, injects deterministic faults into transfers,
	// enqueues and kernel executions. nil (the default) is inert.
	Injector *fault.Injector

	hostUS    float64
	pcieAvail float64
	// kernelAvail serializes executions per compute unit.
	kernelAvail map[string]float64
	// streams holds, per channel with a producer so far, when its stream
	// becomes available to a consumer and when it has been fully written.
	streams map[*ir.Channel]stream
	events  []*Event
	queues  []*Queue

	// chans lists the design's kernels that read or write a channel, in
	// design order, with their channel lists and, for an autorun kernel
	// (it takes no bindings), its modeled duration: derived once when the
	// device is programmed instead of on every enqueue. A design without
	// channels leaves it nil.
	chans []kernelChans
}

// stream is one channel's data flow so far: ready is when a consumer may
// start reading (producer start + stage latency), done when the last
// element has been written.
type stream struct{ ready, done float64 }

// kernelChans is one channel-coupled kernel as the runtime sees it.
type kernelChans struct {
	m             *aoc.KernelModel
	reads, writes []*ir.Channel
	autorunUS     float64
}

// channels returns the channel lists of model m (nil for a kernel without
// channels).
func (c *Context) channels(m *aoc.KernelModel) (reads, writes []*ir.Channel) {
	for i := range c.chans {
		if c.chans[i].m == m {
			return c.chans[i].reads, c.chans[i].writes
		}
	}
	return nil, nil
}

// NewContext programs the device with a synthesizable design.
func NewContext(d *aoc.Design) (*Context, error) {
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("clrt: cannot program device: %w", err)
	}
	c := &Context{
		Design:      d,
		kernelAvail: map[string]float64{},
		streams:     map[*ir.Channel]stream{},
	}
	for _, m := range d.Kernels {
		reads, writes := m.Kernel.Channels()
		if len(reads)+len(writes) == 0 {
			continue
		}
		if c.chans == nil {
			c.chans = make([]kernelChans, 0, len(d.Kernels))
		}
		k := kernelChans{m: m, reads: reads, writes: writes}
		if m.Kernel.Autorun && len(reads) > 0 {
			k.autorunUS = m.TimeUS(nil, d.FmaxMHz, d.Board)
		}
		c.chans = append(c.chans, k)
	}
	return c, nil
}

// NewBuffer allocates a device buffer.
func (c *Context) NewBuffer(name string, bytes int) *Buffer {
	return &Buffer{Name: name, Bytes: bytes}
}

// Queue is an in-order command queue: its commands serialize. Commands on
// different queues order only through explicit event wait lists and buffer
// hazards (§2.3.2).
type Queue struct {
	ctx   *Context
	id    int
	avail float64
}

// NewQueue creates an in-order command queue.
func (c *Context) NewQueue() *Queue {
	q := &Queue{ctx: c, id: len(c.queues)}
	c.queues = append(c.queues, q)
	return q
}

// release records a command's completion on the queue.
func (q *Queue) release(end float64) {
	if end > q.avail {
		q.avail = end
	}
}

func (c *Context) record(ev *Event) *Event {
	c.events = append(c.events, ev)
	return ev
}

// host advances the host cursor over one enqueue call and returns the
// enqueue timestamp. The per-call cost is a property of the platform's host
// system (fpga.Board.EnqueueUS) — it is the overhead the Autorun
// optimization eliminates for weight-less kernels (§4.7).
func (c *Context) host() float64 {
	c.hostUS += c.Design.Board.EnqueueUS
	if c.Profiling {
		c.hostUS += profilingOverheadUS
	}
	return c.hostUS
}

// EnqueueWrite transfers bytes from host to device. An injected transfer
// fault surfaces as an error: a hard failure costs only the enqueue call; a
// corruption completes the transfer (the PCIe time is spent) but returns the
// error alongside the event, the way a checksum-detecting host sees it.
func (q *Queue) EnqueueWrite(b *Buffer, bytes int) (*Event, error) {
	c := q.ctx
	queued := c.host()
	ferr := c.Injector.Transfer("write "+b.Name, queued)
	if ferr != nil && ferr.Kind == fault.TransferFail {
		return nil, ferr
	}
	start := math.Max(math.Max(queued, q.avail), c.pcieAvail)
	start = math.Max(start, math.Max(b.readAvail, b.writeAvail))
	dur := c.Design.Board.PCIe.WriteTimeUS(bytes)
	end := start + dur
	q.release(end)
	c.pcieAvail, b.writeAvail = end, end
	if c.Profiling {
		c.hostUS = math.Max(c.hostUS, end) // blocking wait for the event
	}
	ev := c.record(&Event{Kind: "write", Name: b.Name, QueuedUS: queued, StartUS: start, EndUS: end,
		Queue: q.id, Bytes: bytes, Corrupt: ferr != nil})
	if ferr != nil {
		return ev, ferr
	}
	return ev, nil
}

// EnqueueRead transfers bytes from device to host and blocks the host until
// complete (the thesis's host reads back results synchronously). Injected
// faults surface as for EnqueueWrite.
func (q *Queue) EnqueueRead(b *Buffer, bytes int) (*Event, error) {
	c := q.ctx
	queued := c.host()
	ferr := c.Injector.Transfer("read "+b.Name, queued)
	if ferr != nil && ferr.Kind == fault.TransferFail {
		return nil, ferr
	}
	start := math.Max(math.Max(queued, q.avail), c.pcieAvail)
	start = math.Max(start, b.writeAvail)
	dur := c.Design.Board.PCIe.ReadTimeUS(bytes)
	end := start + dur
	q.release(end)
	c.pcieAvail, b.readAvail = end, end
	c.hostUS = math.Max(c.hostUS, end)
	ev := c.record(&Event{Kind: "read", Name: b.Name, QueuedUS: queued, StartUS: start, EndUS: end,
		Queue: q.id, Bytes: bytes, Corrupt: ferr != nil})
	if ferr != nil {
		return ev, ferr
	}
	return ev, nil
}

// KernelCall describes one kernel invocation.
type KernelCall struct {
	Name string
	// Bindings give values to symbolic shape parameters (parameterized
	// kernels, §4.9); nil for constant-shape kernels.
	Bindings map[*ir.Var]int64
	// Reads/Writes list the global buffers this invocation touches, for
	// hazard tracking.
	Reads  []*Buffer
	Writes []*Buffer
	// Wait lists events that must complete before the kernel starts (the
	// explicit synchronization across command queues, §2.3.2).
	Wait []*Event
}

// EnqueueKernel launches a host-controlled kernel. Channel-coupled upstream
// producers (including autorun kernels) gate its start; its own channel
// writes become available to downstream consumers one stage-latency after it
// starts, which is what lets concurrently-enqueued kernels overlap into a
// pipeline (§4.6/§4.8).
func (q *Queue) EnqueueKernel(call KernelCall) (*Event, error) {
	c := q.ctx
	m := c.Design.Model(call.Name)
	if m == nil {
		return nil, fmt.Errorf("clrt: kernel %q not in design %s", call.Name, c.Design.Name)
	}
	if m.Kernel.Autorun {
		return nil, fmt.Errorf("clrt: kernel %q is autorun; it cannot be enqueued", call.Name)
	}
	queued := c.host()
	if ferr := c.Injector.Enqueue("kernel "+call.Name, queued); ferr != nil {
		return nil, ferr
	}
	start := math.Max(queued, q.avail)
	start = math.Max(start, c.kernelAvail[call.Name])
	for _, w := range call.Wait {
		start = math.Max(start, w.EndUS)
	}
	for _, b := range call.Reads {
		start = math.Max(start, b.writeAvail)
	}
	for _, b := range call.Writes {
		start = math.Max(start, math.Max(b.readAvail, b.writeAvail))
	}
	reads, writes := c.channels(m)
	for _, ch := range reads {
		if st, ok := c.streams[ch]; ok {
			start = math.Max(start, st.ready)
		}
	}
	dur := m.TimeUS(call.Bindings, c.Design.FmaxMHz, c.Design.Board) + dispatchUS
	stall := c.Injector.Stall("kernel "+call.Name, queued)
	dur *= stall
	end := start + dur
	// A channel consumer cannot finish before its producers have finished
	// producing (unequal rates stall the pipeline, §4.6).
	for _, ch := range reads {
		if st, ok := c.streams[ch]; ok {
			end = math.Max(end, st.done+stageLatencyUS)
		}
	}
	chanStallUS := end - (start + dur)
	q.release(end)
	c.kernelAvail[call.Name] = end
	for _, b := range call.Reads {
		b.readAvail = math.Max(b.readAvail, end)
	}
	for _, b := range call.Writes {
		b.writeAvail = end
	}
	for _, ch := range writes {
		c.streams[ch] = stream{ready: start + stageLatencyUS, done: end}
	}
	if c.Profiling {
		c.hostUS = math.Max(c.hostUS, end)
	}
	ev := c.record(&Event{Kind: "kernel", Name: call.Name, QueuedUS: queued, StartUS: start, EndUS: end,
		Queue: q.id, StallUS: chanStallUS, Stalled: stall > 1})
	if err := c.runAutorun(ev); err != nil {
		return ev, err
	}
	return ev, nil
}

// runAutorun propagates data through autorun kernels downstream of a just-
// executed producer: they consume from channels as data arrives and publish
// their own outputs, without any host interaction (§4.7).
//
// The propagation iterates to a fixed point. For any acyclic channel
// topology the fixed point is reached within one pass per pipeline stage; a
// cycle through autorun kernels keeps pushing channel timestamps forward
// forever — on hardware, a design that can never drain. The loop is
// therefore bounded: exceeding the cap returns errChannelDrain instead of
// hanging the simulator.
func (c *Context) runAutorun(producer *Event) error {
	// Any DAG converges in at most one iteration per autorun stage (plus one
	// to observe quiescence); the slack covers degenerate single-kernel sets.
	maxIters := 2*len(c.Design.Kernels) + 8
	iters := 0
	// Iterate to a fixed point over autorun kernels whose input channels got
	// fresh data.
	for changed := true; changed; {
		changed = false
		if iters++; iters > maxIters {
			return fmt.Errorf("design %s: autorun propagation exceeded %d iterations after kernel %s: %w",
				c.Design.Name, maxIters, producer.Name, errChannelDrain)
		}
		for _, k := range c.chans {
			if !k.m.Kernel.Autorun || len(k.reads) == 0 {
				continue
			}
			reads, writes := k.reads, k.writes
			start := 0.0
			ok := true
			for _, ch := range reads {
				st, has := c.streams[ch]
				if !has {
					ok = false
					break
				}
				start = math.Max(start, st.ready)
			}
			if !ok {
				continue
			}
			end := start + k.autorunUS
			for _, ch := range reads {
				if st, has := c.streams[ch]; has {
					end = math.Max(end, st.done+stageLatencyUS)
				}
			}
			for _, ch := range writes {
				nr := start + stageLatencyUS
				nd := end
				if c.streams[ch] != (stream{nr, nd}) {
					c.streams[ch] = stream{nr, nd}
					changed = true
				}
			}
			if len(writes) == 0 && end > producer.EndUS {
				// Terminal autorun consumer extends the pipeline.
				producer.EndUS = end
			}
		}
	}
	return nil
}

// Finish blocks the host until all queues drain (clFinish on every queue).
func (c *Context) Finish() {
	for _, q := range c.queues {
		c.hostUS = math.Max(c.hostUS, q.avail)
	}
	c.hostUS = math.Max(c.hostUS, c.pcieAvail)
	for _, t := range c.kernelAvail {
		c.hostUS = math.Max(c.hostUS, t)
	}
	for _, st := range c.streams {
		c.hostUS = math.Max(c.hostUS, st.done)
	}
}

// ElapsedUS is the current simulated host time.
func (c *Context) ElapsedUS() float64 { return c.hostUS }

// AdvanceHost moves the host cursor forward by us microseconds — the
// simulated-time equivalent of the host sleeping, used by the batch
// engine's retry backoff.
func (c *Context) AdvanceHost(us float64) {
	if us > 0 {
		c.hostUS += us
	}
}

// Events returns all recorded events in enqueue order.
func (c *Context) Events() []*Event { return c.events }

// Breakdown sums event durations by kind, for the Fig. 6.2 profile.
func (c *Context) Breakdown() map[string]float64 {
	out := map[string]float64{}
	for _, e := range c.events {
		out[e.Kind] += e.duration()
	}
	return out
}

// BreakdownByName sums kernel event durations per kernel name, for the
// per-operation profiles of Tables 6.8/6.16.
func (c *Context) BreakdownByName() map[string]float64 {
	out := map[string]float64{}
	for _, e := range c.events {
		if e.Kind == "kernel" {
			out[e.Name] += e.duration()
		}
	}
	return out
}

// SortedKinds returns breakdown keys in deterministic order.
func SortedKinds(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
