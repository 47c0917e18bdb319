// Package trace is the runtime's observability layer: structured spans over
// simulated time, a metrics registry, and a Chrome-trace exporter. The
// thesis evaluates its runtime by looking at execution timelines
// (serial-vs-concurrent queues, channel-pipeline overlap, the PCIe
// bottleneck, §5.2); this package makes those timelines machine-readable —
// the clrt event stream becomes device-side spans, and the host layers add
// per-image, per-batch and per-DSE-candidate spans with fault annotations
// from internal/fault.
//
// Everything is deterministic for a deterministic run: spans are keyed on
// simulated microseconds, never the wall clock, so a fixed seed yields a
// byte-identical trace.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/clrt"
	"repro/internal/fault"
)

// Span is one interval (or instant) on a named track. Proc groups tracks
// into a Chrome-trace process ("device" for simulator events, "host" for
// host-program phases); Track is the thread-level lane.
type Span struct {
	Proc  string
	Track string
	Name  string
	// Cat is the Chrome-trace category ("kernel", "write", "read", "image",
	// "rung", "candidate", "fault", ...): traces can be filtered by it in the
	// Perfetto UI.
	Cat     string
	StartUS float64
	DurUS   float64
	// Instant marks a zero-duration marker event (rendered as an arrow tick);
	// DurUS is ignored.
	Instant bool
	// Args become the span's argument table in the trace viewer.
	Args map[string]string
}

// Collector accumulates spans for one traced run. Safe for concurrent use; a
// nil *Collector is inert, so the host can thread it unconditionally.
type Collector struct {
	mu    sync.Mutex
	spans []Span
	reg   *Registry
}

// NewCollector returns an empty collector with a fresh metrics registry.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry()}
}

// Metrics returns the collector's registry. Nil-safe (returns a nil, inert
// registry).
func (c *Collector) Metrics() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Add records one span. Nil-safe.
func (c *Collector) Add(s Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Instant records a zero-duration marker. Nil-safe.
func (c *Collector) Instant(proc, track, name, cat string, atUS float64, args map[string]string) {
	c.Add(Span{Proc: proc, Track: track, Name: name, Cat: cat, StartUS: atUS, Instant: true, Args: args})
}

// Spans returns a copy of the recorded spans in insertion order. Nil-safe.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// AddEvents converts a clrt event stream into device-process spans, one
// track per command queue with kernels and transfers on separate lanes, and
// publishes the event-derived metrics (occupancy, channel stall %, transfer
// bandwidth). elapsedUS is the context's total simulated time
// (Context.ElapsedUS), the denominator for occupancy. Call after
// Context.Finish: autorun propagation can extend producer spans until the
// queues drain. Nil-safe.
func (c *Collector) AddEvents(events []*clrt.Event, elapsedUS float64) {
	c.AddEventsAs("device", events, elapsedUS)
}

// AddEventsAs is AddEvents with an explicit trace process name. Batch runs
// give each worker's device context its own process ("device w0", "device
// w1", ...) so per-worker queues do not collide on one track namespace.
// Nil-safe.
func (c *Collector) AddEventsAs(proc string, events []*clrt.Event, elapsedUS float64) {
	if c == nil {
		return
	}
	var kernelBusyUS, stallUS float64
	var xferBytes, xferUS float64
	for _, e := range events {
		lane := "transfers"
		if e.Kind == "kernel" {
			lane = "kernels"
		}
		args := map[string]string{"queue": fmt.Sprintf("%d", e.Queue)}
		dur := e.EndUS - e.StartUS
		switch e.Kind {
		case "kernel":
			kernelBusyUS += dur
			stallUS += e.StallUS
			if e.StallUS > 0 {
				args["channel_stall_us"] = fmt.Sprintf("%.1f", e.StallUS)
			}
			if e.Stalled {
				args["stalled"] = "true"
			}
			c.reg.Histogram("clrt.kernel_us").Observe(dur)
		case "write", "read":
			xferBytes += float64(e.Bytes)
			xferUS += dur
			args["bytes"] = fmt.Sprintf("%d", e.Bytes)
			if dur > 0 {
				// bytes/us == MB/s
				args["mbps"] = fmt.Sprintf("%.1f", float64(e.Bytes)/dur)
			}
			if e.Corrupt {
				args["corrupt"] = "true"
			}
			c.reg.Histogram("clrt.transfer_us").Observe(dur)
		}
		c.reg.Counter("clrt.events." + e.Kind).Inc()
		c.Add(Span{
			Proc:    proc,
			Track:   fmt.Sprintf("queue %d %s", e.Queue, lane),
			Name:    e.Kind + " " + e.Name,
			Cat:     e.Kind,
			StartUS: e.StartUS,
			DurUS:   dur,
			Args:    args,
		})
	}
	if elapsedUS > 0 {
		c.reg.Gauge("clrt.kernel_occupancy").Set(kernelBusyUS / elapsedUS)
	}
	if kernelBusyUS > 0 {
		c.reg.Gauge("clrt.channel_stall_pct").Set(100 * stallUS / kernelBusyUS)
	}
	if xferUS > 0 {
		// bytes per microsecond is numerically MB/s.
		c.reg.Gauge("clrt.transfer_mbps").Set(xferBytes / xferUS)
	}
}

// AddFaults turns an injector's ledger into instant markers on a dedicated
// host-process "faults" track and bumps per-kind fault counters. Nil-safe.
func (c *Collector) AddFaults(records []fault.Record) {
	if c == nil {
		return
	}
	for _, r := range records {
		c.reg.Counter("fault." + r.Kind.String()).Inc()
		c.Instant("host", "faults", r.Kind.String(), "fault", r.AtUS, map[string]string{
			"seq":  fmt.Sprintf("%d", r.Seq),
			"code": r.Code.String(),
			"op":   r.Op,
		})
	}
}

// sortSpansForExport orders spans deterministically for the exporter:
// process, then track first-appearance is resolved separately; within the
// stream ordering is by start time, then insertion order (stable sort).
func sortSpansForExport(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
}
