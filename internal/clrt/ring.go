package clrt

// Double buffering (§4.8 / the thesis's concurrent-queue optimization): the
// host allocates a small ring of device buffers per logical stream and
// alternates through them image by image. Because each Buffer carries its own
// read/write-availability hazards while the PCIe link and compute units are
// shared, rotating buffers lets image i+1's H2D transfer start while image
// i's kernels still hold the other buffer — the runtime model then reports
// how much transfer time was hidden behind compute.

import (
	"fmt"
	"math"
	"sort"
)

// BufferRing is a fixed ring of same-sized device buffers backing one logical
// stream (network input or output) across a batch. Depth 2 is classic double
// buffering; depth 1 degenerates to a single buffer (no overlap).
type BufferRing struct {
	bufs []*Buffer
	next int
}

// NewBufferRing allocates depth device buffers of the given size. Depth is
// clamped to at least 1.
func (c *Context) NewBufferRing(name string, bytes, depth int) *BufferRing {
	if depth < 1 {
		depth = 1
	}
	r := &BufferRing{bufs: make([]*Buffer, depth)}
	for i := range r.bufs {
		r.bufs[i] = c.NewBuffer(fmt.Sprintf("%s[%d]", name, i), bytes)
	}
	return r
}

// Next returns the ring's current buffer and advances the cursor. Callers
// take one buffer per image; with depth d, image i and image i+d share a
// buffer and are serialized by its hazards, while images closer together
// proceed independently.
func (r *BufferRing) Next() *Buffer {
	b := r.bufs[r.next]
	r.next = (r.next + 1) % len(r.bufs)
	return b
}

// Overlap quantifies how much transfer time the schedule hid behind kernel
// execution — the payoff of double buffering. All figures are simulated
// microseconds over the context's whole event history.
type Overlap struct {
	// TransferUS is the summed duration of all write/read events.
	TransferUS float64
	// KernelUS is the summed duration of all kernel events.
	KernelUS float64
	// HiddenUS is the portion of transfer time that ran while at least one
	// kernel was executing.
	HiddenUS float64
	// Ratio is HiddenUS / TransferUS (0 when there were no transfers).
	Ratio float64
}

// OverlapSince scans the events starting at or after sinceUS and measures
// transfer/compute overlap: for each transfer event, the length of its span
// covered by the union of kernel execution spans. A serial schedule scores
// ~0; ideal double buffering approaches 1 on the steady-state transfers.
// Batch runs pass the post-setup timestamp so one-time parameter uploads
// (which nothing can overlap) do not dilute the steady-state ratio.
func (c *Context) OverlapSince(sinceUS float64) Overlap {
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
		// Merge kernel spans into a disjoint union.
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
			// merged is sorted and disjoint, so its ends ascend too. A span
			// ending at or before the transfer starts, or starting at or
			// after it ends, adds nothing; binary-search the first span
			// ending after the start and add the rest up to the end in
			// merged order, the terms and the order of a scan over every
			// span.
			i, j := 0, len(merged)
			for i < j {
				if h := int(uint(i+j) >> 1); merged[h].e > ev.StartUS {
					j = h
				} else {
					i = h + 1
				}
			}
			for ; i < len(merged) && merged[i].s < ev.EndUS; i++ {
				lo := math.Max(ev.StartUS, merged[i].s)
				hi := math.Min(ev.EndUS, merged[i].e)
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
