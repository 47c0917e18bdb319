package serve

// Discrete-event frontend: replays an arrival stream against the engine on a
// virtual microsecond clock. Service time is the runner's modeled ServiceUS
// (device time + dispatch overhead), so throughput and latency figures are
// properties of the modeled system, not of the host CPU — the same
// discipline as the batch engine's modeled speedups — and a fixed
// (profile seed, fault seed) pair replays byte-identically. Functional
// outputs are still really computed (every request classifies its image),
// so fault injection exercises the true ladder.

import (
	"container/heap"
	"sort"

	"repro/internal/tensor"
	"repro/internal/trace"
)

// Arrival is one scheduled request in a simulated workload.
type Arrival struct {
	AtUS   float64
	Tenant string
	Input  *tensor.Tensor
	// CancelAtUS > 0 cancels the request at that time if it is still queued
	// (a client giving up / disconnecting).
	CancelAtUS float64
}

// ShedRecord is one refused admission in a simulated run.
type ShedRecord struct {
	Tenant string
	Reason ShedReason
	AtUS   float64
}

// SimResult is the outcome of one simulated serving run.
type SimResult struct {
	Offered   int
	Accepted  int
	Completed int
	Canceled  int
	Shed      []ShedRecord
	// Responses holds every completed (non-canceled) response in completion
	// order.
	Responses []Response
	// MakespanUS is the time of the last completion — the denominator for
	// sustained QPS.
	MakespanUS float64
	// DrainDropped is the zero-drop contract check: accepted requests that
	// neither completed nor were canceled. Always 0 unless the engine is
	// broken; TestSustainedFaultedStreamLedger blocks on it.
	DrainDropped int
}

// completion is a scheduled batch-finish event.
type completion struct {
	atUS float64
	b    *Batch
	out  *BatchOutcome
}

// completionHeap orders completions by time, then by formation sequence so
// simultaneous finishes retire deterministically.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].atUS != h[j].atUS {
		return h[i].atUS < h[j].atUS
	}
	return h[i].b.Seq < h[j].b.Seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// cancelEvent is a scheduled give-up for a still-queued request.
type cancelEvent struct {
	atUS float64
	req  *Request
}

// Event-source tags; priority at equal timestamps is this order, which fixes
// the tie-break (a completion frees its worker before a deadline flushes a
// partial batch at the same instant; arrivals see the post-event state).
const (
	evNone = iota
	evCompletion
	evCancel
	evDeadline
	evArrival
)

// RunSim drives the engine with the given arrivals and drains after the last
// one, returning once everything accepted has completed. Fully
// deterministic: virtual time only, fixed tie-break order, batches executed
// in formation order.
func RunSim(cfg Config, r Runner, arrivals []Arrival, tc *trace.Collector) *SimResult {
	cfg = cfg.withDefaults()
	res := &SimResult{Offered: len(arrivals)}
	sorted := make([]Arrival, len(arrivals))
	copy(sorted, arrivals)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtUS < sorted[j].AtUS })

	comps := &completionHeap{}
	eng := newEngine(cfg, tc, nil)
	// Dispatch runs the batch functionally right away (virtual time is not
	// wall time) and schedules its completion at formation + modeled service.
	eng.dispatch = func(b *Batch) {
		out := r.Run(b)
		heap.Push(comps, completion{atUS: b.FormedUS + out.ServiceUS, b: b, out: out})
	}

	var cancels []cancelEvent
	earliestCancel := func() (int, float64) {
		idx, at := -1, 0.0
		for i, c := range cancels {
			if idx < 0 || c.atUS < at {
				idx, at = i, c.atUS
			}
		}
		return idx, at
	}

	now := 0.0
	ai := 0
	drained := false
	for {
		kind, at := evNone, 0.0
		consider := func(k int, t float64, ok bool) {
			if ok && (kind == evNone || t < at) {
				kind, at = k, t
			}
		}
		if comps.Len() > 0 {
			consider(evCompletion, (*comps)[0].atUS, true)
		}
		if ci, ct := earliestCancel(); ci >= 0 {
			consider(evCancel, ct, true)
		}
		if dl, ok := eng.nextDeadline(); ok {
			consider(evDeadline, dl, true)
		}
		if ai < len(sorted) {
			consider(evArrival, sorted[ai].AtUS, true)
		}

		if kind == evNone {
			if !drained {
				// No arrivals left and nothing scheduled: flush any partial
				// batch still waiting on its deadline and keep going.
				eng.beginDrain(now)
				drained = true
				continue
			}
			break
		}
		now = at
		switch kind {
		case evCompletion:
			c := heap.Pop(comps).(completion)
			eng.complete(c.b, c.out, c.atUS)
			if c.atUS > res.MakespanUS {
				res.MakespanUS = c.atUS
			}
		case evCancel:
			i, _ := earliestCancel()
			ev := cancels[i]
			cancels = append(cancels[:i], cancels[i+1:]...)
			eng.cancel(ev.req, ev.atUS)
		case evDeadline:
			eng.poll(now)
		case evArrival:
			a := sorted[ai]
			ai++
			req := &Request{Tenant: a.Tenant, Input: a.Input}
			req.done = func(resp Response) {
				if resp.Err == errCanceled {
					res.Canceled++
					return
				}
				res.Completed++
				res.Responses = append(res.Responses, resp)
			}
			if reason := eng.submit(req, a.AtUS); reason != ShedNone {
				res.Shed = append(res.Shed, ShedRecord{Tenant: a.Tenant, Reason: reason, AtUS: a.AtUS})
			} else if a.CancelAtUS > a.AtUS {
				cancels = append(cancels, cancelEvent{atUS: a.CancelAtUS, req: req})
			}
			if ai == len(sorted) {
				// Stream over: drain so queued partials flush instead of
				// waiting out their deadlines.
				eng.beginDrain(now)
				drained = true
			}
		}
	}
	res.Accepted = int(eng.accepted)
	res.DrainDropped = res.Accepted - res.Completed - res.Canceled
	return res
}
