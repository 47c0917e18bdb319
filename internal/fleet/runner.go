package fleet

// The scheduler's serve.Runner face. One formed batch arrives; the fleet
// routes it whole to the best device (batches amortize dispatch overhead,
// splitting one would forfeit that), and on any dispatch failure falls back
// to per-image rerouting: each in-flight image is requeued individually
// across the surviving pool, excluding every device that already failed it,
// with the cpuref tier as the floor that cannot fail. Every reroute is a
// ledger entry attributing the image to its failover cause — the artifact
// chaos tests audit to prove zero-drop.

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// Run implements serve.Runner. ServiceUS is the modeled time from batch
// formation to the last image's completion — failover detection latency
// (watchdog beats) and requeue service included, so latency figures under
// chaos are honest.
func (f *Fleet) Run(b *serve.Batch) *serve.BatchOutcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceAll(b.FormedUS)

	inputs := make([]*tensor.Tensor, len(b.Reqs))
	idxs := make([]int, len(b.Reqs))
	for i, req := range b.Reqs {
		inputs[i] = req.Input
		idxs[i] = i
	}
	out := &serve.BatchOutcome{Outcomes: make([]serve.Outcome, len(b.Reqs))}
	end := f.runImages(b, inputs, idxs, b.FormedUS, nil, out, 0)
	out.ServiceUS = end - b.FormedUS
	return out
}

// runImages dispatches the given images (idxs into the batch) as one unit
// onto the best non-excluded device, falling back to per-image recursion on
// failure. Returns the latest completion time and fills out.Outcomes for
// every image it settles; served reports which device answered (for the
// caller's ledger entry).
func (f *Fleet) runImages(b *serve.Batch, inputs []*tensor.Tensor, idxs []int,
	readyUS float64, exclude map[string]bool, out *serve.BatchOutcome, depth int) float64 {

	m := f.tc.Metrics()
	d := f.route(readyUS, len(idxs), exclude)
	if d == nil {
		// Unreachable while cpuref exists (it takes no board faults and its
		// executor cannot error), but the contract must hold even if a
		// future change lets it fail: count, mark, and surface loudly.
		for _, idx := range idxs {
			out.Outcomes[idx] = serve.Outcome{ArgMax: -1, Rung: "dropped",
				Err: fmt.Errorf("fleet: no device left for request %d", b.Reqs[idx].ID)}
		}
		f.dropped += len(idxs)
		m.Counter("fleet.failover.dropped").Add(int64(len(idxs)))
		return readyUS
	}

	sub := make([]*tensor.Tensor, len(idxs))
	for i, idx := range idxs {
		sub[i] = inputs[idx]
	}
	f.dispatchSeq++
	res, failAt, cause := f.dispatchOn(d, sub, readyUS, f.dispatchSeq)
	if res != nil {
		out.Retries += res.retries
		out.Faults += res.faults
	}
	if cause == "" {
		for i, idx := range idxs {
			out.Outcomes[idx] = serve.Outcome{ArgMax: res.outs[i].ArgMax(), Rung: d.Name}
		}
		out.DeviceUS += res.endUS - res.startUS
		if depth > 0 {
			d.failIn += len(idxs)
		}
		for _, idx := range idxs {
			if lat := res.endUS - b.Reqs[idx].ArriveUS; lat > f.cfg.SLAUS {
				f.slaMisses++
				m.Counter("fleet.sla_miss").Inc()
			}
		}
		return res.endUS
	}

	// Dispatch failed: the device's health already escalated inside
	// dispatchOn; requeue every image individually across the survivors.
	f.advanceAll(failAt)
	if depth == 0 {
		out.Degraded += len(idxs)
	}
	ex2 := make(map[string]bool, len(exclude)+1)
	for k := range exclude {
		ex2[k] = true
	}
	ex2[d.Name] = true
	d.failOut += len(idxs)
	m.Counter("fleet.failover.total").Add(int64(len(idxs)))
	m.Counter("fleet.failover." + cause).Add(int64(len(idxs)))

	maxEnd := failAt
	for _, idx := range idxs {
		// Record before the recursive dispatch so the ledger stays in event
		// order; fill To from the recursion's chosen device afterwards.
		f.ledger = append(f.ledger, Failover{
			ReqID: b.Reqs[idx].ID, From: d.Name, Cause: cause, AtUS: failAt,
		})
		entry := len(f.ledger) - 1
		end := f.runImages(b, inputs, []int{idx}, failAt, ex2, out, depth+1)
		f.ledger[entry].To = out.Outcomes[idx].Rung
		if end > maxEnd {
			maxEnd = end
		}
	}
	return maxEnd
}
