package serve

// The batcher state machine. The engine is deliberately single-threaded and
// clockless: every entry point takes an explicit nowUS, and the owner
// serializes calls (the HTTP server with a mutex, the simulation by being
// single-threaded). That keeps one implementation of admission, batch
// formation, shedding and drain shared between the deterministic virtual
// clock and the wall clock, and makes every edge case unit-testable without
// sleeping.
//
// Formation policy (documented in DESIGN.md): a batch dispatches when a
// worker is free AND (pending >= BatchN, or the oldest pending request has
// waited DeadlineUS, or the server is draining). A free worker with a
// partial batch whose deadline has not fired waits — classic N-or-T dynamic
// batching, not work-stealing.

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// engine owns the pending queue, the per-tenant admission counts and the
// worker free-list. Not safe for concurrent use; owners serialize.
type engine struct {
	cfg Config
	tc  *trace.Collector
	// dispatch hands a formed batch to the frontend. Called with a worker
	// already reserved, so frontends never block in it.
	dispatch func(*Batch)

	pending  []*Request
	queued   map[string]int // queued (not yet dispatched) requests per tenant
	freeW    []int          // free worker ids, LIFO
	inflight int            // dispatched, not yet completed requests
	draining bool
	nextID   int64
	batchSeq int

	accepted  int64
	completed int64

	// The collector keeps every batch span for the server's lifetime, so the
	// parts that repeat — the worker track name and the size/fill args, a
	// function of the batch size — are built once and shared read-only by
	// every span instead of costing a map per batch.
	tracks    []string            // by worker id
	batchArgs []map[string]string // by batch size
}

func newEngine(cfg Config, tc *trace.Collector, dispatch func(*Batch)) *engine {
	e := &engine{cfg: cfg, tc: tc, dispatch: dispatch, queued: map[string]int{}}
	for w := cfg.Workers - 1; w >= 0; w-- {
		e.freeW = append(e.freeW, w)
	}
	for w := 0; w < cfg.Workers; w++ {
		e.tracks = append(e.tracks, fmt.Sprintf("worker %d", w))
	}
	for k := 0; k <= cfg.BatchN; k++ {
		e.batchArgs = append(e.batchArgs, map[string]string{
			"size": fmt.Sprintf("%d", k),
			"fill": fmt.Sprintf("%.2f", float64(k)/float64(cfg.BatchN)),
		})
	}
	return e
}

// submit admits or sheds one request. On admission the request joins the
// pending queue (arrival order across tenants) and the formation policy is
// re-evaluated.
func (e *engine) submit(req *Request, nowUS float64) ShedReason {
	m := e.tc.Metrics()
	m.Counter("serve.requests").Inc()
	e.nextID++
	req.ID = e.nextID
	if reason := e.admit(req); reason != ShedNone {
		m.Counter("serve.shed." + reason.String()).Inc()
		e.tc.Instant("serve", "shed", reason.String(), "shed", nowUS,
			map[string]string{"tenant": req.Tenant})
		return reason
	}
	req.ArriveUS = nowUS
	e.pending = append(e.pending, req)
	e.queued[req.Tenant]++
	e.accepted++
	m.Counter("serve.accepted").Inc()
	m.Gauge("serve.queue_depth").Set(float64(len(e.pending)))
	e.poll(nowUS)
	return ShedNone
}

func (e *engine) admit(req *Request) ShedReason {
	if e.draining {
		return ShedDraining
	}
	if len(e.pending) >= e.cfg.MaxPending {
		return ShedOverload
	}
	if e.queued[req.Tenant] >= e.cfg.TenantQueue {
		return ShedTenantQueue
	}
	return ShedNone
}

// poll re-evaluates the formation policy: dispatch batches while a worker is
// free and the N-or-T (or drain-flush) condition holds.
func (e *engine) poll(nowUS float64) {
	for len(e.freeW) > 0 && len(e.pending) > 0 {
		if len(e.pending) < e.cfg.BatchN && !e.draining &&
			nowUS < e.pending[0].ArriveUS+e.cfg.DeadlineUS {
			break // partial batch, deadline still running: wait
		}
		k := min(len(e.pending), e.cfg.BatchN)
		reqs := make([]*Request, k)
		copy(reqs, e.pending[:k])
		rest := e.pending[k:]
		// Drop the dispatched prefix without retaining pointers.
		copy(e.pending, rest)
		for i := len(rest); i < len(e.pending); i++ {
			e.pending[i] = nil
		}
		e.pending = e.pending[:len(rest)]
		w := e.freeW[len(e.freeW)-1]
		e.freeW = e.freeW[:len(e.freeW)-1]
		for _, r := range reqs {
			e.queued[r.Tenant]--
		}
		e.batchSeq++
		e.inflight += k
		b := &Batch{Seq: e.batchSeq, Reqs: reqs, FormedUS: nowUS, Worker: w}
		m := e.tc.Metrics()
		m.Counter("serve.batches").Inc()
		m.Histogram("serve.batch_fill").Observe(float64(k) / float64(e.cfg.BatchN))
		m.Gauge("serve.queue_depth").Set(float64(len(e.pending)))
		e.dispatch(b)
	}
}

// nextDeadline reports when poll must be re-invoked even without new events:
// the oldest pending request's formation deadline, if a worker is free to
// take the partial batch. ok=false means no timer is needed.
func (e *engine) nextDeadline() (atUS float64, ok bool) {
	if len(e.freeW) == 0 || len(e.pending) == 0 || e.draining {
		return 0, false
	}
	return e.pending[0].ArriveUS + e.cfg.DeadlineUS, true
}

// cancel removes a still-queued request (client disconnect). Returns false
// when the request is already dispatched or finished — it will complete
// normally and the response goes to its done callback as usual.
func (e *engine) cancel(req *Request, nowUS float64) bool {
	for i, r := range e.pending {
		if r != req {
			continue
		}
		// slices.Delete clears the vacated slot, so the backing array keeps
		// no pointer to a request (and its input tensor) it no longer holds.
		e.pending = slices.Delete(e.pending, i, i+1)
		e.queued[req.Tenant]--
		m := e.tc.Metrics()
		m.Counter("serve.canceled").Inc()
		m.Gauge("serve.queue_depth").Set(float64(len(e.pending)))
		e.respond(req, Response{
			ID: req.ID, Tenant: req.Tenant, ArgMax: -1,
			LatencyUS: nowUS - req.ArriveUS, Err: errCanceled,
		})
		return true
	}
	return false
}

// complete retires a dispatched batch: per-request responses with latency
// decomposition and rung accounting, worker back to the free list, and a
// formation re-poll (a freed worker may unblock the next batch).
func (e *engine) complete(b *Batch, out *BatchOutcome, nowUS float64) {
	m := e.tc.Metrics()
	for i, req := range b.Reqs {
		oc := out.Outcomes[i]
		resp := Response{
			ID: req.ID, Tenant: req.Tenant, ArgMax: oc.ArgMax, Rung: oc.Rung,
			BatchSize: len(b.Reqs),
			QueueUS:   b.FormedUS - req.ArriveUS,
			ServiceUS: nowUS - b.FormedUS,
			LatencyUS: nowUS - req.ArriveUS,
			Err:       oc.Err,
		}
		e.completed++
		m.Counter("serve.completed").Inc()
		m.Counter("serve.rung." + oc.Rung).Inc()
		if oc.Err != nil {
			m.Counter("serve.errors").Inc()
		}
		m.Histogram("serve.latency_us").Observe(resp.LatencyUS)
		m.Histogram("serve.queue_us").Observe(resp.QueueUS)
		e.respond(req, resp)
	}
	m.Counter("serve.retries").Add(int64(out.Retries))
	m.Counter("serve.faults").Add(int64(out.Faults))
	if out.Degraded > 0 {
		m.Counter("serve.batch_failures").Inc()
	}
	e.tc.Add(trace.Span{
		Proc: "serve", Track: e.tracks[b.Worker],
		Name: fmt.Sprintf("batch %d", b.Seq), Cat: "batch",
		StartUS: b.FormedUS, DurUS: nowUS - b.FormedUS,
		Args: e.batchArgs[len(b.Reqs)],
	})
	e.inflight -= len(b.Reqs)
	e.freeW = append(e.freeW, b.Worker)
	m.Gauge("serve.inflight").Set(float64(e.inflight))
	e.poll(nowUS)
}

func (e *engine) respond(req *Request, resp Response) {
	if req.done != nil {
		req.done(resp)
	}
}

// beginDrain stops admission and flushes partial batches immediately: queued
// and in-flight requests all complete, nothing is dropped. Idempotent.
func (e *engine) beginDrain(nowUS float64) {
	if e.draining {
		return
	}
	e.draining = true
	e.tc.Metrics().Counter("serve.drain.begun").Inc()
	e.tc.Instant("serve", "lifecycle", "drain", "lifecycle", nowUS, nil)
	e.poll(nowUS)
}

// idle reports whether nothing is queued or in flight — during a drain this
// is the all-clear to shut down.
func (e *engine) idle() bool { return len(e.pending) == 0 && e.inflight == 0 }

// drainDropped is the number of requests a finished drain abandoned. The
// zero-drop contract says this is always 0; TestSustainedFaultedStreamLedger
// and the drain tests assert it.
func (e *engine) drainDropped() int {
	if !e.draining {
		return 0
	}
	return len(e.pending) + e.inflight
}
