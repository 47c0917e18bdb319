package serve

// Edge cases of the batcher state machine, driven clocklessly (explicit
// nowUS) so every timing corner is exact: deadline firing with a partial
// batch, fill at exactly N, cancellation mid-batch, drain with requests
// still queued, and shed typing. A stub runner with fixed service time keeps
// the tests about formation policy, not inference.

import (
	"errors"
	"testing"

	"repro/internal/trace"
)

// stubRunner completes every request on the batch rung with a fixed modeled
// service time.
type stubRunner struct{ serviceUS float64 }

func (s stubRunner) Run(b *Batch) *BatchOutcome {
	out := &BatchOutcome{ServiceUS: s.serviceUS}
	for range b.Reqs {
		out.Outcomes = append(out.Outcomes, Outcome{ArgMax: 0, Rung: RungBatch})
	}
	return out
}

// testEngine builds an engine that records dispatched batches instead of
// running them.
func testEngine(cfg Config) (*engine, *[]*Batch) {
	var got []*Batch
	eng := newEngine(cfg.withDefaults(), trace.NewCollector(), func(b *Batch) { got = append(got, b) })
	return eng, &got
}

func submitOK(t *testing.T, e *engine, tenant string, nowUS float64) *Request {
	t.Helper()
	req := &Request{Tenant: tenant}
	if reason := e.submit(req, nowUS); reason != ShedNone {
		t.Fatalf("submit at %v: shed %v, want admitted", nowUS, reason)
	}
	return req
}

// A partial batch must wait for the formation deadline of its oldest
// request, then dispatch with whatever has arrived.
func TestDeadlineFiresPartialBatch(t *testing.T) {
	eng, got := testEngine(Config{BatchN: 8, DeadlineUS: 500, Workers: 1})
	submitOK(t, eng, "a", 0)
	submitOK(t, eng, "a", 10)
	submitOK(t, eng, "b", 20)
	if len(*got) != 0 {
		t.Fatalf("batch dispatched before deadline: %d", len(*got))
	}
	at, ok := eng.nextDeadline()
	if !ok || at != 500 {
		t.Fatalf("nextDeadline = %v,%v, want 500,true", at, ok)
	}
	eng.poll(499)
	if len(*got) != 0 {
		t.Fatal("batch dispatched at 499us, before the 500us deadline")
	}
	eng.poll(500)
	if len(*got) != 1 {
		t.Fatalf("got %d batches at the deadline, want 1", len(*got))
	}
	b := (*got)[0]
	if len(b.Reqs) != 3 || b.FormedUS != 500 {
		t.Fatalf("partial batch: size %d formed %v, want 3 at 500", len(b.Reqs), b.FormedUS)
	}
}

// A batch that fills to exactly N dispatches immediately on the Nth submit,
// without waiting for the deadline; the next N queue behind the busy worker
// and dispatch when it frees.
func TestBatchFillsExactlyAtN(t *testing.T) {
	eng, got := testEngine(Config{BatchN: 4, DeadlineUS: 1e6, Workers: 1})
	for i := 0; i < 3; i++ {
		submitOK(t, eng, "a", float64(i))
	}
	if len(*got) != 0 {
		t.Fatal("dispatched below N with deadline not yet reached")
	}
	submitOK(t, eng, "a", 3)
	if len(*got) != 1 || len((*got)[0].Reqs) != 4 {
		t.Fatalf("want one full batch of 4 at the Nth submit, got %d", len(*got))
	}
	if (*got)[0].FormedUS != 3 {
		t.Fatalf("formed at %v, want 3 (the Nth arrival)", (*got)[0].FormedUS)
	}
	// Worker busy: the next four queue even though they reach N.
	for i := 0; i < 4; i++ {
		submitOK(t, eng, "a", float64(10+i))
	}
	if len(*got) != 1 {
		t.Fatalf("dispatched with no free worker: %d batches", len(*got))
	}
	eng.complete((*got)[0], stubRunner{}.Run((*got)[0]), 100)
	if len(*got) != 2 || len((*got)[1].Reqs) != 4 {
		t.Fatalf("freed worker should take the queued full batch, got %d batches", len(*got))
	}
}

// Cancellation before dispatch removes the request from the batch and
// responds errCanceled; after dispatch it is too late and the response
// arrives normally.
func TestCancelMidBatch(t *testing.T) {
	eng, got := testEngine(Config{BatchN: 4, DeadlineUS: 500, Workers: 1})
	var resps []Response
	r1 := &Request{Tenant: "a", done: func(r Response) { resps = append(resps, r) }}
	if eng.submit(r1, 0) != ShedNone {
		t.Fatal("r1 shed")
	}
	r2 := submitOK(t, eng, "a", 10)
	if !eng.cancel(r1, 100) {
		t.Fatal("cancel of a queued request returned false")
	}
	if len(resps) != 1 || !errors.Is(resps[0].Err, errCanceled) {
		t.Fatalf("canceled request response = %+v, want errCanceled", resps)
	}
	if eng.queued["a"] != 1 {
		t.Fatalf("tenant queue count = %d after cancel, want 1", eng.queued["a"])
	}
	// Deadline now keys off r2 (the new oldest), not the canceled r1.
	if at, ok := eng.nextDeadline(); !ok || at != 510 {
		t.Fatalf("nextDeadline = %v,%v, want 510,true", at, ok)
	}
	eng.poll(510)
	if len(*got) != 1 || len((*got)[0].Reqs) != 1 || (*got)[0].Reqs[0] != r2 {
		t.Fatalf("deadline batch should hold only r2, got %+v", *got)
	}
	if eng.cancel(r2, 520) {
		t.Fatal("cancel of a dispatched request returned true")
	}
}

// A cancel leaves no request pointer in the pending queue's spare capacity:
// not the canceled request, whether it was last or first, nor a duplicate of
// the one that shifted down.
func TestCancelClearsVacatedSlot(t *testing.T) {
	for _, which := range []int{0, 2} {
		eng, _ := testEngine(Config{BatchN: 8, DeadlineUS: 1e6, Workers: 1})
		reqs := []*Request{submitOK(t, eng, "a", 0), submitOK(t, eng, "a", 1), submitOK(t, eng, "a", 2)}
		if !eng.cancel(reqs[which], 3) {
			t.Fatalf("cancel of queued request %d returned false", which)
		}
		if len(eng.pending) != 2 {
			t.Fatalf("pending holds %d requests after a cancel, want 2", len(eng.pending))
		}
		for i, r := range eng.pending[len(eng.pending):cap(eng.pending)] {
			if r != nil {
				t.Errorf("cancel of request %d: pending[len+%d] still holds request %d", which, i, r.ID)
			}
		}
	}
}

// Drain with requests still queued flushes them immediately as partial
// batches; everything accepted completes and nothing is dropped.
func TestDrainWithQueuedRequests(t *testing.T) {
	eng, got := testEngine(Config{BatchN: 8, DeadlineUS: 1e6, Workers: 2})
	for i := 0; i < 3; i++ {
		submitOK(t, eng, "a", float64(i))
	}
	eng.beginDrain(50)
	if len(*got) != 1 || len((*got)[0].Reqs) != 3 {
		t.Fatalf("drain should flush one partial batch of 3, got %d", len(*got))
	}
	if eng.drainDropped() != 3 {
		t.Fatalf("drainDropped mid-flight = %d, want 3 (still in flight)", eng.drainDropped())
	}
	if reason := eng.submit(&Request{Tenant: "b"}, 60); reason != ShedDraining {
		t.Fatalf("post-drain submit: %v, want ShedDraining", reason)
	}
	eng.complete((*got)[0], stubRunner{}.Run((*got)[0]), 100)
	if !eng.idle() || eng.drainDropped() != 0 {
		t.Fatalf("after completion: idle=%v dropped=%d, want true,0", eng.idle(), eng.drainDropped())
	}
	// During a drain no formation timer is needed (everything flushes).
	if _, ok := eng.nextDeadline(); ok {
		t.Fatal("nextDeadline active while draining")
	}
}

// Shed typing: per-tenant bound trips first (429), global bound trips for
// everyone (503), draining sheds everything (503).
func TestShedTyping(t *testing.T) {
	eng, _ := testEngine(Config{BatchN: 100, DeadlineUS: 1e9, Workers: 1, TenantQueue: 2, MaxPending: 3})
	submitOK(t, eng, "a", 0)
	submitOK(t, eng, "a", 1)
	if r := eng.submit(&Request{Tenant: "a"}, 2); r != ShedTenantQueue {
		t.Fatalf("3rd a: %v, want ShedTenantQueue", r)
	}
	submitOK(t, eng, "b", 3) // other tenants unaffected by a's bound
	if r := eng.submit(&Request{Tenant: "b"}, 4); r != ShedOverload {
		t.Fatalf("4th pending: %v, want ShedOverload", r)
	}
	if ShedTenantQueue.httpStatus() != 429 {
		t.Fatalf("tenant queue shed status = %d, want 429", ShedTenantQueue.httpStatus())
	}
	if ShedOverload.httpStatus() != 503 || ShedDraining.httpStatus() != 503 {
		t.Fatal("overload/draining sheds must map to 503")
	}
	m := eng.tc.Metrics()
	if m.Counter("serve.shed.tenant_queue").Value() != 1 || m.Counter("serve.shed.overload").Value() != 1 {
		t.Fatal("shed counters not typed per reason")
	}
}

// The simulated frontend: mid-stream deadlines fire, cancellations land
// before dispatch, and the end-of-stream drain flushes the tail — with the
// zero-drop ledger holding throughout.
func TestRunSimDeadlineCancelDrain(t *testing.T) {
	cfg := Config{BatchN: 8, DeadlineUS: 500, Workers: 1}
	arrivals := []Arrival{
		{AtUS: 0, Tenant: "a", CancelAtUS: 200}, // gives up while queued
		{AtUS: 100, Tenant: "a"},
		{AtUS: 2000, Tenant: "b"}, // last arrival: drain flushes it
	}
	res := RunSim(cfg, stubRunner{serviceUS: 50}, arrivals, trace.NewCollector())
	if res.Canceled != 1 || res.Completed != 2 || res.DrainDropped != 0 {
		t.Fatalf("canceled=%d completed=%d dropped=%d, want 1,2,0",
			res.Canceled, res.Completed, res.DrainDropped)
	}
	// r2's batch forms at its own 600us deadline (r1's cancellation must not
	// leave a stale 500us deadline), completing at 650.
	r2 := res.Responses[0]
	if r2.QueueUS != 500 || r2.LatencyUS != 550 {
		t.Fatalf("r2 queue=%v latency=%v, want 500,550", r2.QueueUS, r2.LatencyUS)
	}
	if r2.BatchSize != 1 {
		t.Fatalf("r2 batch size %d, want 1 (partial deadline batch)", r2.BatchSize)
	}
	// r3 arrives last, so the drain dispatches it immediately at 2000.
	r3 := res.Responses[1]
	if r3.QueueUS != 0 || r3.LatencyUS != 50 {
		t.Fatalf("r3 queue=%v latency=%v, want 0,50 (drain flush)", r3.QueueUS, r3.LatencyUS)
	}
	if res.MakespanUS != 2050 {
		t.Fatalf("makespan %v, want 2050", res.MakespanUS)
	}
}

// Determinism: the same arrivals and config replay to identical results.
func TestRunSimDeterministic(t *testing.T) {
	cfg := Config{BatchN: 4, DeadlineUS: 300, Workers: 2}
	var arrivals []Arrival
	for i := 0; i < 40; i++ {
		arrivals = append(arrivals, Arrival{AtUS: float64(i) * 37, Tenant: "t"})
	}
	a := RunSim(cfg, stubRunner{serviceUS: 120}, arrivals, trace.NewCollector())
	b := RunSim(cfg, stubRunner{serviceUS: 120}, arrivals, trace.NewCollector())
	if a.Completed != b.Completed || a.MakespanUS != b.MakespanUS || len(a.Responses) != len(b.Responses) {
		t.Fatalf("sim not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Responses {
		if a.Responses[i].LatencyUS != b.Responses[i].LatencyUS || a.Responses[i].ID != b.Responses[i].ID {
			t.Fatalf("response %d differs across identical runs", i)
		}
	}
}
