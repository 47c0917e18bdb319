// Package serve is the continuous-batching inference server: the serving
// shape on top of the batch engine (internal/host). Traffic is an open
// stream, not a fixed offline batch, so the server forms dynamic batches —
// collect up to N images or wait T simulated microseconds, whichever first —
// and feeds them to the RunBatch worker pool, amortizing the per-dispatch
// host overhead the thesis's runtime chapter (§5.2) identifies as the
// concurrent-queue bottleneck.
//
// The package splits into three pieces:
//
//   - engine.go: the single-threaded batcher state machine — per-tenant
//     admission control over bounded queues, load shedding with typed
//     reasons, batch formation, worker accounting, graceful drain. The
//     engine owns no clock and spawns no goroutines; callers drive it with
//     explicit timestamps, which is what makes the simulated path
//     deterministic.
//   - sim.go: a discrete-event frontend over a virtual microsecond clock.
//     The load generator (loadgen subpackage) produces seeded arrival
//     streams; RunSim replays them byte-deterministically, which is how
//     BENCH_serve.json and TestSustainedFaultedStreamLedger stay
//     reproducible.
//   - http.go: the wall-clock frontend behind `fpgacnn serve` — HTTP/JSON
//     ingest, /metrics, /trace and /healthz endpoints, SIGTERM drain.
//
// Failures route through a per-request degradation ladder (runner.go): the
// optimized batch first, then a solo re-run per request, then the CPU
// reference executor — one poisoned request degrades alone instead of
// failing its batchmates or the process.
package serve

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/tensor"
)

// Rung names for per-request degradation accounting (metrics
// serve.rung.<name> and the Response.Rung field).
const (
	// RungBatch: served by the optimized deployment inside a dynamic batch.
	RungBatch = "batch"
	// RungSolo: the batch attempt failed; this request was re-run alone on
	// the optimized deployment and succeeded.
	RungSolo = "solo"
	// RungCPURef: both device attempts failed; the CPU reference executor
	// served the answer (fully degraded, never wrong).
	RungCPURef = "cpuref"
)

// ShedReason classifies why a request was refused admission.
type ShedReason int

const (
	// ShedNone: the request was accepted.
	ShedNone ShedReason = iota
	// ShedTenantQueue: the request's tenant queue is full (HTTP 429 — the
	// tenant is over its share; other tenants are unaffected).
	ShedTenantQueue
	// ShedOverload: the global pending bound is reached (HTTP 503).
	ShedOverload
	// ShedDraining: the server is draining and admits nothing new (HTTP 503).
	ShedDraining
)

func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedTenantQueue:
		return "tenant_queue"
	case ShedOverload:
		return "overload"
	case ShedDraining:
		return "draining"
	}
	return fmt.Sprintf("ShedReason(%d)", int(r))
}

// httpStatus maps the shed reason to the response status the HTTP frontend
// returns: 429 for per-tenant backpressure, 503 for global overload/drain.
func (r ShedReason) httpStatus() int {
	if r == ShedTenantQueue {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// err returns the typed sentinel for a shed reason (nil for ShedNone).
func (r ShedReason) err() error {
	switch r {
	case ShedTenantQueue:
		return errTenantQueueFull
	case ShedOverload:
		return errOverloaded
	case ShedDraining:
		return errDraining
	}
	return nil
}

// Typed admission errors; the HTTP layer maps them to 429/503 and clients
// (and tests) can errors.Is against them.
var (
	errTenantQueueFull = errors.New("serve: tenant queue full")
	errOverloaded      = errors.New("serve: server overloaded")
	errDraining        = errors.New("serve: server draining")
	// errCanceled is the response error for a request canceled while still
	// queued (client disconnect, explicit cancel event in the simulation).
	errCanceled = errors.New("serve: request canceled while queued")
)

// Config parameterizes a server. The zero value is NOT usable; call
// withDefaults (NewServer/RunSim do) or fill every field.
type Config struct {
	// Net/Board select the deployment (see fpgacnn list); LeNet-5 builds the
	// pipelined channel deployment, everything else the folded one.
	Net   string
	Board string
	// BatchN is the dynamic batch size bound: a batch dispatches as soon as
	// N requests are pending. Default 8.
	BatchN int
	// DeadlineUS is the batch-formation deadline in microseconds: a partial
	// batch dispatches once its oldest request has waited this long.
	// Default 500.
	DeadlineUS float64
	// Workers is the number of parallel service lanes (each runs RunBatch on
	// its own simulated device context). Default 2.
	Workers int
	// TenantQueue bounds each tenant's queued requests; excess is shed with
	// ShedTenantQueue (429). Default 64.
	TenantQueue int
	// MaxPending bounds the total pending queue across tenants; excess is
	// shed with ShedOverload (503). Default 128.
	MaxPending int
	// DispatchUS is the modeled host overhead per device dispatch
	// (clEnqueue/clFinish round trip, the per-invocation cost dynamic
	// batching amortizes). Default 150.
	DispatchUS float64
	// FaultSeed/FaultRate inject deterministic device faults into every
	// batch dispatch (see internal/fault). Rate 0 disables injection.
	FaultSeed int64
	FaultRate float64
}

func (c Config) withDefaults() Config {
	if c.Net == "" {
		c.Net = "lenet5"
	}
	if c.Board == "" {
		c.Board = "S10SX"
	}
	if c.BatchN <= 0 {
		c.BatchN = 8
	}
	if c.DeadlineUS <= 0 {
		c.DeadlineUS = 500
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 128
	}
	if c.DispatchUS <= 0 {
		c.DispatchUS = 150
	}
	return c
}

// Request is one inference request inside the server. The engine fills ID;
// frontends fill the rest.
type Request struct {
	ID     int64
	Tenant string
	Input  *tensor.Tensor
	// ArriveUS is the admission timestamp on the frontend's clock (virtual
	// or wall microseconds since server start).
	ArriveUS float64
	// done receives the request's response exactly once (accepted requests
	// only — shed requests never enter the engine). Must not block: the HTTP
	// frontend uses a buffered channel, the simulation appends to a slice.
	done func(Response)
}

// Response is the outcome of one accepted request.
type Response struct {
	ID     int64
	Tenant string
	// ArgMax is the predicted class.
	ArgMax int
	// Rung records which ladder rung served the request (RungBatch /
	// RungSolo / RungCPURef).
	Rung string
	// BatchSize is the size of the dynamic batch this request rode in.
	BatchSize int
	// QueueUS is time from arrival to batch formation; ServiceUS from
	// formation to completion; LatencyUS the end-to-end sum.
	QueueUS   float64
	ServiceUS float64
	LatencyUS float64
	// err is non-nil when the request failed (canceled while queued, or all
	// three ladder rungs failed).
	Err error
}

// Batch is one formed dynamic batch handed to a Runner. Seq is the
// deterministic formation sequence number (fault seeds derive from it).
type Batch struct {
	Seq      int
	Reqs     []*Request
	FormedUS float64
	Worker   int
}
