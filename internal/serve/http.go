package serve

// Wall-clock frontend: the long-running process behind `fpgacnn serve`.
// HTTP/JSON ingest on /v1/infer, live observability on /metrics and /trace,
// graceful drain on SIGTERM (the cmd layer wires the signal). The engine is
// shared with the simulated frontend and serialized under one mutex; batch
// execution happens on a pool of worker goroutines, one per engine worker
// slot, so the mutex is never held across an inference.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// FrontendRunner is what the wall-clock frontend needs from a runner: batch
// execution plus the input shape for /v1/infer payload validation. The
// ladder runner and the fleet runner both satisfy it.
type FrontendRunner interface {
	Runner
	InShape() []int
	InputLen() int
}

// Server is the wall-clock continuous-batching server.
type Server struct {
	cfg    Config
	runner FrontendRunner
	tc     *trace.Collector
	start  time.Time

	mu       sync.Mutex
	eng      *engine
	timer    *time.Timer
	batchCh  chan *Batch
	chClosed bool
	wg       sync.WaitGroup

	drainOnce sync.Once
	idleOnce  sync.Once
	idleCh    chan struct{} // closed when a drain reaches the idle state
}

// NewServer builds the ladder deployment and starts the worker pool. Callers
// call Serve (or drive it through Submit) and must Drain before exit.
func NewServer(cfg Config, tc *trace.Collector) (*Server, error) {
	cfg = cfg.withDefaults()
	if tc == nil {
		tc = trace.NewCollector()
	}
	runner, err := NewLadderRunner(cfg, tc)
	if err != nil {
		return nil, err
	}
	return NewServerWithRunner(cfg, runner, tc)
}

// NewServerWithRunner starts the worker pool over a caller-built runner (the
// fleet layer injects its scheduler here).
func NewServerWithRunner(cfg Config, runner FrontendRunner, tc *trace.Collector) (*Server, error) {
	cfg = cfg.withDefaults()
	if tc == nil {
		tc = trace.NewCollector()
	}
	s := &Server{
		cfg:    cfg,
		runner: runner,
		tc:     tc,
		start:  time.Now(),
		idleCh: make(chan struct{}),
		// Capacity Workers: the engine dispatches only with a reserved
		// worker slot, so sends never block while the mutex is held.
		batchCh: make(chan *Batch, cfg.Workers),
	}
	s.eng = newEngine(cfg, tc, func(b *Batch) { s.batchCh <- b })
	s.timer = time.AfterFunc(time.Hour, s.onDeadline)
	s.timer.Stop()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(s.batchCh)
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) nowUS() float64 { return float64(time.Since(s.start)) / float64(time.Microsecond) }

// worker executes dispatched batches outside the engine lock. The channel is
// captured at spawn so the drain path never races a field read.
func (s *Server) worker(batches <-chan *Batch) {
	defer s.wg.Done()
	for b := range batches {
		out := s.runner.Run(b)
		s.mu.Lock()
		s.eng.complete(b, out, s.nowUS())
		s.rearmTimerLocked()
		s.signalIdleLocked()
		s.mu.Unlock()
	}
}

// onDeadline fires when the oldest partial batch's formation deadline
// expires.
func (s *Server) onDeadline() {
	s.mu.Lock()
	s.eng.poll(s.nowUS())
	s.rearmTimerLocked()
	s.mu.Unlock()
}

// rearmTimerLocked points the formation timer at the engine's next deadline.
func (s *Server) rearmTimerLocked() {
	s.timer.Stop()
	if at, ok := s.eng.nextDeadline(); ok {
		d := time.Duration((at - s.nowUS()) * float64(time.Microsecond))
		if d < 0 {
			d = 0
		}
		s.timer.Reset(d)
	}
}

func (s *Server) signalIdleLocked() {
	if s.eng.draining && s.eng.idle() {
		s.idleOnce.Do(func() { close(s.idleCh) })
	}
}

// Submit admits one request and returns a channel carrying its response, or
// the shed reason. Exposed for in-process callers (tests, the benchmark's
// burst workload); the HTTP handler goes through it too.
func (s *Server) Submit(req *Request) (<-chan Response, ShedReason) {
	ch := make(chan Response, 1)
	req.done = func(r Response) { ch <- r }
	s.mu.Lock()
	reason := s.eng.submit(req, s.nowUS())
	s.rearmTimerLocked()
	s.mu.Unlock()
	if reason != ShedNone {
		return nil, reason
	}
	return ch, ShedNone
}

// cancel withdraws a still-queued request (client disconnect). Returns false
// when it already dispatched — its response will still arrive.
func (s *Server) cancel(req *Request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.eng.cancel(req, s.nowUS())
	s.signalIdleLocked()
	return ok
}

// Drain stops admission, flushes partial batches, waits for in-flight work
// (bounded by ctx) and stops the worker pool. The zero-drop contract: every
// request accepted before Drain gets its response. Safe to call once;
// subsequent calls wait on the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.eng.beginDrain(s.nowUS())
		s.signalIdleLocked()
		s.mu.Unlock()
	})
	select {
	case <-s.idleCh:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d request(s) outstanding: %w",
			s.outstanding(), ctx.Err())
	}
	s.mu.Lock()
	if !s.chClosed {
		// Safe: the engine is idle and draining, so no further dispatch can
		// send; the mutex serializes this close against any late send.
		s.chClosed = true
		close(s.batchCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.tc.Metrics().Counter("serve.drain.completed").Inc()
	s.tc.Metrics().Gauge("serve.drain.dropped").Set(float64(s.outstanding()))
	return nil
}

func (s *Server) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.eng.pending) + s.eng.inflight
}

// draining reports whether the server has begun (or finished) draining.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.draining
}

// inferReply is the /v1/infer response body.
type inferReply struct {
	ID        int64   `json:"id"`
	Tenant    string  `json:"tenant"`
	ArgMax    int     `json:"argmax"`
	Rung      string  `json:"rung"`
	BatchSize int     `json:"batch_size"`
	QueueUS   float64 `json:"queue_us"`
	LatencyUS float64 `json:"latency_us"`
}

type errorReply struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// handler returns the server's HTTP mux: POST /v1/infer, GET /metrics
// (?format=json for JSON), GET /trace (Chrome trace), GET /healthz.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxInferBody caps a /v1/infer request body; a larger one is answered 413.
const maxInferBody = 8 << 20

// inferBufs recycles /v1/infer body buffers. One that grew past
// maxPooledBody (a LeNet-5 body is about 8 KiB) goes to the garbage
// collector instead, so a large body never stays pinned in the pool.
var inferBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	buf := inferBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxInferBody))
	var p inferBody
	var input *tensor.Tensor // allocated only once the body opens an image array
	if err == nil {
		p, err = parseInferBody(buf.Bytes(), func() []float32 {
			input = tensor.New(s.runner.InShape()...)
			return input.Data
		})
	}
	if buf.Cap() <= maxPooledBody {
		inferBufs.Put(buf)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorReply{
				Error:  fmt.Sprintf("request body over %d bytes", tooLarge.Limit),
				Reason: "body_too_large",
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad JSON: " + err.Error(), Reason: "bad_request"})
		return
	}
	if p.tenant == "" {
		p.tenant = "default"
	}
	switch {
	case p.hasDigit:
		if s.cfg.Net != "lenet5" {
			writeJSON(w, http.StatusBadRequest, errorReply{Error: "digit payloads are lenet5-only", Reason: "bad_request"})
			return
		}
		if p.digit < 0 || p.digit > 9 {
			writeJSON(w, http.StatusBadRequest, errorReply{Error: "digit must be 0..9", Reason: "bad_request"})
			return
		}
		input = nn.Digit(p.digit)
	case p.hasImage:
		if p.pixels != s.runner.InputLen() {
			writeJSON(w, http.StatusBadRequest, errorReply{
				Error:  fmt.Sprintf("image must have %d elements for shape %v, got %d", s.runner.InputLen(), s.runner.InShape(), p.pixels),
				Reason: "bad_request",
			})
			return
		}
	default:
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "payload needs \"digit\" or \"image\"", Reason: "bad_request"})
		return
	}

	req := &Request{Tenant: p.tenant, Input: input}
	ch, reason := s.Submit(req)
	if reason != ShedNone {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, reason.httpStatus(), errorReply{Error: reason.err().Error(), Reason: reason.String()})
		return
	}
	select {
	case resp := <-ch:
		if resp.Err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: resp.Err.Error(), Reason: "inference_failed"})
			return
		}
		writeJSON(w, http.StatusOK, inferReply{
			ID: resp.ID, Tenant: resp.Tenant, ArgMax: resp.ArgMax, Rung: resp.Rung,
			BatchSize: resp.BatchSize, QueueUS: resp.QueueUS, LatencyUS: resp.LatencyUS,
		})
	case <-r.Context().Done():
		if !s.cancel(req) {
			// Already dispatched: drain the response so done never blocks a
			// GC'd channel (buffered anyway, but keep the accounting exact).
			<-ch
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		buf, err := s.tc.Metrics().DumpJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.tc.Metrics().DumpText())
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.tc.WriteChromeTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// healthReply is the /healthz body: overall status, drain state, and one
// entry per runner device when the runner reports health (healthReporter).
type healthReply struct {
	Status      string         `json:"status"` // "ok", "degraded" or "draining"
	Draining    bool           `json:"draining"`
	Outstanding int            `json:"outstanding"`
	Runners     []DeviceHealth `json:"runners,omitempty"`
}

// health assembles the current health report (the /healthz body).
func (s *Server) health() healthReply {
	rep := healthReply{Status: "ok", Draining: s.draining(), Outstanding: s.outstanding()}
	if hr, ok := s.runner.(healthReporter); ok {
		rep.Runners = hr.RunnerHealth()
		healthy := 0
		for _, d := range rep.Runners {
			if d.State == "healthy" || d.State == "suspect" {
				healthy++
			}
		}
		if healthy < len(rep.Runners) {
			// Some device is down but the fleet still serves (cpuref is the
			// floor): degraded, not unavailable.
			rep.Status = "degraded"
		}
	}
	if rep.Draining {
		rep.Status = "draining"
	}
	return rep
}

// handleHealthz reports readiness: 200 with a JSON body while serving
// (including degraded fleets — cpuref still answers), 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rep := s.health()
	status := http.StatusOK
	if rep.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// The bounds Serve's HTTP server puts on a connection. A client that stalls
// mid-header (slow loris), trickles its body or sits idle is cut off instead
// of holding a connection forever. The write bound runs from the end of the
// headers to the end of the reply, so it must cover the longest legitimate
// request: batch formation, the queue and a cpuref answer on the largest
// net, all of which take seconds at most.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// Serve runs the HTTP server on ln until ctx is canceled, then drains
// gracefully (zero dropped in-flight requests) and shuts the listener down.
// The cmd layer passes a signal-bound context for SIGTERM/SIGINT handling.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		hs.Close()
		return err
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	return hs.Shutdown(shutCtx)
}
