package main

// The two LeNet serving workloads. Both drive one real serve.Server (LeNet-5
// on S10SX, BatchN 8 / DeadlineUS 500 / Workers 2) from inside this process
// with fixed parallelism 2:
//
//   - http-lenet: closed loop, 2 keep-alive connections POST /v1/infer on a
//     loopback listener. Batches form on the 500 us deadline with 1-2 images,
//     so JSON, admission and per-image host overhead dominate.
//   - burst-lenet: open loop, one generator goroutine calls Server.Submit in
//     bursts of 8 at seeded instants. No HTTP, every batch is full; latency
//     is timed from each request's due instant.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	lenetInputs    = 64
	lenetTenants   = 3
	httpClients    = 2
	httpWarmup     = 200 // requests, a fixed count so faster code shortens set-up
	burstSize      = 8
	burstsPerS     = 20  // 160 images/s: 35-60 % of what two workers sustain as this box drifts
	burstWarmup    = 25  // bursts
	burstGoodMS    = 100 // an answer later than this after its due instant is not counted
	lenetReps      = 5
	lateDisturbMS  = 100 // a repetition whose generator ran later than this is disturbed
	residualLimit  = 0.05
	ladderP90MS    = 100
	ladderDurShare = 0.13 // of -seconds, per ladder rate
)

var ladderRates = []float64{120, 240, 360} // images/s

var lenetCfg = serve.Config{Net: "lenet5", Board: "S10SX", BatchN: 8, DeadlineUS: 500, Workers: 2}

// lenetEnv is one started server plus the generated inputs.
type lenetEnv struct {
	http    bool
	srv     *serve.Server
	wrap    *tracedRunner // nil in the end-to-end pass
	inputs  []*tensor.Tensor
	want    []int    // oracle argmax per input, filled by oracle()
	bodies  [][]byte // JSON payload per input*lenetTenants+tenant
	tenants []string

	url     string
	stop    context.CancelFunc
	served  chan error
	clients []*http.Client

	refMSPerImage float64
	// pending holds the measured repetitions until the oracle has run: the
	// oracle is the benchmark's own work, so it comes after the measured
	// window and after peak RSS is read.
	pending []lenetRep
}

type lenetRep struct {
	w window
	l repLog
}

// setupLenet builds the server, generates the inputs and runs the fixed-count
// warm-up. Everything it does is set-up time.
func setupLenet(rc *runCtx, overHTTP bool) (*lenetEnv, error) {
	e := &lenetEnv{http: overHTTP}
	for t := 0; t < lenetTenants; t++ {
		e.tenants = append(e.tenants, fmt.Sprintf("tenant-%d", t))
	}
	for i := 0; i < lenetInputs; i++ {
		e.inputs = append(e.inputs, nn.NoisyDigit(i%10, uint64(rc.seed)*1000+uint64(i), 0.3))
	}
	var err error
	if rc.rec != nil {
		inner, err := serve.NewLadderRunner(lenetCfg, nil)
		if err != nil {
			return nil, err
		}
		e.wrap = &tracedRunner{inner: inner, rec: rc.rec, runs: map[int64]runInfo{}}
		e.srv, err = serve.NewServerWithRunner(lenetCfg, e.wrap, nil)
		if err != nil {
			return nil, err
		}
	} else if e.srv, err = serve.NewServer(lenetCfg, nil); err != nil {
		return nil, err
	}
	if overHTTP {
		for _, in := range e.inputs {
			for _, tn := range e.tenants {
				body, err := json.Marshal(map[string]any{"tenant": tn, "image": in.Data})
				if err != nil {
					return nil, err
				}
				e.bodies = append(e.bodies, body)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.url = "http://" + ln.Addr().String() + "/v1/infer"
		ctx, cancel := context.WithCancel(context.Background())
		e.stop, e.served = cancel, make(chan error, 1)
		go func() { e.served <- e.srv.Serve(ctx, ln) }()
		for c := 0; c < httpClients; c++ {
			e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
		}
		e.httpRep(newRand(rc.seed, 100), 0, httpWarmup/httpClients)
	} else {
		e.burstRep(newRand(rc.seed, 100), burstsPerS, burstWarmup*time.Second/burstsPerS)
	}
	return e, nil
}

// close drains the server (zero-drop) and stops the listener.
func (e *lenetEnv) close() error {
	if e.http {
		e.stop()
		err := <-e.served
		for _, c := range e.clients {
			c.CloseIdleConnections()
		}
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Drain(ctx)
}

// oracle computes the reference answer of every distinct input with
// relay.Execute on an independently lowered LeNet-5.
func (e *lenetEnv) oracle(*runCtx) error {
	layers, err := lower("lenet5")
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, in := range e.inputs {
		out, err := relay.Execute(layers, in)
		if err != nil {
			return err
		}
		e.want = append(e.want, out.ArgMax())
	}
	e.refMSPerImage = time.Since(t0).Seconds() * 1e3 / float64(len(e.inputs))
	return nil
}

// reqSample is one request as the load generator saw it.
type reqSample struct {
	input      int
	start, end time.Time // send -> reply (http) or due instant -> waiter woken (burst)
	arrive     time.Time // burst: when Submit was called
	id         int64
	queueUS    float64
	latencyUS  float64
	answered   bool // got a 200 / a Response without error
	shed       bool
	argmax     int
}

type repLog struct {
	samples []reqSample
	lateMS  []float64 // burst: how late each burst fired
	elapsed time.Duration
}

type inferReply struct {
	ID        int64   `json:"id"`
	ArgMax    int     `json:"argmax"`
	QueueUS   float64 `json:"queue_us"`
	LatencyUS float64 `json:"latency_us"`
}

// httpRep runs the closed-loop clients for dur, or for exactly perClient
// requests each when perClient > 0 (the warm-up).
func (e *lenetEnv) httpRep(rng *splitmix, dur time.Duration, perClient int) repLog {
	var (
		wg   sync.WaitGroup
		logs = make([][]reqSample, len(e.clients))
	)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c, cl := range e.clients {
		crng := newRand(int64(rng.next()>>1), uint64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if perClient > 0 && n >= perClient {
					return // the warm-up's fixed count
				}
				if perClient == 0 && !time.Now().Before(deadline) {
					return
				}
				idx, tn := crng.intn(lenetInputs), crng.intn(lenetTenants)
				s := reqSample{input: idx, start: time.Now()}
				resp, err := cl.Post(e.url, "application/json", bytes.NewReader(e.bodies[idx*lenetTenants+tn]))
				if err == nil {
					var rep inferReply
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					s.end = time.Now()
					s.shed = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
					if rerr == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(body, &rep) == nil {
						s.answered, s.id, s.argmax = true, rep.ID, rep.ArgMax
						s.queueUS, s.latencyUS = rep.QueueUS, rep.LatencyUS
					}
				} else {
					s.end = time.Now()
				}
				logs[c] = append(logs[c], s)
			}
		}()
	}
	wg.Wait()
	out := repLog{elapsed: time.Since(t0)}
	for _, l := range logs {
		out.samples = append(out.samples, l...)
	}
	return out
}

// burstSchedule returns the due instants of the bursts in one repetition: a
// fixed number (rate x dur), one per period, each jittered uniformly within
// its period by the seeded generator. The count is fixed and the gaps range
// from 0 to 2 periods, so the offered load is the same for every seed; a
// Poisson draw over a 2 s repetition moves the burst count alone by +-16 %,
// more than any bound this benchmark could then hold.
func burstSchedule(rng *splitmix, rate float64, dur time.Duration) []time.Duration {
	period := time.Duration(float64(time.Second) / rate)
	due := make([]time.Duration, int(dur/period))
	for k := range due {
		u := float64(rng.next()>>11) / float64(1<<53)
		due[k] = time.Duration((float64(k) + u) * float64(period))
	}
	return due
}

// burstRep fires bursts of 8 Submit calls at the scheduled instants (open
// loop: the schedule never waits for answers) and then waits for every
// outstanding answer.
func (e *lenetEnv) burstRep(rng *splitmix, rate float64, dur time.Duration) repLog {
	schedule := burstSchedule(rng, rate, dur)
	samples := make([]reqSample, len(schedule)*burstSize)
	out := repLog{}
	var wg sync.WaitGroup
	t0 := time.Now()
	for b, at := range schedule {
		due := t0.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out.lateMS = append(out.lateMS, time.Since(due).Seconds()*1e3)
		for j := 0; j < burstSize; j++ {
			s := &samples[b*burstSize+j]
			s.input, s.start = rng.intn(lenetInputs), due
			req := &serve.Request{Tenant: e.tenants[rng.intn(lenetTenants)], Input: e.inputs[s.input]}
			s.arrive = time.Now()
			ch, reason := e.srv.Submit(req)
			if reason != serve.ShedNone {
				s.shed, s.end = true, time.Now()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := <-ch
				s.end = time.Now()
				s.id, s.queueUS, s.latencyUS, s.argmax = r.ID, r.QueueUS, r.LatencyUS, r.ArgMax
				s.answered = r.Err == nil
			}()
		}
	}
	wg.Wait()
	out.elapsed = max(time.Since(t0), dur)
	out.samples = samples
	return out
}

// scoreRep turns a repetition into its operation counts and latencies. An
// operation is a correct answer (burst: one that also arrived within 100 ms
// of its due instant); everything else that was attempted failed or, for a
// late burst answer, just does not count towards throughput.
func (e *lenetEnv) scoreRep(l repLog) (ops, failed int, latMS []float64) {
	for _, s := range l.samples {
		ms := s.end.Sub(s.start).Seconds() * 1e3
		if !s.answered || s.argmax != e.want[s.input] {
			failed++
			continue
		}
		latMS = append(latMS, ms)
		if e.http || ms <= burstGoodMS {
			ops++
		}
	}
	return ops, failed, latMS
}

func (e *lenetEnv) rep(rc *runCtx, i int, dur time.Duration) repLog {
	rng := newRand(rc.seed, uint64(200+i))
	if e.http {
		return e.httpRep(rng, dur, 0)
	}
	return e.burstRep(rng, burstsPerS, dur)
}

// measure runs lenetReps equal repetitions.
func (e *lenetEnv) measure(rc *runCtx) error {
	n := lenetReps
	if rc.reps > 0 {
		n = rc.reps
	}
	dur := time.Duration(rc.seconds / float64(n) * float64(time.Second))
	for i := 0; i < n; i++ {
		u := snapshot()
		l := e.rep(rc, i, dur)
		w := since(u)
		w.wallS = l.elapsed.Seconds()
		e.pending = append(e.pending, lenetRep{w, l})
	}
	return nil
}

// score checks the measured repetitions against the oracle and records them.
func (e *lenetEnv) score(rc *runCtx) {
	for i, p := range e.pending {
		ops, failed, lat := e.scoreRep(p.l)
		rc.addRep(p.w, ops, len(p.l.samples), failed, lat)
		if late := percentile(p.l.lateMS, 1); late > lateDisturbMS {
			rc.notef("repetition %d disturbed: generator ran %.1f ms late", i, late)
		}
	}
	e.pending = nil
}

// runInfo is the batch execution a request rode in, as the traced runner
// saw it.
type runInfo struct {
	start, end time.Time
	span       int
	size       int
}

// tracedRunner wraps the ladder runner in the traced pass and records a span
// around every Run, keyed by the request ids in the batch.
type tracedRunner struct {
	inner *serve.LadderRunner
	rec   *recorder
	// on is false during the traced pass's untraced baseline: Run then only
	// delegates.
	on atomic.Bool

	mu      sync.Mutex
	runs    map[int64]runInfo
	batches []runInfo
}

func (t *tracedRunner) InShape() []int { return t.inner.InShape() }
func (t *tracedRunner) InputLen() int  { return t.inner.InputLen() }

func (t *tracedRunner) Run(b *serve.Batch) *serve.BatchOutcome {
	if !t.on.Load() {
		return t.inner.Run(b)
	}
	start := time.Now()
	out := t.inner.Run(b)
	end := time.Now()
	info := runInfo{start: start, end: end, size: len(b.Reqs)}
	info.span = t.rec.add("batch", 0, 0, int64(1_000_000+b.Worker), start, end)
	t.mu.Lock()
	for _, r := range b.Reqs {
		t.runs[r.ID] = info
	}
	t.batches = append(t.batches, info)
	t.mu.Unlock()
	return out
}

// take returns and clears what was recorded since the last call.
func (t *tracedRunner) take() (map[int64]runInfo, []runInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	runs, batches := t.runs, t.batches
	t.runs, t.batches = map[int64]runInfo{}, nil
	return runs, batches
}

// traced is the per-layer pass: two repetitions with the runner wrapper on,
// the stage breakdown of every request, the rate ladder, then the host and
// clrt layers on a deployment of the benchmark's own (the server's is not
// exported).
func (e *lenetEnv) traced(rc *runCtx) error {
	const tracedReps = 2
	e.wrap.on.Store(true)
	dur := time.Duration(rc.seconds * 0.2 * float64(time.Second))
	var (
		httpUS, queueUS, respondUS, runUS, latMS, lateMS []float64
		sumTotal, sumResid, busy, window                 float64
		images, batches, shed, ops                       int
	)
	for i := 0; i < tracedReps; i++ {
		l := e.rep(rc, i, dur)
		runs, bs := e.wrap.take()
		window += l.elapsed.Seconds()
		o, failed, lat := e.scoreRep(l)
		ops += o
		rc.attempted, rc.failed = rc.attempted+len(l.samples), rc.failed+failed
		latMS = append(latMS, lat...)
		lateMS = append(lateMS, l.lateMS...)
		for _, b := range bs {
			d := b.end.Sub(b.start).Seconds() * 1e6
			runUS = append(runUS, d)
			busy += d / 1e6
			images += b.size
			batches++
		}
		for _, s := range l.samples {
			if s.shed {
				shed++
			}
			run, ok := runs[s.id]
			if !s.answered || !ok {
				continue
			}
			total := s.end.Sub(s.start).Seconds() * 1e6
			rUS := run.end.Sub(run.start).Seconds() * 1e6
			var ingress, respond float64
			if e.http {
				// Client total minus the server's own figure: decode,
				// validation, encode, loopback. The waiter's wake-up is not
				// visible from outside the handler, so respond is what the
				// server reports beyond queue and run.
				ingress = total - s.latencyUS
				respond = max(0, s.latencyUS-s.queueUS-rUS)
				httpUS = append(httpUS, ingress)
			} else {
				ingress = s.arrive.Sub(s.start).Seconds() * 1e6
				respond = s.end.Sub(run.end).Seconds() * 1e6
			}
			queueUS = append(queueUS, s.queueUS)
			respondUS = append(respondUS, respond)
			sumTotal += total
			sumResid += math.Abs(total - (ingress + s.queueUS + rUS + respond))

			lane := s.id
			reqSpan := rc.rec.add("request", 0, s.id, lane, s.start, s.end)
			qStart := run.start.Add(-time.Duration(s.queueUS * float64(time.Microsecond)))
			if qStart.Before(s.start) {
				qStart = s.start
			}
			name := "http"
			if !e.http {
				name = "ingress"
			}
			rc.rec.add(name, reqSpan, s.id, lane, s.start, qStart)
			rc.rec.add("queue", reqSpan, s.id, lane, qStart, run.start)
			rc.rec.add("run", run.span, s.id, lane, run.start, run.end)
			rc.rec.add("respond", reqSpan, s.id, lane, run.end, s.end)
		}
	}
	m := rc.layer
	m["serve.http_overhead_us"] = median(httpUS)
	m["serve.queue_wait_us_p50"] = percentile(queueUS, 0.5)
	m["serve.queue_wait_us_p90"] = percentile(queueUS, 0.9)
	m["serve.batches"] = float64(batches)
	if batches > 0 {
		m["serve.batch_size_mean"] = float64(images) / float64(batches)
	}
	m["serve.run_us_p50"] = percentile(runUS, 0.5)
	if images > 0 {
		m["serve.run_us_per_image"] = busy * 1e6 / float64(images)
	}
	m["serve.respond_us_p50"] = percentile(respondUS, 0.5)
	m["serve.worker_busy_share"] = busy / (float64(lenetCfg.Workers) * window)
	m["serve.shed_total"] = float64(shed)
	if sumTotal > 0 {
		m["serve.stage_residual_share"] = sumResid / sumTotal
	}
	m["serve.latency_p90_ms"] = percentile(latMS, 0.9)
	m["serve.latency_p99_ms"] = percentile(latMS, 0.99)
	m["serve.samples"] = float64(len(latMS))
	m["loadgen.late_p99_ms"] = percentile(lateMS, 0.99)
	m["loadgen.late_max_ms"] = percentile(lateMS, 1)
	m["cpuref.reference_ms_per_image"] = e.refMSPerImage
	rc.tracedOpsPerS = float64(ops) / window
	if m["serve.stage_residual_share"] > residualLimit {
		return fmt.Errorf("serve.stage_residual_share %.3f exceeds %.2f: the stages do not sum to the end-to-end latency",
			m["serve.stage_residual_share"], residualLimit)
	}

	e.wrap.on.Store(false)
	e.rateLadder(rc)

	dep, _, err := serve.BuildDeployment("lenet5", fpga.S10SX)
	if err != nil {
		return err
	}
	return hostLayer(rc, "lenet5", dep, e.inputs[:8], 0, 0)
}

// rateLadder is coarse and diagnostic: the highest of a few offered rates,
// through Submit, that keeps p90 within 100 ms of the due instant with
// nothing shed.
func (e *lenetEnv) rateLadder(rc *runCtx) {
	dur := time.Duration(rc.seconds * ladderDurShare * float64(time.Second))
	for i, rate := range ladderRates {
		l := e.burstRep(newRand(rc.seed, uint64(300+i)), rate/burstSize, dur)
		_, failed, lat := e.scoreRep(l)
		// Shedding is what the ladder probes for, not a failure of the
		// workload; only a wrong answer is.
		for _, s := range l.samples {
			if s.answered {
				rc.attempted++
				if s.argmax != e.want[s.input] {
					rc.failed++
				}
			}
		}
		if failed > 0 || percentile(lat, 0.9) > ladderP90MS {
			return
		}
		rc.layer["serve.max_rate_ok_rps"] = rate
	}
}
