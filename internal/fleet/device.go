package fleet

// Device wraps one execution resource with the heartbeat/watchdog health
// state machine. Two evidence streams drive it: simulated time (a device
// loss is noticed when heartbeats stop — Suspect after SuspectBeats missed
// beats, Dead after DeadBeats) and dispatch outcomes (a sticky-enqueue
// window is invisible to heartbeats; consecutive dispatch failures escalate
// the same way). Time-driven transitions are precomputed from the fault
// schedule; dispatch-driven ones are applied at discovery and schedule
// their own recovery. All transitions emit trace instants and update the
// per-device state gauge, so a chaos run's timeline is fully inspectable.

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// transition is one scheduled health-state change.
type transition struct {
	atUS  float64
	to    State
	cause string
}

// Device is one health-monitored execution resource in the fleet.
type Device struct {
	Name  string
	Board string
	// Components lists sub-resources chaos flags can target (the shard
	// composite exposes its two stage device names here).
	Components []string

	exec executor

	state      State
	stateSince float64
	consecFail int
	served     int
	failIn     int
	failOut    int

	faults []fault.BoardFault
	// trans is the precomputed time-driven transition schedule; ti the next
	// unapplied index. dyn holds dispatch-scheduled recovery transitions.
	trans []transition
	ti    int
	dyn   []transition
}

// buildTransitions precomputes the time-driven part of the state machine
// from the device's fault schedule.
func (d *Device) buildTransitions(cfg Config) {
	hb := cfg.HeartbeatUS
	for _, bf := range d.faults {
		switch bf.Kind {
		case fault.DeviceLoss:
			d.trans = append(d.trans,
				transition{atUS: bf.AtUS + float64(cfg.SuspectBeats)*hb, to: Suspect, cause: "device-loss"},
				transition{atUS: bf.AtUS + float64(cfg.DeadBeats)*hb, to: Dead, cause: "device-loss"},
			)
			if !bf.Permanent() {
				d.trans = append(d.trans,
					transition{atUS: bf.EndUS(), to: Recovering, cause: "revive"},
					transition{atUS: bf.EndUS() + cfg.RecoverUS, to: Healthy, cause: "recovered"},
				)
			}
		case fault.Brownout:
			// A slow board's late heartbeats mark it suspect one beat in.
			d.trans = append(d.trans,
				transition{atUS: bf.AtUS + hb, to: Suspect, cause: "brownout"},
				transition{atUS: bf.EndUS(), to: Healthy, cause: "brownout-clear"},
			)
		case fault.StickyEnqueue:
			// Invisible to heartbeats: only dispatch failures reveal it (see
			// noteDispatchFailure).
		}
	}
	sort.SliceStable(d.trans, func(i, j int) bool { return d.trans[i].atUS < d.trans[j].atUS })
}

// lossCovering returns the device-loss fault whose window covers t, if any.
func (d *Device) lossCovering(t float64) (fault.BoardFault, bool) {
	for _, bf := range d.faults {
		if bf.Kind == fault.DeviceLoss && bf.AtUS <= t && t < bf.EndUS() {
			return bf, true
		}
	}
	return fault.BoardFault{}, false
}

// lossDuring returns the first device-loss fault striking inside (from, to).
func (d *Device) lossDuring(from, to float64) (fault.BoardFault, bool) {
	for _, bf := range d.faults {
		if bf.Kind == fault.DeviceLoss && bf.AtUS > from && bf.AtUS < to {
			return bf, true
		}
	}
	return fault.BoardFault{}, false
}

// stickyAt returns the sticky-enqueue fault active at t, if any.
func (d *Device) stickyAt(t float64) (fault.BoardFault, bool) {
	for _, bf := range d.faults {
		if bf.Kind == fault.StickyEnqueue && bf.AtUS <= t && t < bf.EndUS() {
			return bf, true
		}
	}
	return fault.BoardFault{}, false
}

// brownoutFactorAt returns the service-time stretch at t (1 when none).
func (d *Device) brownoutFactorAt(t float64) float64 {
	for _, bf := range d.faults {
		if bf.Kind == fault.Brownout && bf.AtUS <= t && t < bf.EndUS() {
			return bf.Factor
		}
	}
	return 1
}

// advanceTo applies every scheduled transition up to t, in time order
// across the static and dynamic schedules.
func (d *Device) advanceTo(f *Fleet, t float64) {
	for {
		var tr transition
		src := 0
		switch {
		case d.ti < len(d.trans) && (len(d.dyn) == 0 || d.trans[d.ti].atUS <= d.dyn[0].atUS):
			tr, src = d.trans[d.ti], 1
		case len(d.dyn) > 0:
			tr, src = d.dyn[0], 2
		default:
			return
		}
		if tr.atUS > t {
			return
		}
		if src == 1 {
			d.ti++
		} else {
			d.dyn = d.dyn[1:]
		}
		// Never resurrect a device inside an active loss window (a brownout
		// clearing must not revive a board that has since been lost).
		// Escalations (Suspect/Dead) still apply.
		if tr.to == Healthy || tr.to == Recovering {
			if _, lost := d.lossCovering(tr.atUS); lost {
				continue
			}
		}
		d.setState(f, tr.atUS, tr.to, tr.cause)
	}
}

// setState performs one health transition: state gauge, trace instant, and
// consecutive-failure reset on recovery. No-op when already in the target
// state.
func (d *Device) setState(f *Fleet, atUS float64, to State, cause string) {
	if d.state == to {
		return
	}
	from := d.state
	d.state = to
	d.stateSince = atUS
	if to == Healthy {
		d.consecFail = 0
	}
	// Dispatch evidence can outrun the heartbeat schedule; drop now-stale
	// scheduled transitions so a later advance cannot replay the past.
	for d.ti < len(d.trans) && d.trans[d.ti].atUS <= atUS {
		d.ti++
	}
	for len(d.dyn) > 0 && d.dyn[0].atUS <= atUS {
		d.dyn = d.dyn[1:]
	}
	m := f.tc.Metrics()
	m.Gauge("fleet.dev." + d.Name + ".state").Set(float64(to))
	m.Counter("fleet.health." + to.String()).Inc()
	f.tc.Instant("fleet", d.Name, "health:"+to.String(), "health", atUS,
		map[string]string{"from": from.String(), "cause": cause})
}

// scheduleDyn inserts a dispatch-driven recovery transition, keeping dyn
// sorted.
func (d *Device) scheduleDyn(tr transition) {
	d.dyn = append(d.dyn, tr)
	sort.SliceStable(d.dyn, func(i, j int) bool { return d.dyn[i].atUS < d.dyn[j].atUS })
}

// noteDispatchFailure escalates health on dispatch evidence: consecutive
// failures walk Healthy → Suspect → Dead at the same thresholds as missed
// heartbeats, and the window's end schedules the recovery path.
func (d *Device) noteDispatchFailure(f *Fleet, atUS float64, bf fault.BoardFault, cfg Config) {
	d.consecFail++
	switch {
	case d.consecFail >= cfg.DeadBeats && d.state != Dead:
		d.setState(f, atUS, Dead, bf.Kind.String())
		if !bf.Permanent() {
			d.scheduleDyn(transition{atUS: bf.EndUS(), to: Recovering, cause: bf.Kind.String() + "-clear"})
			d.scheduleDyn(transition{atUS: bf.EndUS() + cfg.RecoverUS, to: Healthy, cause: "recovered"})
		}
	case d.consecFail >= cfg.SuspectBeats && d.state == Healthy:
		d.setState(f, atUS, Suspect, bf.Kind.String())
		d.scheduleDyn(transition{atUS: bf.EndUS(), to: Healthy, cause: bf.Kind.String() + "-clear"})
	}
}

// execResult is one successful device service window.
type execResult struct {
	outs            []*tensor.Tensor
	startUS, endUS  float64
	retries, faults int
}

// executor is the device's execution engine. run executes inputs starting
// no earlier than readyUS (internal busy time may push the start later) and
// advances the device's modeled busy horizon; stretch inflates the service
// duration (brownout). Implementations are driven under the fleet mutex.
type executor interface {
	run(inputs []*tensor.Tensor, readyUS float64, seq int64, stretch float64) (*execResult, error)
	availableAt() float64
	estUS() float64
}

// simExec executes batches through the full batch engine (host.RunBatch):
// real functional simulation, image-level fault injection, modeled device
// time. Viable for LeNet-class nets; heavier nets use refExec.
type simExec struct {
	dep       serve.Deployment
	busyUntil float64
	est       float64
	faultSeed int64
	faultRate float64
}

func newSimExec(cfg Config, board *fpga.Board) (*simExec, error) {
	dep, layers, err := serve.BuildDeployment(cfg.Net, board)
	if err != nil {
		return nil, err
	}
	// Calibrate the routing estimate with one fault-free probe batch at
	// construction (zero input, deterministic): a cold device must not look
	// slower than its siblings or the scheduler never tries it.
	probe, err := dep.RunBatch([]*tensor.Tensor{tensor.New(layers[0].InShape...)}, host.BatchOptions{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("fleet: calibration probe for %s on %s: %w", cfg.Net, board.Name, err)
	}
	return &simExec{dep: dep, est: probe.ModeledUS, faultSeed: cfg.FaultSeed, faultRate: cfg.FaultRate}, nil
}

func (e *simExec) availableAt() float64 { return e.busyUntil }
func (e *simExec) estUS() float64       { return e.est }

func (e *simExec) run(inputs []*tensor.Tensor, readyUS float64, seq int64, stretch float64) (*execResult, error) {
	start := readyUS
	if e.busyUntil > start {
		start = e.busyUntil
	}
	res, err := e.dep.RunBatch(inputs, host.BatchOptions{
		Workers:   1,
		FaultSeed: e.faultSeed + seq*9973,
		FaultRate: e.faultRate,
	})
	if err != nil {
		// The failed attempt burned a slot: the device was busy while the
		// batch engine retried and gave up.
		e.busyUntil = start + e.est*float64(len(inputs))*stretch
		return nil, err
	}
	dur := res.ModeledUS * stretch
	e.busyUntil = start + dur
	// Learn the per-image service estimate from the observation (the
	// unstretched figure — routing should not assume a brownout persists).
	e.est = res.ModeledUS / float64(len(inputs))
	return &execResult{
		outs: res.Outputs, startUS: start, endUS: start + dur,
		retries: res.Retries, faults: len(res.Faults),
	}, nil
}

// refExec is the analytic executor: functional output via the CPU reference
// chain (bit-identical to ground truth by construction) and timing via a
// fixed modeled per-image cost — the folded deployment's analytic forward
// time for FPGA devices, CPURefUS for the cpuref tier. Nets whose
// functional simulation costs seconds per image serve through this.
type refExec struct {
	layers     []*relay.Layer
	perImageUS float64
	busyUntil  float64
}

// newRefExec builds the analytic executor for net on board: the deployment
// is built once for its modeled per-image time, then discarded from the
// execution path. A folded deployment reports its analytic forward time; a
// pipelined one (LeNet-5) calibrates the time with one probe batch instead —
// still deterministic, the probe input is all zeros.
func newRefExec(net string, layers []*relay.Layer, board *fpga.Board) (*refExec, error) {
	dep, _, err := serve.BuildDeployment(net, board)
	if err != nil {
		return nil, err
	}
	if f, ok := dep.(*host.Folded); ok {
		t, err := f.ForwardTimeUS()
		if err != nil {
			return nil, err
		}
		return &refExec{layers: layers, perImageUS: t}, nil
	}
	probe, err := dep.RunBatch([]*tensor.Tensor{tensor.New(layers[0].InShape...)}, host.BatchOptions{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("fleet: timing probe for %s on %s: %w", net, board.Name, err)
	}
	return &refExec{layers: layers, perImageUS: probe.ModeledUS}, nil
}

func (e *refExec) availableAt() float64 { return e.busyUntil }
func (e *refExec) estUS() float64       { return e.perImageUS }

func (e *refExec) run(inputs []*tensor.Tensor, readyUS float64, _ int64, stretch float64) (*execResult, error) {
	start := readyUS
	if e.busyUntil > start {
		start = e.busyUntil
	}
	outs := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		out, err := relay.Execute(e.layers, in)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	end := start + float64(len(inputs))*e.perImageUS*stretch
	e.busyUntil = end
	return &execResult{outs: outs, startUS: start, endUS: end}, nil
}

// dispatchOn routes one batch of images onto d at readyUS and plays the
// fault schedule against the service window. On success the execResult
// covers the whole window. On failure the returned failAt is when the host
// *notices* (sticky enqueues fail fast; a lost board wedges until the
// watchdog fires) and cause attributes it for the failover ledger.
func (f *Fleet) dispatchOn(d *Device, inputs []*tensor.Tensor, readyUS float64, seq int64) (res *execResult, failAt float64, cause string) {
	cfg := f.cfg
	enqueueAt := readyUS + cfg.DispatchUS
	if avail := d.exec.availableAt(); avail > enqueueAt {
		enqueueAt = avail
	}
	if bf, ok := d.stickyAt(enqueueAt); ok {
		// The enqueue call itself fails; bounded host-side retries burn
		// StickyRetryUS before the dispatcher gives up on this device.
		failAt = enqueueAt + cfg.StickyRetryUS
		d.noteDispatchFailure(f, failAt, bf, cfg)
		f.tc.Instant("fleet", d.Name, "dispatch-failed", "failover", failAt,
			map[string]string{"cause": bf.Kind.String(), "images": fmt.Sprint(len(inputs))})
		return nil, failAt, bf.Kind.String()
	}
	if bf, ok := d.lossCovering(enqueueAt); ok {
		// The board is already gone but undetected: the dispatch wedges and
		// only the watchdog notices — at the heartbeat deadline, or one beat
		// after the enqueue, whichever is later.
		failAt = bf.AtUS + float64(cfg.DeadBeats)*cfg.HeartbeatUS
		if min := enqueueAt + cfg.HeartbeatUS; min > failAt {
			failAt = min
		}
		d.setState(f, failAt, Dead, "device-loss")
		f.tc.Instant("fleet", d.Name, "dispatch-failed", "failover", failAt,
			map[string]string{"cause": "device-loss", "images": fmt.Sprint(len(inputs))})
		return nil, failAt, fault.DeviceLoss.String()
	}
	stretch := d.brownoutFactorAt(enqueueAt)
	r, err := d.exec.run(inputs, enqueueAt, seq, stretch)
	if err != nil {
		// Image-level device fault that survived the batch engine's own
		// retries: not a board failure, but the batch must reroute.
		failAt = d.exec.availableAt()
		f.tc.Instant("fleet", d.Name, "dispatch-failed", "failover", failAt,
			map[string]string{"cause": "device-fault", "images": fmt.Sprint(len(inputs)), "err": err.Error()})
		return nil, failAt, "device-fault"
	}
	if bf, ok := d.lossDuring(r.startUS, r.endUS); ok {
		// Killed mid-service: outputs die with the board; the watchdog
		// notices when heartbeats stop.
		failAt = bf.AtUS + float64(cfg.DeadBeats)*cfg.HeartbeatUS
		d.setState(f, failAt, Dead, "device-loss")
		f.tc.Instant("fleet", d.Name, "killed-in-flight", "failover", bf.AtUS,
			map[string]string{"images": fmt.Sprint(len(inputs)), "detected_us": fmt.Sprintf("%.0f", failAt)})
		return nil, failAt, fault.DeviceLoss.String()
	}
	d.consecFail = 0
	d.served += len(inputs)
	f.tc.Metrics().Counter("fleet.dev." + d.Name + ".served").Add(int64(len(inputs)))
	f.tc.Add(trace.Span{
		Proc: "fleet", Track: d.Name, Name: fmt.Sprintf("serve %d img", len(inputs)),
		Cat: "batch", StartUS: r.startUS, DurUS: r.endUS - r.startUS,
		Args: map[string]string{"images": fmt.Sprint(len(inputs)), "dispatch": fmt.Sprint(seq)},
	})
	return r, 0, ""
}
