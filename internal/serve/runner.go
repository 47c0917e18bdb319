package serve

// Batch execution with per-request degradation: the one degradation ladder
// a single device serves through. When a dynamic batch fails on the
// optimized deployment (injected device faults that survive the batch
// engine's own bounded retries), each rider is re-run alone on the
// deployment — isolating the poisoned request — and only requests that fail
// solo too degrade to the CPU reference executor, which can always serve the
// answer. Every attempt's faults and retries count, failed ones included.

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Outcome is one request's result inside a batch outcome.
type Outcome struct {
	ArgMax int
	Rung   string
	Err    error
}

// BatchOutcome is what a Runner returns for one dispatched batch.
type BatchOutcome struct {
	// Outcomes aligns 1:1 with Batch.Reqs.
	Outcomes []Outcome
	// ServiceUS is the batch's total modeled service time on the virtual
	// clock: dispatch overhead(s) plus device time plus any degraded-rung
	// cost. The wall-clock frontend ignores it (real time elapses instead).
	ServiceUS float64
	// DeviceUS is the modeled device portion (no dispatch overhead).
	DeviceUS float64
	// Retries/Faults aggregate what the batch engine absorbed over every
	// attempt, failed ones included; Degraded counts requests that left the
	// batch rung.
	Retries  int
	Faults   int
	Degraded int
}

// Runner executes formed batches. Implementations must be safe for
// concurrent Run calls (the HTTP frontend's workers run in parallel).
type Runner interface {
	Run(b *Batch) *BatchOutcome
}

// Deployment is host.Deployment; external runners (internal/fleet) build
// per-device deployments through BuildDeployment, the same path the ladder
// uses.
type Deployment = host.Deployment

// BuildDeployment builds the deployment for net on board — the pipelined
// channel design for LeNet-5, the folded single-CU design with the board's
// Table 6.7 / 6.13 tiling otherwise — and returns it with the lowered
// reference layer chain (the cpuref ground truth). It is the one place that
// decides which deployment serves a network.
func BuildDeployment(net string, board *fpga.Board) (Deployment, []*relay.Layer, error) {
	g, err := nn.ByName(net)
	if err != nil {
		return nil, nil, err
	}
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, nil, err
	}
	if net == "lenet5" {
		p, err := host.BuildPipelined(layers, host.PipeTVMAutorun, board, aoc.DefaultOptions)
		if err != nil {
			return nil, nil, err
		}
		return p, layers, nil
	}
	fcfg, err := host.FoldedConfigFor(net, board)
	if err != nil {
		return nil, nil, err
	}
	f, err := host.BuildFolded(layers, fcfg, board, aoc.DefaultOptions)
	if err != nil {
		return nil, nil, err
	}
	return f, layers, nil
}

// CPURefUS is the modeled per-image service time of the CPU reference
// executor on the lowered chain: its FLOPs at 2 GFLOP/s, never under 20 ms.
// Pricing it like a CPU rather than a constant keeps it the genuine last
// resort, slower than any board, for heavy nets too. The ladder's cpuref
// rung and the fleet's cpuref tier both charge it.
func CPURefUS(layers []*relay.Layer) float64 {
	var flops int64
	for _, l := range layers {
		flops += l.FLOPs()
	}
	return math.Max(float64(flops)/2000, 20_000)
}

// DeviceHealth is one runner- or device-level health entry reported by
// /healthz. The ladder runner reports a single entry; the fleet runner
// reports one per board plus the cpuref tier.
type DeviceHealth struct {
	Name  string `json:"name"`
	Board string `json:"board,omitempty"`
	// State is the device health state ("healthy", "suspect", "dead",
	// "recovering"); single-device runners are always "healthy" while up.
	State string `json:"state"`
	// BacklogUS is the modeled queue depth in time units: how far in the
	// future the device's next free slot is.
	BacklogUS float64 `json:"backlog_us"`
	// Served counts images this device answered; FailoversIn/Out count
	// images rerouted to / away from it.
	Served       int `json:"served"`
	FailoversIn  int `json:"failovers_in,omitempty"`
	FailoversOut int `json:"failovers_out,omitempty"`
}

// healthReporter is implemented by runners that can describe per-device
// health; /healthz includes the entries when the server's runner provides
// them.
type healthReporter interface {
	RunnerHealth() []DeviceHealth
}

// LadderRunner runs batches on a built deployment with the per-request
// degradation ladder. Safe for concurrent use.
type LadderRunner struct {
	cfg    Config
	dep    Deployment
	layers []*relay.Layer
	tc     *trace.Collector
	inLen  int
	// soloSeq decorrelates solo re-run fault seeds from the failed batch
	// attempt (transient hardware faults are time-dependent; replaying the
	// identical seed would poison the retry forever).
	soloSeq atomic.Int64
	served  atomic.Int64
}

// RunnerHealth reports the ladder's single device: always healthy while the
// process is up (device faults degrade requests, never the deployment).
func (r *LadderRunner) RunnerHealth() []DeviceHealth {
	return []DeviceHealth{{
		Name:   "ladder",
		Board:  r.cfg.Board,
		State:  "healthy",
		Served: int(r.served.Load()),
	}}
}

// NewLadderRunner builds the deployment for cfg.Net/cfg.Board (pipelined for
// LeNet-5, folded otherwise) and the reference layer chain for the cpuref
// rung.
func NewLadderRunner(cfg Config, tc *trace.Collector) (*LadderRunner, error) {
	cfg = cfg.withDefaults()
	board, err := fpga.ByName(cfg.Board)
	if err != nil {
		return nil, err
	}
	dep, layers, err := BuildDeployment(cfg.Net, board)
	if err != nil {
		return nil, err
	}
	inLen := 1
	for _, d := range layers[0].InShape {
		inLen *= d
	}
	return &LadderRunner{cfg: cfg, dep: dep, layers: layers, tc: tc, inLen: inLen}, nil
}

// Config returns the runner's effective (defaulted) configuration.
func (r *LadderRunner) Config() Config { return r.cfg }

// InShape returns the deployment's input shape (the HTTP frontend validates
// payload lengths against it).
func (r *LadderRunner) InShape() []int { return r.layers[0].InShape }

// InputLen returns the flat input element count.
func (r *LadderRunner) InputLen() int { return r.inLen }

// Reference runs the CPU reference executor on one input — the ground truth
// every rung must match.
func (r *LadderRunner) Reference(in *tensor.Tensor) (*tensor.Tensor, error) {
	return relay.Execute(r.layers, in)
}

// Run executes one batch through the ladder. The fault seed derives from the
// batch's deterministic formation sequence number, so a simulated run
// injects the same faults every time.
func (r *LadderRunner) Run(b *Batch) *BatchOutcome {
	r.served.Add(int64(len(b.Reqs)))
	out := &BatchOutcome{Outcomes: make([]Outcome, len(b.Reqs))}
	inputs := make([]*tensor.Tensor, len(b.Reqs))
	for i, req := range b.Reqs {
		inputs[i] = req.Input
	}
	res, err := r.dep.RunBatch(inputs, host.BatchOptions{
		Workers:   1,
		FaultSeed: r.cfg.FaultSeed + int64(b.Seq)*9973,
		FaultRate: r.cfg.FaultRate,
	})
	out.ServiceUS = r.cfg.DispatchUS
	out.tally(res)
	if err == nil {
		for i := range b.Reqs {
			out.Outcomes[i] = Outcome{ArgMax: res.Outputs[i].ArgMax(), Rung: RungBatch}
		}
		out.DeviceUS = res.ModeledUS
		out.ServiceUS += res.ModeledUS
		return out
	}
	// Batch rung failed: isolate the poison. Each rider re-runs alone with a
	// fresh fault seed; survivors stay on the optimized deployment.
	for i, req := range b.Reqs {
		out.Degraded++
		out.ServiceUS += r.cfg.DispatchUS
		solo, serr := r.dep.RunBatch(inputs[i:i+1], host.BatchOptions{
			Workers:   1,
			FaultSeed: r.cfg.FaultSeed + 1_000_003*(r.soloSeq.Add(1)),
			FaultRate: r.cfg.FaultRate,
		})
		out.tally(solo)
		if serr == nil {
			out.Outcomes[i] = Outcome{ArgMax: solo.Outputs[0].ArgMax(), Rung: RungSolo}
			out.DeviceUS += solo.ModeledUS
			out.ServiceUS += solo.ModeledUS
			continue
		}
		want, rerr := r.Reference(req.Input)
		if rerr != nil {
			out.Outcomes[i] = Outcome{ArgMax: -1, Rung: RungCPURef,
				Err: fmt.Errorf("serve: request %d failed every rung: %w", req.ID, rerr)}
			continue
		}
		out.Outcomes[i] = Outcome{ArgMax: want.ArgMax(), Rung: RungCPURef}
		out.ServiceUS += CPURefUS(r.layers)
	}
	return out
}

// tally adds what one RunBatch attempt absorbed to the outcome. A failed
// attempt returns its partial result with the error, so its ledger counts
// too.
func (out *BatchOutcome) tally(res *host.BatchResult) {
	if res != nil {
		out.Retries += res.Retries
		out.Faults += len(res.Faults)
	}
}
