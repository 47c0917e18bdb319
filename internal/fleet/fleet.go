// Package fleet turns the single-device serving stack into a fault-tolerant
// multi-board cluster: N simulated devices of mixed board types (the three
// evaluation platforms of the thesis) plus the cpuref tier, each wrapped in
// a health-monitored Device, under a scheduler that routes dynamic batches
// by network affinity, modeled queue depth and SLA pressure.
//
// The fleet implements serve.Runner, so both serve frontends (the
// deterministic discrete-event simulation and the wall-clock HTTP server)
// drive it unchanged. Three properties are load-bearing:
//
//   - Health is a watchdog state machine per device — healthy → suspect →
//     dead → recovering — driven by simulated time (missed heartbeats) and
//     dispatch evidence (failed or wedged enqueues), fed by the scheduled
//     board-level fault class in internal/fault (device loss, sticky
//     enqueue, brownout).
//   - Failover is zero-drop: when a board dies mid-service, every in-flight
//     image is requeued onto surviving boards — or the cpuref tier as last
//     resort, which never fails — and the ledger attributes each rerouted
//     image to its cause. `drain_dropped == failover_dropped == 0` is the
//     contract chaos tests assert.
//   - Throughput composes two parallelism shapes: data-parallel replication
//     (identical deployments on several boards) and pipeline-parallel
//     sharding (a folded ResNet split at a cut layer across two boards,
//     each half its own deployment).
//
// Everything is deterministic on the virtual clock: routing ties break by
// device name, fault schedules are explicit timestamps, and per-dispatch
// fault seeds derive from a global dispatch sequence.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// State is one device's health state.
type State int

const (
	// Healthy: heartbeats on time, dispatches succeeding; fully routable.
	Healthy State = iota
	// Suspect: missed heartbeats or failed dispatches below the dead
	// threshold; still routable but penalized by one SLA in the score.
	Suspect
	// Dead: the watchdog gave up; never routed, in-flight work requeued.
	Dead
	// Recovering: the board came back and is reprogramming; not yet
	// routable.
	Recovering
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Recovering:
		return "recovering"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// BoardSpec is one entry of a fleet's board mix.
type BoardSpec struct {
	Board string `json:"board"`
	Count int    `json:"count"`
}

// ParseBoards parses the -boards flag syntax "a10:2,s10sx:1" (case
// insensitive board names, count defaults to 1).
func ParseBoards(spec string) ([]BoardSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fleet: empty board spec")
	}
	var out []BoardSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, ":")
		b, err := fpga.ByName(strings.ToUpper(strings.TrimSpace(name)))
		if err != nil {
			return nil, fmt.Errorf("fleet: board spec %q: %w", part, err)
		}
		count := 1
		if hasCount {
			count, err = strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || count < 1 {
				return nil, fmt.Errorf("fleet: board spec %q: count must be a positive integer", part)
			}
		}
		out = append(out, BoardSpec{Board: b.Name, Count: count})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty board spec")
	}
	return out, nil
}

// Config parameterizes a fleet. The zero value is not usable; New applies
// defaults to unset tuning knobs.
type Config struct {
	// Net selects the model every FPGA device deploys; cpuref always serves
	// it too (network affinity is uniform within one fleet — the scheduler's
	// affinity term reduces to per-board service estimates).
	Net string
	// Boards is the device mix, expanded in order into devices named
	// <board>-<i> (lowercase).
	Boards []BoardSpec
	// Shard folds the first two FPGA devices into one pipeline-parallel
	// device: the net is split at the FLOP-balanced cut layer and each half
	// deployed on its board.
	Shard bool

	// Faults is the scheduled board-level chaos plan.
	Faults []fault.BoardFault
	// FaultSeed/FaultRate inject image-level device faults into every FPGA
	// dispatch (as in serve).
	FaultSeed int64
	FaultRate float64

	// SLAUS is the latency target: Suspect devices are penalized by one SLA
	// in the routing score, and completions past it count as SLA misses.
	SLAUS float64
	// DispatchUS is the modeled host overhead per dispatch.
	DispatchUS float64
}

// The health watchdog's timing. A device is Suspect after suspectBeats
// missed heartbeats of heartbeatUS, Dead after deadBeats; a revived board
// stays Recovering (unroutable) for recoverUS while it reprograms.
// stickyRetryUS is the time burned discovering one sticky-enqueue failure
// (bounded host-side retries).
const (
	heartbeatUS   = 2000
	suspectBeats  = 2
	deadBeats     = 5
	recoverUS     = 50_000
	stickyRetryUS = 200
)

func (c Config) withDefaults() Config {
	if c.Net == "" {
		c.Net = "lenet5"
	}
	if c.SLAUS <= 0 {
		c.SLAUS = 25_000
	}
	if c.DispatchUS <= 0 {
		c.DispatchUS = 150
	}
	return c
}

// Failover is one ledger entry: one image rerouted off a failed device.
type Failover struct {
	ReqID int64   `json:"req_id"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	Cause string  `json:"cause"`
	AtUS  float64 `json:"at_us"`
}

// Fleet is the scheduler over the device pool. It implements serve.Runner
// (and serve.FrontendRunner and the server's health interface); safe for concurrent Run
// calls — one mutex serializes scheduling state, which is exact on the
// simulated clock and conservative on the wall clock.
type Fleet struct {
	cfg    Config
	tc     *trace.Collector
	layers []*relay.Layer // full reference chain (cpuref ground truth)
	inLen  int

	mu          sync.Mutex
	devs        []*device
	nowUS       float64 // watermark: latest time health has advanced to
	dispatchSeq int64
	ledger      []Failover
	dropped     int
	slaMisses   int
}

// New builds the fleet: one deployment per device slot, the shard composite
// when requested, and the cpuref tier as the always-alive floor.
func New(cfg Config, tc *trace.Collector) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if tc == nil {
		tc = trace.NewCollector()
	}
	slots, err := expandSlots(cfg.Boards)
	if err != nil {
		return nil, err
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("fleet: no boards configured")
	}
	g, err := nn.ByName(cfg.Net)
	if err != nil {
		return nil, err
	}
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, tc: tc, layers: layers, inLen: 1}
	for _, d := range layers[0].InShape {
		f.inLen *= d
	}

	if cfg.Shard {
		if len(slots) < 2 {
			return nil, fmt.Errorf("fleet: -shard needs at least two FPGA devices, have %d", len(slots))
		}
		a, b := slots[0], slots[1]
		ex, err := newShardExec(cfg, layers, a.board, b.board)
		if err != nil {
			return nil, err
		}
		f.devs = append(f.devs, &device{
			Name:       shardName(a, b),
			Board:      a.board.Name + "+" + b.board.Name,
			Components: []string{a.name, b.name},
			exec:       ex,
		})
		slots = slots[2:]
	}
	for _, s := range slots {
		dep, _, err := serve.BuildDeployment(cfg.Net, s.board)
		if err != nil {
			return nil, err
		}
		ex, err := newSimExec(dep, layers[0].InShape, cfg.FaultSeed, cfg.FaultRate)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s on %s: %w", cfg.Net, s.board.Name, err)
		}
		f.devs = append(f.devs, &device{Name: s.name, Board: s.board.Name, exec: ex})
	}
	// The cpuref tier: the routing floor that cannot die.
	f.devs = append(f.devs, &device{
		Name:  "cpuref",
		Board: "cpu",
		exec:  &refExec{layers: layers, perImageUS: serve.CPURefUS(layers)},
	})

	// Bind the chaos plan to devices and precompute time-driven transitions.
	for _, bf := range cfg.Faults {
		if err := bf.Validate(); err != nil {
			return nil, err
		}
		d := f.deviceForFault(bf.Device)
		if d == nil {
			return nil, fmt.Errorf("fleet: fault targets unknown device %q (have %s)",
				bf.Device, strings.Join(f.deviceNames(), ", "))
		}
		if d.Name == "cpuref" {
			return nil, fmt.Errorf("fleet: the cpuref tier cannot take board faults (it is the failover floor)")
		}
		d.faults = append(d.faults, bf)
	}
	for _, d := range f.devs {
		d.buildTransitions()
		f.tc.Metrics().Gauge("fleet.dev." + d.Name + ".state").Set(float64(d.state))
	}
	return f, nil
}

// deviceForFault resolves a chaos target: a device name, or a shard
// component name (killing a component kills the composite device).
func (f *Fleet) deviceForFault(name string) *device {
	for _, d := range f.devs {
		if d.Name == name {
			return d
		}
		for _, c := range d.Components {
			if c == name {
				return d
			}
		}
	}
	return nil
}

// slot is one board of the mix before anything is deployed on it.
type slot struct {
	board *fpga.Board
	name  string
}

// expandSlots expands the board mix, in order, into one slot per board,
// named <board>-<i> (lowercase; i counts per board type).
func expandSlots(specs []BoardSpec) ([]slot, error) {
	var slots []slot
	index := map[string]int{}
	for _, spec := range specs {
		b, err := fpga.ByName(spec.Board)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.Count; i++ {
			slots = append(slots, slot{board: b, name: fmt.Sprintf("%s-%d", strings.ToLower(b.Name), index[b.Name])})
			index[b.Name]++
		}
	}
	return slots, nil
}

// shardName names the pipeline composite over two slots.
func shardName(a, b slot) string { return "shard-" + a.name + "+" + b.name }

// ExpandDeviceNames computes the device names a Config would produce
// without building any deployment — the CLI validates chaos targets against
// this before paying for construction. Shard composites list both the
// composite name and the component names (either is a valid chaos target).
func ExpandDeviceNames(cfg Config) ([]string, error) {
	slots, err := expandSlots(cfg.Boards)
	if err != nil {
		return nil, err
	}
	var names []string
	if cfg.Shard && len(slots) >= 2 {
		names = append(names, shardName(slots[0], slots[1]))
	}
	for _, s := range slots {
		names = append(names, s.name)
	}
	return append(names, "cpuref"), nil
}

// deviceNames lists the fleet's device names in routing order.
func (f *Fleet) deviceNames() []string {
	names := make([]string, len(f.devs))
	for i, d := range f.devs {
		names[i] = d.Name
	}
	return names
}

// DeviceCount returns the number of routable service lanes (FPGA devices;
// the cpuref floor is excluded — it is a fallback, not a lane).
func (f *Fleet) DeviceCount() int { return len(f.devs) - 1 }

// InShape returns the deployment input shape (serve payload validation).
func (f *Fleet) InShape() []int { return f.layers[0].InShape }

// InputLen returns the flat input element count.
func (f *Fleet) InputLen() int { return f.inLen }

// Reference runs the CPU reference chain on one input: the ground truth a
// LeNet-5 device matches bit for bit and a folded device in argmax.
func (f *Fleet) Reference(in *tensor.Tensor) (*tensor.Tensor, error) {
	return relay.Execute(f.layers, in)
}

// RunnerHealth reports the server's /healthz devices: one entry per device.
func (f *Fleet) RunnerHealth() []serve.DeviceHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]serve.DeviceHealth, len(f.devs))
	for i, d := range f.devs {
		backlog := d.exec.availableAt() - f.nowUS
		if backlog < 0 {
			backlog = 0
		}
		out[i] = serve.DeviceHealth{
			Name: d.Name, Board: d.Board, State: d.state.String(),
			BacklogUS: backlog, Served: d.served,
			FailoversIn: d.failIn, FailoversOut: d.failOut,
		}
	}
	return out
}

// DeviceReport is one device's line in a fleet run report.
type DeviceReport struct {
	Name         string `json:"name"`
	Board        string `json:"board"`
	State        string `json:"state"`
	Served       int    `json:"served"`
	FailoversIn  int    `json:"failovers_in"`
	FailoversOut int    `json:"failovers_out"`
}

// Report summarizes the fleet after a run: per-device tallies, the failover
// ledger, and the zero-drop counter the chaos gates assert on.
type Report struct {
	Devices         []DeviceReport `json:"devices"`
	Failovers       int            `json:"failovers"`
	ByCause         map[string]int `json:"failovers_by_cause,omitempty"`
	FailoverDropped int            `json:"failover_dropped"`
	SLAMisses       int            `json:"sla_misses"`
	Ledger          []Failover     `json:"ledger,omitempty"`
}

// Report snapshots the fleet's post-run state.
func (f *Fleet) Report() Report {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := Report{FailoverDropped: f.dropped, Failovers: len(f.ledger), SLAMisses: f.slaMisses}
	for _, d := range f.devs {
		rep.Devices = append(rep.Devices, DeviceReport{
			Name: d.Name, Board: d.Board, State: d.state.String(),
			Served: d.served, FailoversIn: d.failIn, FailoversOut: d.failOut,
		})
	}
	if len(f.ledger) > 0 {
		rep.ByCause = map[string]int{}
		for _, fo := range f.ledger {
			rep.ByCause[fo.Cause]++
		}
		rep.Ledger = append(rep.Ledger, f.ledger...)
	}
	return rep
}

// advanceAll processes time-driven health transitions up to t on every
// device. Monotonic: earlier timestamps are no-ops.
func (f *Fleet) advanceAll(t float64) {
	if t <= f.nowUS {
		return
	}
	f.nowUS = t
	for _, d := range f.devs {
		d.advanceTo(f, t)
	}
}

// route picks the device with the earliest estimated completion for n
// images ready at t: max(ready, device free) + dispatch + n * service
// estimate, plus one SLA of penalty for suspect devices. Dead and
// recovering devices (and the exclude set) are skipped; ties break by
// routing order (device construction order), which makes routing fully
// deterministic.
func (f *Fleet) route(t float64, n int, exclude map[string]bool) *device {
	var best *device
	bestScore := math.Inf(1)
	for _, d := range f.devs {
		if exclude[d.Name] || d.state == Dead || d.state == Recovering {
			continue
		}
		start := math.Max(t, d.exec.availableAt()) + f.cfg.DispatchUS
		score := start + float64(n)*d.exec.estUS()
		if d.state == Suspect {
			score += f.cfg.SLAUS
		}
		if score < bestScore {
			best, bestScore = d, score
		}
	}
	return best
}

// sortedCauses returns the ledger's distinct causes (deterministic order,
// for rendering).
func (r Report) sortedCauses() []string {
	out := make([]string, 0, len(r.ByCause))
	for c := range r.ByCause {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// String renders a terminal summary of the report.
func (r Report) String() string {
	var sb strings.Builder
	for _, d := range r.Devices {
		fmt.Fprintf(&sb, "  %-22s %-10s %-10s served %-6d failover in %d out %d\n",
			d.Name, d.Board, d.State, d.Served, d.FailoversIn, d.FailoversOut)
	}
	fmt.Fprintf(&sb, "  failovers %d dropped %d sla_misses %d", r.Failovers, r.FailoverDropped, r.SLAMisses)
	for _, c := range r.sortedCauses() {
		fmt.Fprintf(&sb, " %s=%d", c, r.ByCause[c])
	}
	sb.WriteByte('\n')
	return sb.String()
}
