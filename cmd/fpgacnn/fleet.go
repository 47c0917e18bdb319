package main

// The fleet surface: `fpgacnn fleet` replays a seeded open-loop stream
// against a multi-board fleet with scheduled chaos (board kill, sticky
// enqueue, brownout) and enforces the zero-drop + reference-match contract
// (TestChaosKillMidStreamZeroDropBitIdentical in internal/fleet holds it on
// a killed board). `fpgacnn bench-fleet` writes BENCH_fleet.json:
// single-board vs data-parallel replication (with and without a mid-stream
// kill) on LeNet-5, and single vs pipeline-sharded ResNet-18 across two
// board types. Every figure is modeled on the virtual clock, so the JSON is
// byte-deterministic and CI diffs it against the checked-in copy.

import (
	"flag"
	"fmt"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/trace"
)

// newServerMaybeFleet builds the wall-clock server: over the degradation
// ladder by default, or over a fleet when -fleet gives a board mix.
func newServerMaybeFleet(cfg serve.Config, fleetSpec string) (*serve.Server, error) {
	if fleetSpec == "" {
		return serve.NewServer(cfg, nil)
	}
	boards, err := fleet.ParseBoards(fleetSpec)
	if err != nil {
		return nil, usagef("-fleet: %v", err)
	}
	tc := trace.NewCollector()
	fl, err := fleet.New(fleet.Config{
		Net: cfg.Net, Boards: boards,
		FaultSeed: cfg.FaultSeed, FaultRate: cfg.FaultRate,
		DispatchUS: cfg.DispatchUS,
	}, tc)
	if err != nil {
		return nil, err
	}
	if cfg.Workers < fl.DeviceCount() {
		cfg.Workers = fl.DeviceCount()
	}
	return serve.NewServerWithRunner(cfg, fl, tc)
}

// fleetChaosFlags registers the scheduled board-fault knobs and returns a
// builder that validates them against the fleet's device names.
func fleetChaosFlags(fs *flag.FlagSet) func(devices []string) ([]fault.BoardFault, error) {
	killBoard := fs.String("kill-board", "", "device to kill (device loss), e.g. s10sx-0")
	killAt := fs.Float64("kill-at-us", 0, "virtual time of the kill in microseconds")
	killDur := fs.Float64("kill-dur-us", 0, "loss window length (0 = permanent)")
	stickyBoard := fs.String("sticky-board", "", "device whose enqueues fail for a window")
	stickyAt := fs.Float64("sticky-at-us", 0, "sticky-enqueue window start")
	stickyDur := fs.Float64("sticky-dur-us", 0, "sticky-enqueue window length")
	brownBoard := fs.String("brownout-board", "", "device that slows down for a window")
	brownAt := fs.Float64("brownout-at-us", 0, "brownout window start")
	brownDur := fs.Float64("brownout-dur-us", 0, "brownout window length")
	brownFactor := fs.Float64("brownout-factor", 4, "service-time stretch during the brownout (> 1)")
	return func(devices []string) ([]fault.BoardFault, error) {
		if err := validateKillFlags(*killBoard, *killAt, devices); err != nil {
			return nil, err
		}
		var out []fault.BoardFault
		if *killBoard != "" {
			out = append(out, fault.BoardFault{
				Device: *killBoard, Kind: fault.DeviceLoss, AtUS: *killAt, DurUS: *killDur,
			})
		}
		if (*stickyBoard == "") != (*stickyDur <= 0) {
			return nil, usagef("-sticky-board and -sticky-dur-us must be set together")
		}
		if *stickyBoard != "" {
			out = append(out, fault.BoardFault{
				Device: *stickyBoard, Kind: fault.StickyEnqueue, AtUS: *stickyAt, DurUS: *stickyDur,
			})
		}
		if (*brownBoard == "") != (*brownDur <= 0) {
			return nil, usagef("-brownout-board and -brownout-dur-us must be set together")
		}
		if *brownBoard != "" {
			out = append(out, fault.BoardFault{
				Device: *brownBoard, Kind: fault.Brownout, AtUS: *brownAt, DurUS: *brownDur, Factor: *brownFactor,
			})
		}
		for _, bf := range out {
			if err := bf.Validate(); err != nil {
				return nil, usagef("%v", err)
			}
		}
		return out, nil
	}
}

// runFleetStream replays one seeded profile against a fleet through
// serve.RunSim and verifies the zero-drop + reference-match contract: no
// failover drops an image, the failover ledger is well formed, and
// checkServed holds (every answer's argmax is the reference chain's).
// verifyN bounds how many responses of a non-LeNet net are checked against
// the reference, which costs a CPU forward pass per distinct input; < 0
// checks everything.
func runFleetStream(fcfg fleet.Config, scfg serve.Config, prof loadgen.Profile, verifyN int, tc *trace.Collector) (loadgen.Summary, fleet.Report, error) {
	if tc == nil {
		tc = trace.NewCollector()
	}
	fl, err := fleet.New(fcfg, tc)
	if err != nil {
		return loadgen.Summary{}, fleet.Report{}, err
	}
	if scfg.Workers <= 0 {
		scfg.Workers = fl.DeviceCount()
	}
	input := requestInput(fcfg.Net, fl.InShape())
	res := serve.RunSim(scfg, fl, prof.Arrivals(input), tc)
	sum := loadgen.Summarize(prof, res, tc.Metrics())
	rep := fl.Report()

	if rep.FailoverDropped != 0 {
		return sum, rep, fmt.Errorf("failover dropped %d image(s), want 0", rep.FailoverDropped)
	}
	for _, fo := range rep.Ledger {
		if fo.To == "" || fo.To == fo.From || fo.Cause == "" {
			return sum, rep, fmt.Errorf("malformed ledger entry %+v", fo)
		}
	}
	return sum, rep, checkServed(fcfg.Net, res, input, fl.Reference, verifyN)
}

// runFleet is the chaos-capable fleet stream command: seeded open-loop load
// against a board mix with optional scheduled faults, failing unless the
// zero-drop and reference-match contracts hold.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	net_ := fs.String("net", "lenet5", "network (see fpgacnn list)")
	boards := fs.String("boards", "s10sx:2", "board mix, e.g. a10:2,s10sx:1")
	shard := fs.Bool("shard", false, "pipeline-shard the net across the first two boards")
	qps := fs.Float64("qps", 5000, "offered load")
	dur := fs.Float64("dur-us", 60_000, "stream length in virtual microseconds")
	seed := fs.Int64("seed", 1, "arrival process seed")
	batchN := fs.Int("batch-n", 4, "dynamic batch size bound")
	deadline := fs.Float64("deadline-us", 500, "batch formation deadline")
	workers := fs.Int("workers", 0, "engine service lanes (0 = one per FPGA device)")
	slaUS := fs.Float64("sla-us", 25_000, "latency SLA for routing penalties and miss counting")
	faultSeed := fs.Int64("fault-seed", 0, "image-level fault injector seed")
	faultRate := fs.Float64("fault-rate", 0, "image-level fault probability in [0,1]")
	metrics := fs.Bool("metrics", false, "print the metrics dump after the run")
	traceOut := fs.String("trace", "", "write a Chrome trace JSON to this path (\"-\" = stdout)")
	mkFaults := fleetChaosFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := validateFaultFlags(fs, *faultRate, "fault-seed", "fault-rate"); err != nil {
		return err
	}
	specs, err := fleet.ParseBoards(*boards)
	if err != nil {
		return usagef("-boards: %v", err)
	}
	fcfg := fleet.Config{
		Net: *net_, Boards: specs, Shard: *shard,
		FaultSeed: *faultSeed, FaultRate: *faultRate, SLAUS: *slaUS,
	}
	devices, err := fleet.ExpandDeviceNames(fcfg)
	if err != nil {
		return usagef("-boards: %v", err)
	}
	faults, err := mkFaults(devices)
	if err != nil {
		return err
	}
	fcfg.Faults = faults

	scfg := serve.Config{Net: *net_, BatchN: *batchN, DeadlineUS: *deadline, Workers: *workers}
	prof := loadgen.Profile{
		Seed:    *seed,
		Stages:  []loadgen.Stage{{QPS: *qps, DurUS: *dur}},
		Tenants: []loadgen.Tenant{{Name: "alpha", Weight: 0.6}, {Name: "beta", Weight: 0.4}},
	}
	fmt.Printf("fleet: %s on [%s] at %.0f qps for %.0f us, chaos plan: %d fault(s)\n",
		*net_, *boards, *qps, *dur, len(faults))

	tc := trace.NewCollector()
	sum, rep, err := runFleetStream(fcfg, scfg, prof, 3, tc)
	if err != nil {
		fmt.Println(sum.String())
		fmt.Print(rep.String())
		return fmt.Errorf("fleet contract: %w", err)
	}
	fmt.Println(sum.String())
	fmt.Print(rep.String())
	fmt.Println("fleet: zero-drop and reference-match contracts hold")
	if *traceOut != "" || *metrics {
		return finishObservability(tc, *traceOut, *metrics)
	}
	return nil
}

// fleetBenchPoint is one fleet configuration in BENCH_fleet.json.
type fleetBenchPoint struct {
	Name   string `json:"name"`
	Net    string `json:"net"`
	Boards string `json:"boards"`
	Shard  bool   `json:"shard,omitempty"`
	Kill   string `json:"kill,omitempty"`
	loadgen.Summary
	Failovers       int `json:"failovers"`
	FailoverDropped int `json:"failover_dropped"`
	SLAMisses       int `json:"sla_misses"`
}

// fleetBenchReport is the BENCH_fleet.json schema. All figures are modeled
// on the virtual clock: byte-deterministic, CI diffs it against the
// checked-in copy and jq-gates the replication speedup and drop counters.
type fleetBenchReport struct {
	Profile loadgen.Profile   `json:"profile"`
	Points  []fleetBenchPoint `json:"points"`
	// ReplicationSpeedupX is 2-board data-parallel sustained QPS over
	// 1-board, same offered load — the bench gate keeps it >= 1.7.
	ReplicationSpeedupX float64 `json:"replication_speedup_x"`
	// ShardSpeedupX is 2-board pipeline-sharded ResNet-18 sustained QPS over
	// the same net whole on the slower board (S10MX): what pipelining buys a
	// board that is too slow to serve the net alone — the bench gate keeps
	// it >= 1.8.
	ShardSpeedupX float64 `json:"shard_speedup_x"`
}

// runBenchFleet sweeps the fleet shapes and writes BENCH_fleet.json.
func runBenchFleet(args []string) error {
	fs := flag.NewFlagSet("bench-fleet", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "arrival process seed")
	out := fs.String("o", "BENCH_fleet.json", "output path for the JSON report (\"-\" = stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// LeNet-5 saturation profile: one S10SX sustains ~5.1k img/s at batch 8,
	// so 13k offered saturates one board and two boards alike — the
	// replication ratio then measures capacity, not the arrival process.
	prof := loadgen.Profile{
		Seed:    *seed,
		Stages:  []loadgen.Stage{{QPS: 13000, DurUS: 120_000}},
		Tenants: []loadgen.Tenant{{Name: "alpha", Weight: 0.6}, {Name: "beta", Weight: 0.4}},
	}
	scfg := serve.Config{Net: "lenet5", BatchN: 8, DeadlineUS: 500, Workers: 2}
	// ResNet-18 simulates its deployed kernels at a fraction of a second of
	// wall time per image; a short stream keeps the sweep to seconds.
	resProf := loadgen.Profile{
		Seed:    *seed,
		Stages:  []loadgen.Stage{{QPS: 100, DurUS: 50_000}},
		Tenants: []loadgen.Tenant{{Name: "alpha", Weight: 1}},
	}
	resCfg := serve.Config{Net: "resnet18", BatchN: 2, DeadlineUS: 2_000, Workers: 2}

	points := []struct {
		name   string
		fcfg   fleet.Config
		scfg   serve.Config
		prof   loadgen.Profile
		kill   string
		verify int
	}{
		{
			name: "lenet5-1xS10SX",
			fcfg: fleet.Config{Net: "lenet5", Boards: []fleet.BoardSpec{{Board: "S10SX", Count: 1}}},
			scfg: scfg, prof: prof, verify: -1,
		},
		{
			name: "lenet5-2xS10SX-replicated",
			fcfg: fleet.Config{Net: "lenet5", Boards: []fleet.BoardSpec{{Board: "S10SX", Count: 2}}},
			scfg: scfg, prof: prof, verify: -1,
		},
		{
			name: "lenet5-2xS10SX-kill-midstream",
			fcfg: fleet.Config{
				Net: "lenet5", Boards: []fleet.BoardSpec{{Board: "S10SX", Count: 2}},
				Faults: []fault.BoardFault{{Device: "s10sx-0", Kind: fault.DeviceLoss, AtUS: 60_000}},
			},
			scfg: scfg, prof: prof, kill: "s10sx-0@60000us", verify: -1,
		},
		{
			name: "resnet18-1xS10MX",
			fcfg: fleet.Config{Net: "resnet18", Boards: []fleet.BoardSpec{{Board: "S10MX", Count: 1}}},
			scfg: resCfg, prof: resProf, verify: 2,
		},
		{
			name: "resnet18-S10SX+S10MX-sharded",
			fcfg: fleet.Config{Net: "resnet18", Boards: []fleet.BoardSpec{{Board: "S10SX", Count: 1}, {Board: "S10MX", Count: 1}}, Shard: true},
			scfg: resCfg, prof: resProf, verify: 2,
		},
	}

	rep := fleetBenchReport{Profile: prof}
	byName := map[string]fleetBenchPoint{}
	for _, pt := range points {
		sum, frep, err := runFleetStream(pt.fcfg, pt.scfg, pt.prof, pt.verify, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", pt.name, err)
		}
		boards := ""
		for i, b := range pt.fcfg.Boards {
			if i > 0 {
				boards += ","
			}
			boards += fmt.Sprintf("%s:%d", b.Board, b.Count)
		}
		p := fleetBenchPoint{
			Name: pt.name, Net: pt.fcfg.Net, Boards: boards, Shard: pt.fcfg.Shard,
			Kill: pt.kill, Summary: sum,
			Failovers: frep.Failovers, FailoverDropped: frep.FailoverDropped, SLAMisses: frep.SLAMisses,
		}
		rep.Points = append(rep.Points, p)
		byName[pt.name] = p
		fmt.Printf("%-32s sustained %.0f qps, failovers %d, dropped %d\n",
			pt.name, sum.SustainedQPS, frep.Failovers, frep.FailoverDropped)
	}
	if base := byName["lenet5-1xS10SX"].SustainedQPS; base > 0 {
		rep.ReplicationSpeedupX = byName["lenet5-2xS10SX-replicated"].SustainedQPS / base
	}
	if base := byName["resnet18-1xS10MX"].SustainedQPS; base > 0 {
		rep.ShardSpeedupX = byName["resnet18-S10SX+S10MX-sharded"].SustainedQPS / base
	}
	fmt.Printf("replication speedup %.2fx, shard speedup %.2fx\n",
		rep.ReplicationSpeedupX, rep.ShardSpeedupX)

	return writeJSON(*out, rep)
}
