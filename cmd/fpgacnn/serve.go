package main

// The serving surface: `fpgacnn serve` (long-running HTTP server with
// graceful drain), `fpgacnn bench-serve` (deterministic open-loop load
// benchmark on the simulated clock, writes BENCH_serve.json), and
// `fpgacnn chaos` (the serving ladder under fault injection, every answer
// checked against the CPU reference).

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"syscall"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// serveFlags registers the shared server-shape flags and returns a builder
// for the serve.Config they describe.
func serveFlags(fs *flag.FlagSet) func() serve.Config {
	net_ := fs.String("net", "lenet5", "network (see fpgacnn list)")
	board := fs.String("board", "S10SX", "target board")
	batchN := fs.Int("batch-n", 8, "dynamic batch size bound N")
	deadline := fs.Float64("deadline-us", 500, "batch formation deadline T in microseconds")
	workers := fs.Int("workers", 2, "parallel service lanes")
	tenantQ := fs.Int("tenant-queue", 64, "per-tenant bounded queue depth (shed 429 beyond)")
	maxPending := fs.Int("max-pending", 128, "global pending bound (shed 503 beyond)")
	dispatch := fs.Float64("dispatch-us", 150, "modeled host overhead per device dispatch")
	seed := fs.Int64("fault-seed", 0, "deterministic fault injector seed")
	rate := fs.Float64("fault-rate", 0, "per-probe fault probability in [0,1]")
	return func() serve.Config {
		return serve.Config{
			Net: *net_, Board: *board, BatchN: *batchN, DeadlineUS: *deadline,
			Workers: *workers, TenantQueue: *tenantQ, MaxPending: *maxPending,
			DispatchUS: *dispatch, FaultSeed: *seed, FaultRate: *rate,
		}
	}
}

// runServe is the long-running server: HTTP/JSON ingest on -addr, live
// /metrics and /trace, graceful drain on SIGTERM/SIGINT.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	fleetBoards := fs.String("fleet", "", "serve through a multi-board fleet, e.g. \"s10sx:2\" or \"a10:1,s10sx:1\" (empty = single-board ladder)")
	mkCfg := serveFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := mkCfg()
	if err := validateFaultFlags(fs, cfg.FaultRate, "fault-seed", "fault-rate"); err != nil {
		return err
	}
	s, err := newServerMaybeFleet(cfg, *fleetBoards)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	eff := s.Config()
	fmt.Printf("fpgacnn serve: %s on %s at http://%s\n", eff.Net, eff.Board, ln.Addr())
	fmt.Printf("  batching: up to %d images or %.0f us, %d workers; tenant queue %d, max pending %d\n",
		eff.BatchN, eff.DeadlineUS, eff.Workers, eff.TenantQueue, eff.MaxPending)
	fmt.Printf("  endpoints: POST /v1/infer  GET /metrics  GET /trace  GET /healthz\n")
	fmt.Printf("  SIGTERM drains gracefully (zero dropped in-flight requests)\n")
	if err := s.Serve(ctx, ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Println("fpgacnn serve: drained and stopped")
	return nil
}

// requestInput is the one deterministic request-image generator: arrival i
// carries MNIST digit i%10 for LeNet-5, a seeded random image of the input
// shape otherwise.
func requestInput(net string, shape []int) func(i int) *tensor.Tensor {
	return func(i int) *tensor.Tensor {
		if net == "lenet5" {
			return nn.Digit(i % 10)
		}
		return nn.RandomImage(uint64(i+1), shape...)
	}
}

// checkServed enforces the serving contract on one simulated stream: no
// accepted request dropped on drain, every one completed, and every answer
// equal to the CPU reference on whichever rung or device served it. Request
// IDs are assigned in arrival order (before any shed), so ID-1 is the arrival
// index and input(ID-1) the image it carried. LeNet-5's arrivals repeat ten
// digits, so ten references check every response; for other nets verifyN
// bounds how many responses are checked (< 0 checks all).
func checkServed(net string, res *serve.SimResult, input func(int) *tensor.Tensor,
	reference func(*tensor.Tensor) (*tensor.Tensor, error), verifyN int) error {
	if res.DrainDropped != 0 {
		return fmt.Errorf("drain dropped %d in-flight request(s), want 0", res.DrainDropped)
	}
	if res.Accepted != res.Completed {
		return fmt.Errorf("accepted %d != completed %d", res.Accepted, res.Completed)
	}
	wantClass := map[int]int{} // reference argmax by input key
	checked := 0
	for _, r := range res.Responses {
		if r.Err != nil {
			return fmt.Errorf("request %d failed: %v", r.ID, r.Err)
		}
		i := int(r.ID - 1)
		key := i
		if net == "lenet5" {
			key = i % 10
		} else if verifyN >= 0 && checked >= verifyN {
			continue
		}
		want, ok := wantClass[key]
		if !ok {
			ref, err := reference(input(i))
			if err != nil {
				return err
			}
			want = ref.ArgMax()
			wantClass[key] = want
		}
		if r.ArgMax != want {
			return fmt.Errorf("request %d (rung %s): argmax %d, reference says %d", r.ID, r.Rung, r.ArgMax, want)
		}
		checked++
	}
	return nil
}

// serveBenchPoint is one (batch-N, deadline-T) operating point in
// BENCH_serve.json.
type serveBenchPoint struct {
	BatchN     int     `json:"batch_n"`
	DeadlineUS float64 `json:"deadline_us"`
	loadgen.Summary
}

// serveBenchReport is the BENCH_serve.json schema. Every figure is simulated
// (virtual clock + modeled device/dispatch time), so the file is
// byte-deterministic and CI can cmp it against the checked-in copy.
type serveBenchReport struct {
	Net        string            `json:"net"`
	Board      string            `json:"board"`
	Workers    int               `json:"workers"`
	DispatchUS float64           `json:"dispatch_us"`
	Profile    loadgen.Profile   `json:"profile"`
	Points     []serveBenchPoint `json:"points"`
	// DynamicOverBatch1X compares the best dynamic point's sustained QPS to
	// batch-of-1 serving at the same worker count — the number the bench
	// gate enforces to stay > 1.
	DynamicOverBatch1X float64 `json:"dynamic_over_batch1_qps_x"`
}

// benchProfile is the standard ramp: under capacity, near capacity, then
// past saturation, so the report shows shedding and tail behavior, not just
// a happy path.
func benchProfile(seed int64) loadgen.Profile {
	return loadgen.Profile{
		Seed: seed,
		Stages: []loadgen.Stage{
			{QPS: 3000, DurUS: 80_000},
			{QPS: 7000, DurUS: 80_000},
			{QPS: 12000, DurUS: 120_000},
		},
		Tenants: []loadgen.Tenant{
			{Name: "alpha", Weight: 0.5},
			{Name: "beta", Weight: 0.3},
			{Name: "gamma", Weight: 0.2},
		},
	}
}

// runBenchServe sweeps the dynamic-batching operating points under the same
// open-loop ramp and writes BENCH_serve.json.
func runBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ContinueOnError)
	net_ := fs.String("net", "lenet5", "network (see fpgacnn list)")
	board := fs.String("board", "S10SX", "target board")
	workers := fs.Int("workers", 2, "service lanes (held equal across points)")
	seed := fs.Int64("seed", 1, "arrival process seed")
	out := fs.String("o", "BENCH_serve.json", "output path for the JSON report (\"-\" = stdout)")
	startProf := profileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()

	profile := benchProfile(*seed)
	points := []struct {
		n  int
		us float64
	}{{1, 500}, {8, 500}, {16, 1000}}

	rep := serveBenchReport{Net: *net_, Board: *board, Workers: *workers, Profile: profile}
	for _, pt := range points {
		cfg := serve.Config{
			Net: *net_, Board: *board, Workers: *workers,
			BatchN: pt.n, DeadlineUS: pt.us,
		}
		tc := trace.NewCollector()
		runner, err := serve.NewLadderRunner(cfg, tc)
		if err != nil {
			return err
		}
		if rep.DispatchUS == 0 {
			rep.DispatchUS = runner.Config().DispatchUS
		}
		arrivals := profile.Arrivals(requestInput(cfg.Net, runner.InShape()))
		res := serve.RunSim(cfg, runner, arrivals, tc)
		sum := loadgen.Summarize(profile, res, tc.Metrics())
		rep.Points = append(rep.Points, serveBenchPoint{BatchN: pt.n, DeadlineUS: pt.us, Summary: sum})
		fmt.Printf("batch_n=%-3d deadline=%-6.0fus  %s\n", pt.n, pt.us, sum)
	}
	base := rep.Points[0].SustainedQPS
	best := 0.0
	for _, p := range rep.Points[1:] {
		if p.SustainedQPS > best {
			best = p.SustainedQPS
		}
	}
	if base > 0 {
		rep.DynamicOverBatch1X = best / base
	}
	fmt.Printf("dynamic batching over batch-of-1 at %d workers: %.2fx sustained QPS\n",
		*workers, rep.DynamicOverBatch1X)

	return writeJSON(*out, rep)
}

// runChaos sends -images requests at t = 0 through the degradation ladder
// that serves traffic (serve.LadderRunner: batch, then solo, then cpuref)
// for LeNet-5 and MobileNetV1 on S10SX under deterministic fault injection,
// and fails unless checkServed holds: nothing dropped, every answer equal
// to the CPU reference. The rung, retry and fault counts are the serving
// engine's own metrics.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("fault-seed", 1, "deterministic fault injector seed")
	rate := fs.Float64("fault-rate", 0.1, "per-probe fault probability in [0,1]")
	images := fs.Int("images", 5, "requests to send per network")
	metrics := fs.Bool("metrics", false, "print each network's metrics dump")
	traceOut := fs.String("trace", "", "write a Chrome trace JSON to this path (\"-\" = stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := validateFaultFlags(fs, *rate, "fault-seed", "fault-rate"); err != nil {
		return err
	}
	if *images < 1 {
		return usagef("-images must be >= 1, got %d", *images)
	}
	// Each network runs on its own engine and clock; the exported trace keeps
	// them apart as one process group per network.
	all := trace.NewCollector()
	for _, net := range []string{"lenet5", "mobilenetv1"} {
		cfg := serve.Config{Net: net, Board: "S10SX", FaultSeed: *seed, FaultRate: *rate}
		tc := trace.NewCollector()
		runner, err := serve.NewLadderRunner(cfg, tc)
		if err != nil {
			return err
		}
		input := requestInput(net, runner.InShape())
		arrivals := make([]serve.Arrival, *images)
		for i := range arrivals {
			arrivals[i] = serve.Arrival{Tenant: "chaos", Input: input(i)}
		}
		res := serve.RunSim(cfg, runner, arrivals, tc)
		m := tc.Metrics()
		fmt.Printf("%s on %s: %d request(s) at t=0, fault seed %d, rate %g\n", net, cfg.Board, *images, *seed, *rate)
		fmt.Printf("  rungs: %s %d, %s %d, %s %d | retries %d, faults %d\n",
			serve.RungBatch, m.Counter("serve.rung."+serve.RungBatch).Value(),
			serve.RungSolo, m.Counter("serve.rung."+serve.RungSolo).Value(),
			serve.RungCPURef, m.Counter("serve.rung."+serve.RungCPURef).Value(),
			m.Counter("serve.retries").Value(), m.Counter("serve.faults").Value())
		if err := checkServed(net, res, input, runner.Reference, -1); err != nil {
			return fmt.Errorf("%s: %w", net, err)
		}
		fmt.Printf("  all %d answer(s) match the CPU reference\n", res.Completed)
		if *metrics {
			fmt.Printf("\n== metrics: %s ==\n", net)
			fmt.Print(m.DumpText())
		}
		for _, sp := range tc.Spans() {
			sp.Proc = net + " " + sp.Proc
			all.Add(sp)
		}
	}
	return finishObservability(all, *traceOut, false)
}
