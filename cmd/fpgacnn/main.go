// Command fpgacnn drives the reproduction: it regenerates any table or
// figure from the thesis's evaluation chapter, dumps the generated OpenCL
// for a deployment, runs the functional verification paths, and serves,
// benchmarks and explores deployments. `fpgacnn list` prints the experiment
// catalogue and every command with its arguments; the commands table below
// is the one place they are listed.
//
// The deployment a subcommand runs, dumps or reports for a network always
// comes from serve.BuildDeployment; only verify builds the other LeNet
// bitstream variants itself. Kernels execute functionally on the
// simulator's vector tier; its interpreter is the oracle the tests compare
// against.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/aoc"
	"repro/internal/bench"
	"repro/internal/clrt"
	"repro/internal/codegen"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/verify"
)

// command is one subcommand: its name, the arguments and flags it takes (a
// "\n" wraps a long synopsis), a one-line summary, and what it runs on the
// arguments after its name.
type command struct {
	name, synopsis, summary string
	run                     func(args []string) error
}

// commands is the subcommand table that dispatch, the usage text and
// `fpgacnn list` all read. It is filled in init because list's own row
// prints the usage built from it.
var commands []command

func init() {
	commands = []command{
		{"list", "", "the experiment catalogue, then this usage", runList},
		{"all", "", "run every experiment (the full evaluation, EVALUATION.txt)", runAll},
		{"codegen", "[net]", "print the generated OpenCL kernels",
			func(args []string) error { return dumpCodegen(arg(args, 0, "lenet5")) }},
		{"hostgen", "[net]", "print the generated OpenCL host program",
			func(args []string) error { return dumpHostProgram(arg(args, 0, "lenet5")) }},
		{"report", "[net] [board]", "AOC optimization, area and fit reports",
			func(args []string) error { return dumpReport(arg(args, 0, "lenet5"), arg(args, 1, "S10SX")) }},
		{"graph", "[net]", "the Relay graph and its fused layers",
			func(args []string) error { return dumpGraph(arg(args, 0, "lenet5")) }},
		{"verify", "", "static channel checks + every bitstream's output vs the reference", runVerify},
		{"run", "[-net N] [-board B] [-images N] [-batch N] [-workers K] [-serial] [-no-double-buffer]\n" +
			"[-profiling] [-metrics] [-trace F] [-cpuprofile F] [-memprofile F]",
			"timed run and its timeline (-batch N: the parallel batch engine)", runTimed},
		{"chaos", "[-fault-seed N] [-fault-rate P] [-images N] [-metrics] [-trace F]",
			"the serving ladder under fault injection, every answer checked", runChaos},
		{"dse", "[-dse-mode exhaustive|guided] [-dse-workers N] [-dse-timeout D] [-dse-max N]\n" +
			"[-dse-seed S] [-net N] [-board B] [-json F]\n" +
			"[-transfer-in F] [-transfer-out F] [-transfer-topk K] [-metrics]",
			"parallel design-space exploration (guided: learned-cost-model search)", runDSE},
		{"bench-dse", "[-dse-seed S] [-dse-workers N] [-o F]",
			"guided vs exhaustive search benchmark (BENCH_dse.json)", runBenchDSE},
		{"serve", "[-addr A] [-net N] [-board B] [-fleet MIX] [-batch-n N] [-deadline-us T]\n" +
			"[-workers K] [-tenant-queue Q] [-max-pending P] [-fault-seed S] [-fault-rate R]",
			"continuous-batching HTTP inference server", runServe},
		{"bench-serve", "[-net N] [-board B] [-workers K] [-seed S] [-o F]",
			"open-loop load benchmark over batching points (BENCH_serve.json)", runBenchServe},
		{"fleet", "[-net N] [-boards MIX] [-shard] [-qps Q] [-dur-us D] [-seed S]\n" +
			"[-kill-board DEV -kill-at-us T] [-sticky-board DEV -sticky-dur-us D]\n" +
			"[-brownout-board DEV -brownout-dur-us D -brownout-factor F] [-metrics] [-trace F]",
			"multi-board fleet stream under chaos (zero-drop gate)", runFleet},
		{"bench-fleet", "[-seed S] [-o F]",
			"1-board vs replicated vs sharded fleet benchmark (BENCH_fleet.json)", runBenchFleet},
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage())
		os.Exit(2)
	}
	err := dispatch(os.Args[1], os.Args[2:])
	if errors.Is(err, flag.ErrHelp) {
		return // the flag set already printed its defaults
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpgacnn:", err)
		// Flag/argument conflicts exit 2 (usage), runtime failures exit 1.
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// dispatch runs the named command or experiment; args are the arguments
// after its name. Any other name is a usage error.
func dispatch(name string, args []string) error {
	for _, c := range commands {
		if c.name == name {
			return c.run(args)
		}
	}
	if !slices.Contains(bench.Experiments, name) {
		return usagef("unknown command %q\n%s", name, usage())
	}
	rep, err := bench.Run(name)
	fmt.Print(rep)
	return err
}

// usage renders the commands table: printed on stderr when no command is
// given, in an unknown command's error, and on stdout by `fpgacnn list`.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: fpgacnn <command> [arguments] | fpgacnn <experiment>\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(&b, "\n  %s", c.name)
		if c.synopsis != "" {
			fmt.Fprintf(&b, " %s", strings.ReplaceAll(c.synopsis, "\n", "\n    "))
		}
		fmt.Fprintf(&b, "\n      %s", c.summary)
	}
	return b.String()
}

// arg is the i-th positional argument, or def when there are fewer.
func arg(args []string, i int, def string) string {
	if len(args) > i {
		return args[i]
	}
	return def
}

func runList([]string) error {
	fmt.Println("experiments:")
	for _, e := range bench.Experiments {
		fmt.Println("  " + e)
	}
	fmt.Println()
	fmt.Println(usage())
	return nil
}

func runAll([]string) error {
	rep, err := bench.All()
	fmt.Print(rep)
	return err
}

// printRunResult reports a timed run with the map-keyed sections (time by
// event kind, time by kernel) in sorted order, so output is deterministic.
func printRunResult(name string, r *host.RunResult) {
	fmt.Printf("%s: %d image(s), %.1f us simulated, %.1f FPS\n", name, r.Images, r.ElapsedUS, r.FPS)
	fmt.Println("  time by kind:")
	for _, k := range clrt.SortedKinds(r.Breakdown) {
		fmt.Printf("    %-10s %10.1f us\n", k, r.Breakdown[k])
	}
	fmt.Println("  time by kernel:")
	for _, k := range clrt.SortedKinds(r.PerKernelUS) {
		fmt.Printf("    %-14s %10.1f us\n", k, r.PerKernelUS[k])
	}
	fmt.Print(r.Timeline)
}

// writeChromeTrace writes the collected trace to path ("-" = stdout).
func writeChromeTrace(tc *trace.Collector, path string) error {
	if path == "-" {
		return tc.WriteChromeTrace(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tc.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON to path ("-" = stdout, "" = nowhere).
// The bytes are deterministic: encoding/json sorts map keys, and no result
// or report carries a wall-clock field.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// startProfiles starts a CPU profile and/or schedules a heap profile per the
// pprof flag values; the returned stop function must run before exit (callers
// defer it). Empty paths are no-ops.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpgacnn: memprofile:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fpgacnn: memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// profileFlags registers the -cpuprofile/-memprofile pair on a FlagSet and
// returns a starter to call after parsing; defer the stop function it
// returns. One helper instead of per-subcommand copies of the flag
// definitions and the startProfiles call.
func profileFlags(fs *flag.FlagSet) func() (func(), error) {
	cpu := fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
	mem := fs.String("memprofile", "", "write a pprof heap profile to this path")
	return func() (func(), error) { return startProfiles(*cpu, *mem) }
}

// printBatchResult summarizes one RunBatch: modeled device time, throughput,
// how much transfer time double buffering hid, and the fault ledger.
func printBatchResult(name string, r *host.BatchResult) {
	fmt.Printf("%s: batch of %d image(s) on %d worker(s), %.1f us simulated, %.1f images/s\n",
		name, r.Images, r.Workers, r.ModeledUS, r.ImagesPerSec)
	fmt.Printf("  transfer overlap: %.1f of %.1f us hidden behind kernels (ratio %.2f)\n",
		r.Overlap.HiddenUS, r.Overlap.TransferUS, r.Overlap.Ratio)
	if len(r.Faults) > 0 || r.Retries > 0 {
		fmt.Printf("  injected faults: %d, retries: %d\n", len(r.Faults), r.Retries)
		for _, bf := range r.Faults {
			fmt.Printf("  fault: image %d: %s\n", bf.Image, bf.Record)
		}
	}
}

// runTimed is the plain timed-run subcommand with optional observability:
// -metrics prints the registry dump, -trace exports a Chrome trace,
// -cpuprofile/-memprofile write pprof profiles of the host process. With
// -batch N the images go through the parallel batch engine instead of the
// per-image loop.
func runTimed(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	net := fs.String("net", "lenet5", "network (see fpgacnn list)")
	boardName := fs.String("board", "S10SX", "target board")
	images := fs.Int("images", 3, "images to classify")
	batch := fs.Int("batch", 0, "run N images through the batch engine (0 = per-image path)")
	workers := fs.Int("workers", 0, "batch worker count (0 = GOMAXPROCS)")
	serial := fs.Bool("serial", false, "single shared command queue (pipelined nets only)")
	noDB := fs.Bool("no-double-buffer", false, "ablation: depth-1 rings in the batch engine")
	profiling := fs.Bool("profiling", false, "enable the OpenCL event profiler (serializes execution)")
	metrics := fs.Bool("metrics", false, "print the metrics dump after the run")
	traceOut := fs.String("trace", "", "write a Chrome trace JSON to this path (\"-\" = stdout)")
	startProf := profileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *images < 1 {
		return usagef("-images must be >= 1, got %d", *images)
	}
	if err := validateRunShape(*batch, *workers, *serial, *noDB, *profiling); err != nil {
		return err
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()
	var tc *trace.Collector
	if *metrics || *traceOut != "" {
		tc = trace.NewCollector()
	}
	board, err := fpga.ByName(*boardName)
	if err != nil {
		return err
	}
	dep, layers, err := serve.BuildDeployment(*net, board)
	if err != nil {
		return err
	}
	if *batch > 0 {
		input := requestInput(*net, layers[0].InShape)
		inputs := make([]*tensor.Tensor, *batch)
		for i := range inputs {
			inputs[i] = input(i)
		}
		res, err := dep.RunBatch(inputs, host.BatchOptions{
			Workers: *workers, Trace: tc, NoDoubleBuffer: *noDB,
		})
		if err != nil {
			return err
		}
		printBatchResult(*net, res)
		return finishObservability(tc, *traceOut, *metrics)
	}
	var r *host.RunResult
	switch d := dep.(type) {
	case *host.Pipelined:
		r, err = d.RunTraced(*images, !*serial, *profiling, tc)
	case *host.Folded:
		if *serial {
			return usagef("-serial (single command queue) applies to pipelined deployments; %s deploys folded", *net)
		}
		r, err = d.RunTraced(*images, *profiling, tc)
	default:
		return fmt.Errorf("no timed runner for deployment %T", dep)
	}
	if err != nil {
		return err
	}
	printRunResult(*net, r)
	return finishObservability(tc, *traceOut, *metrics)
}

// finishObservability emits the optional post-run artifacts shared by the
// run paths: a Chrome trace file and/or the metrics dump.
func finishObservability(tc *trace.Collector, traceOut string, metrics bool) error {
	if traceOut != "" {
		if err := writeChromeTrace(tc, traceOut); err != nil {
			return err
		}
		if traceOut != "-" {
			fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", traceOut)
		}
	}
	if metrics {
		fmt.Println("\n== metrics ==")
		fmt.Print(tc.Metrics().DumpText())
	}
	return nil
}

// dumpCodegen prints the OpenCL program for a network's deployment: the
// pipelined LeNet kernels, or the parameterized folded kernel set.
func dumpCodegen(net string) error {
	dep, _, err := serve.BuildDeployment(net, fpga.S10SX)
	if err != nil {
		return err
	}
	fmt.Print(codegen.Program(dep.KernelSet()))
	return nil
}

// dumpHostProgram prints the generated OpenCL C++ host program (§5.2); a
// pipelined deployment gets one command queue per kernel.
func dumpHostProgram(net string) error {
	dep, _, err := serve.BuildDeployment(net, fpga.S10SX)
	if err != nil {
		return err
	}
	_, concurrent := dep.(*host.Pipelined)
	fmt.Print(codegen.HostProgram(net, dep.KernelSet(), concurrent))
	return nil
}

// dumpReport prints the AOC/Quartus-style optimization and fit reports for
// a network's deployment on a board.
func dumpReport(net, boardName string) error {
	board, err := fpga.ByName(boardName)
	if err != nil {
		return err
	}
	dep, _, err := serve.BuildDeployment(net, board)
	if err != nil {
		return err
	}
	var design *aoc.Design
	switch d := dep.(type) {
	case *host.Pipelined:
		design = d.Design
	case *host.Folded:
		design = d.Design
	}
	fmt.Print(design.DesignReport())
	fmt.Println()
	for _, m := range design.Kernels {
		fmt.Print(m.OptimizationReport())
		fmt.Print(m.AreaReport())
		fmt.Println()
	}
	return nil
}

// dumpGraph prints the Relay graph and the fused layer sequence.
func dumpGraph(net string) error {
	g, err := nn.ByName(net)
	if err != nil {
		return err
	}
	fmt.Println("== graph (pre-fusion) ==")
	fmt.Print(relay.DumpGraph(g))
	layers, err := relay.Lower(g)
	if err != nil {
		return err
	}
	fmt.Println("\n== fused layers (one kernel each) ==")
	fmt.Print(relay.DumpLayers(layers))
	return nil
}

// runVerify runs both verification paths: the static channel verifier over
// the example networks' kernel sets (the pre-compile check a real aoc flow
// would want, since a trip-count mismatch only shows up as a hang on
// hardware), then the host program's output-verification path — every LeNet
// bitstream variant executed on the vector tier, with balanced channels
// elided into buffers, against the native reference over all ten digits.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	layers, err := relay.Lower(nn.LeNet5())
	if err != nil {
		return err
	}
	fmt.Println("== static channel verification ==")
	pipes := make([]*host.Pipelined, len(host.PipeVariants))
	for i, v := range host.PipeVariants {
		p, err := host.BuildPipelined(layers, v, fpga.S10SX, aoc.DefaultOptions)
		if err != nil {
			return err
		}
		pipes[i] = p
		if err := printStaticVerdict("lenet5/"+v.String(), p.KernelSet()); err != nil {
			return err
		}
	}
	mn, _, err := serve.BuildDeployment("mobilenetv1", fpga.S10SX)
	if err != nil {
		return err
	}
	if err := printStaticVerdict("mobilenetv1/folded", mn.KernelSet()); err != nil {
		return err
	}
	fmt.Println("\n== output verification ==")
	for i, v := range host.PipeVariants {
		worst := 0.0
		for d := 0; d <= 9; d++ {
			in := nn.Digit(d)
			// Standalone path: the verify subcommand owns the machine, so the
			// golden model may fan its GEMMs out (bit-identical to serial).
			want, err := relay.ExecuteWorkers(layers, in, 0)
			if err != nil {
				return err
			}
			got, err := pipes[i].Infer(in)
			if err != nil {
				return err
			}
			if diff := tensor.MaxAbsDiff(got, want); diff > worst {
				worst = diff
			}
			if got.ArgMax() != want.ArgMax() {
				return fmt.Errorf("%s: classification mismatch on digit %d", v, d)
			}
		}
		fmt.Printf("%-12s OK  (10 digits, max |diff| = %.2e)\n", v.String(), worst)
	}
	fmt.Println(strings.Repeat("-", 44))
	fmt.Println("all bitstreams match the reference output")
	return nil
}

// printStaticVerdict runs the static channel verifier on one kernel set and
// prints a one-line verdict (plus any warnings). Errors abort verification.
func printStaticVerdict(name string, ks []*ir.Kernel) error {
	res := verify.Kernels(ks)
	for _, d := range res.Warnings() {
		fmt.Printf("%-22s warning: %s\n", name, d.Msg)
	}
	if errs := res.Errors(); len(errs) > 0 {
		for _, d := range errs {
			fmt.Printf("%-22s ERROR: %s\n", name, d.Msg)
		}
		return fmt.Errorf("%s: static channel verification failed", name)
	}
	fmt.Printf("%-22s OK  (%d kernels, %d warnings)\n", name, len(ks), len(res.Warnings()))
	return nil
}
