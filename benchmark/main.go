// Command benchmark is the repo's one measurement spine: five workloads from
// POST /v1/infer down to the GEMM call, on both clocks, with a separate
// per-layer traced pass. It measures every layer from outside, through the
// exported functions, and changes nothing in the program under test.
//
//	bash benchmark/run.sh                         # every workload, both passes
//	bash benchmark/run.sh -workload http-lenet    # one workload, end-to-end pass
//	bash benchmark/run.sh -workload http-lenet -trace 1 -trace-out t.json
//	bash benchmark/run.sh -aa                     # A/A self-check of the bounds
//
// See README.md beside this file for the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

var processStart = time.Now()

type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	traceOut  string
	setupOnly bool
	report    string
	// setupSamples is how many cold processes' set-up times the median is
	// taken over (this process plus re-exec'd children).
	setupSamples int
	start        time.Time
}

// runCtx carries one pass over one workload: its parameters in, its
// repetitions and layer figures out.
type runCtx struct {
	seed              int64
	seconds           float64
	reps              int       // 0 = the workload's own repetition count
	rec               *recorder // nil in the end-to-end pass
	attempted, failed int
	perRep            map[string]reps
	layer             map[string]float64
	tracedOpsPerS     float64
	notes             []string
}

func newRunCtx(o options) *runCtx {
	return &runCtx{seed: o.seed, seconds: o.seconds, perRep: map[string]reps{}, layer: map[string]float64{}}
}

func (rc *runCtx) notef(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// addRep records one repetition of the end-to-end pass.
func (rc *runCtx) addRep(w window, ops, attempted, failed int, latMS []float64) {
	rc.attempted, rc.failed = rc.attempted+attempted, rc.failed+failed
	// Costs are per correct completion; only throughput also asks that a
	// burst answer was on time, so a late answer does not inflate cost per op.
	n := float64(max(attempted-failed, 1))
	add := func(name string, v float64) { rc.perRep[name] = append(rc.perRep[name], v) }
	add("throughput_ops_s", float64(ops)/w.wallS)
	add("cpu_ms_per_op", w.cpuMS/n)
	add("allocs_per_op", w.mallocs/n)
	add("alloc_kb_per_op", w.allocKB/n)
	// One sample per repetition on batch-* and compile-dse, so there the
	// figure is the median repetition.
	add("latency_p50_ms", percentile(latMS, 0.5))
}

// workload is one started workload.
type workload interface {
	// measure runs the end-to-end repetitions and keeps their raw results.
	measure(rc *runCtx) error
	// oracle computes the reference answers. It is the benchmark's own work:
	// not part of set-up time and, in the end-to-end pass, run after the
	// measured window and after peak RSS is read.
	oracle(rc *runCtx) error
	// score checks the kept repetitions against the oracle and records them.
	score(rc *runCtx)
	traced(rc *runCtx) error
	close() error
}

// setupWorkload does everything that counts as set-up time: build the
// deployment(s), start the server, generate the inputs, run the fixed-count
// warm-up.
func setupWorkload(rc *runCtx, name string) (workload, error) {
	switch name {
	case "http-lenet":
		return setupLenet(rc, true)
	case "burst-lenet":
		return setupLenet(rc, false)
	case "batch-mobilenet":
		return setupBatch(rc, "mobilenetv1")
	case "batch-resnet18":
		return setupBatch(rc, "resnet18")
	case "compile-dse":
		return setupDSE(rc)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// netOf is the network an inference workload compiles (compile_ms).
var netOf = map[string]string{"http-lenet": "lenet5", "burst-lenet": "lenet5",
	"batch-mobilenet": "mobilenetv1", "batch-resnet18": "resnet18"}

// metricValue is one reported figure with its spread over repetitions.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one pass over one workload. Marshalled whole it is the -report
// file; line() is the driver's narrower one-line shape. Metrics holds only
// what the pass measured.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       []string               `json:"notes,omitempty"`
	Fingerprint *fingerprint           `json:"fingerprint,omitempty"`
}

// line is the driver's one-line shape: exactly correct, attempted, failed and
// metrics, and per metric exactly value and unit. With -trace 0 the metrics
// are every end-to-end metric, with -trace 1 every per-layer metric; a layer
// the workload does not exercise reads 0.
func (r *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, def := range defs {
		metrics[def.Name] = mv{r.Metrics[def.Name].Value, def.Unit}
	}
	if r.Workload == "" { // -setup-only
		metrics = map[string]mv{"setup_s": {r.Metrics["setup_s"].Value, "s"}}
	}
	buf, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	return string(buf) // numbers, strings and bools cannot fail to marshal
}

// runWorkload runs one pass (end-to-end or traced) over one workload.
func runWorkload(o options) (*result, error) {
	fp := takeFingerprint()
	rc := newRunCtx(o)
	if o.traced {
		rc.rec = newRecorder()
	}
	w, err := setupWorkload(rc, o.workload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(o.start).Seconds()
	if o.setupOnly {
		return &result{Metrics: map[string]metricValue{"setup_s": {Value: setupS, Unit: "s"}}}, w.close()
	}
	res := &result{Workload: o.workload, Seed: o.seed, Traced: o.traced,
		Metrics: map[string]metricValue{}, Fingerprint: fp}
	if o.traced {
		err = tracedPass(rc, o, w, res)
	} else {
		err = endToEndPass(rc, o, w, res, setupS)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Notes = rc.attempted, rc.failed, rc.notes
	res.Correct = rc.failed == 0 && rc.attempted > 0
	return res, nil
}

func endToEndPass(rc *runCtx, o options, w workload, res *result, setupS float64) error {
	if err := w.measure(rc); err != nil {
		return err
	}
	rc.perRep["peak_rss_mb"] = reps{peakRSSMiB()}
	if err := w.oracle(rc); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	w.score(rc)
	for i, d := range rc.perRep["throughput_ops_s"].disturbed() {
		if d {
			rc.notef("repetition %d disturbed: throughput deviates more than 25 %% from the median", i)
		}
	}
	if net, ok := netOf[o.workload]; ok {
		ms, err := coldCompileMS(net)
		if err != nil {
			return err
		}
		rc.perRep["compile_ms"] = ms
	}
	setups, err := setupSamples(o, setupS)
	if err != nil {
		return err
	}
	rc.perRep["setup_s"] = setups
	for _, def := range endToEnd {
		s := rc.perRep[def.Name].summarize()
		if s.N == 0 {
			return fmt.Errorf("%s: no value for %s", o.workload, def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: s.Median, Unit: def.Unit, Clock: def.Clock, Min: s.Min, Max: s.Max, N: s.N}
	}
	return nil
}

func tracedPass(rc *runCtx, o options, w workload, res *result) error {
	if err := w.oracle(rc); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	// A short untraced baseline on the same set-up, so the cost of tracing is
	// itself measured.
	base := newRunCtx(o)
	base.seconds, base.reps = o.seconds*0.4, 2
	if strings.HasPrefix(o.workload, "batch-") {
		base.reps = 1
	}
	if err := w.measure(base); err != nil {
		return err
	}
	w.score(base)
	rc.attempted, rc.failed = rc.attempted+base.attempted, rc.failed+base.failed
	if err := w.traced(rc); err != nil {
		return err
	}
	if net, ok := netOf[o.workload]; ok {
		if err := simLayer(rc, net); err != nil {
			return err
		}
	}
	if untraced := median(base.perRep["throughput_ops_s"]); untraced > 0 {
		rc.layer["bench.trace_overhead_share"] = (untraced - rc.tracedOpsPerS) / untraced
	}
	rc.layer["cpuref.gemm_gflops.peak"] = gemmPeak()
	if rc.attempted > 0 {
		rc.layer["bench.fail_share"] = float64(rc.failed) / float64(rc.attempted)
	}
	res.Fingerprint.GemmPeakGFLOPS = rc.layer["cpuref.gemm_gflops.peak"]
	for _, def := range perLayer {
		if v, ok := rc.layer[def.Name]; ok {
			res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit, Clock: def.Clock}
		}
	}
	if o.traceOut != "" {
		return writeChromeTrace(o.traceOut, rc.rec.snapshot())
	}
	return nil
}

// setupSamples returns this process's set-up time plus that of
// o.setupSamples-1 fresh processes, so the median is over cold starts only
// and a cache a later change adds cannot hide work between samples.
func setupSamples(o options, own float64) (reps, error) {
	out := reps{own}
	for i := 1; i < o.setupSamples; i++ {
		r, err := runChild("-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-setup-only")
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		out = append(out, r.Metrics["setup_s"].Value)
	}
	return out, nil
}

// runChild re-executes this binary and parses the result on the last line of
// its standard output. The child has ended when this returns.
func runChild(args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// No pass takes a minute; the limit only keeps a stuck child from
	// outliving the driver's patience.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("child %v printed no result: %w", args, jerr)
	}
	return &r, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var o options
	var trace int
	var aa, printManifest bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: every workload, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input, tenant mix, schedule and DSE seed derives from (1 = default, 2 = held out)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the measured phase of a run lasts")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end pass, 1 = per-layer traced pass")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans here as Chrome-trace JSON")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up the workload, print the set-up time and exit (used for cold set-up samples)")
	flag.StringVar(&o.report, "report", "", "also write the detailed result (spread, clock, notes, fingerprint) to this file")
	flag.BoolVar(&aa, "aa", false, "A/A self-check: run the end-to-end pass twice and compare against the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.traced, o.start = trace == 1, processStart

	if printManifest {
		buf, _ := json.MarshalIndent(manifest(), "", "  ") // plain maps and strings cannot fail
		fmt.Println(string(buf))
		return
	}
	if o.workload == "" {
		if err := runSuite(o, aa); err != nil {
			fatal(err)
		}
		return
	}
	o.setupSamples = setupSampleCount(o.workload)
	res, err := runWorkload(o)
	if err != nil {
		fatal(err)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	if o.report != "" {
		if err := writeReport(o.report, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(res.line())
	if !res.Correct && !o.setupOnly {
		os.Exit(1)
	}
}

// setupSampleCount: the LeNet and compile set-ups cost about a second, the
// folded networks' about two, and every sample is a whole cold process.
func setupSampleCount(workload string) int {
	if strings.HasPrefix(workload, "batch-") {
		return 3
	}
	return 5
}
