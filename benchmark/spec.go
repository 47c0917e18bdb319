package main

// The benchmark's contract in one place: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root is generated from these tables (-manifest) and a test keeps the two
// in step.

// Clock tags: every printed number says which clock it is on.
const (
	wall    = "wall"    // what the Go process actually costs
	modeled = "modeled" // virtual microseconds out of aoc + clrt
	count   = "count"   // an exact count or a ratio of counts
)

// The JSON tags are BENCHMARK.json's keys.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Clock  string `json:"-"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression (per-layer metrics
	// have none).
	Bound float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures. The driver makes 114 runs that
// must finish inside 3420 s with set-up and two builds, so a run (set-up
// samples included) has to stay near 20 s.
const runSeconds = 10

var workloads = []workloadDef{
	{"http-lenet", "closed loop, 2 keep-alive clients POST /v1/infer at a LeNet server: JSON, admission, deadline-bound batches of 1-2 and per-image host overhead dominate; GEMM is about a tenth"},
	{"burst-lenet", "open loop, bursts of 8 at seeded instants through Server.Submit: no HTTP or JSON, every batch full, so RunBatch amortisation, batch-axis GEMM and queueing show and HTTP work does not"},
	{"batch-mobilenet", "offline RunBatch on folded MobileNetV1: kernel-bound through the pointwise zero-copy GEMM and the depthwise non-GEMM kernels; serve and HTTP do nothing"},
	{"batch-resnet18", "offline RunBatch on folded ResNet-18: kernel-bound through the other GEMM feed, 3x3 im2col plus bias/residual/ReLU epilogue and pad kernels"},
	{"compile-dse", "no inference: cold lower+build of four networks on three boards, then the thesis, guided and joint searches; loads relay, topi, schedule, aoc and dse while sim, host.RunBatch and serve idle"},
}

// The bounds are wider than the issue sketched; README.md records the A/A
// spreads that forced each one. latency_p90_ms is not here: its spread over
// ten runs reached 31 %, above the 25 % the contract allows a bound to be, so
// like p99 it is a per-layer figure (serve.latency_p90_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", wall, "lower", 0.25},
	{"throughput_ops_s", "ops/s", wall, "higher", 0.25},
	{"latency_p50_ms", "ms", wall, "lower", 0.25},
	{"cpu_ms_per_op", "ms", wall, "lower", 0.25},
	{"allocs_per_op", "count", count, "lower", 0.10},
	{"alloc_kb_per_op", "KiB", count, "lower", 0.05},
	{"peak_rss_mb", "MiB", wall, "lower", 0.25},
	{"compile_ms", "ms", wall, "lower", 0.25},
}

// The five kernels whose shape also has a bare cpuref.Gemm roofline, then the
// three that are not GEMM-lowered.
var (
	gemmKernels  = []string{"lenet_conv1", "lenet_conv2", "lenet_dense1", "mobilenet_fold_pw", "resnet_fold_conv3"}
	otherKernels = []string{"lenet_pool1", "mobilenet_fold_dw", "resnet_fold_pad"}
	compileNets  = []string{"lenet5", "mobilenetv1", "resnet18", "resnet34"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// serve: both LeNet workloads.
		{"serve.http_overhead_us", "us", wall, "lower", 0},
		{"serve.queue_wait_us_p50", "us", wall, "lower", 0},
		{"serve.queue_wait_us_p90", "us", wall, "lower", 0},
		{"serve.batch_size_mean", "count", count, "higher", 0},
		{"serve.batches", "count", count, "lower", 0},
		{"serve.run_us_p50", "us", wall, "lower", 0},
		{"serve.run_us_per_image", "us", wall, "lower", 0},
		{"serve.respond_us_p50", "us", wall, "lower", 0},
		{"serve.worker_busy_share", "ratio", wall, "lower", 0},
		{"serve.shed_total", "count", count, "lower", 0},
		{"serve.stage_residual_share", "ratio", wall, "lower", 0},
		{"serve.latency_p90_ms", "ms", wall, "lower", 0},
		{"serve.latency_p99_ms", "ms", wall, "lower", 0},
		{"serve.samples", "count", count, "higher", 0},
		{"serve.max_rate_ok_rps", "1/s", wall, "higher", 0},
		{"loadgen.late_p99_ms", "ms", wall, "lower", 0},
		{"loadgen.late_max_ms", "ms", wall, "lower", 0},
		// host: direct calls on each inference workload's deployment.
		{"host.build_ms", "ms", wall, "lower", 0},
		{"host.infer_us_per_image", "us", wall, "lower", 0},
		{"host.runbatch_us_per_image.b1", "us", wall, "lower", 0},
		{"host.runbatch_us_per_image.b8", "us", wall, "lower", 0},
		{"host.runbatch_scaling_x", "x", wall, "higher", 0},
		{"host.allocs_per_image", "count", count, "lower", 0},
		{"host.alloc_kb_per_image", "KiB", count, "lower", 0},
		{"host.gemm_floor_share", "ratio", wall, "higher", 0},
		{"host.modeled_overlap_ratio", "ratio", modeled, "higher", 0},
		{"host.modeled_us_per_image", "us_modeled", modeled, "lower", 0},
		{"clrt.enqueue_kernel_ns", "ns", wall, "lower", 0},
		{"clrt.enqueue_transfer_ns", "ns", wall, "lower", 0},
		{"clrt.modeled_kernel_share", "ratio", modeled, "higher", 0},
	}
	for _, k := range append(append([]string{}, gemmKernels...), otherKernels...) {
		m = append(m, metricDef{"sim." + k + ".vector_ns", "ns", wall, "lower", 0})
	}
	for _, k := range gemmKernels {
		m = append(m, metricDef{"sim." + k + ".over_gemm_x", "x", wall, "lower", 0})
	}
	m = append(m,
		metricDef{"sim.fallback_loops", "count", count, "lower", 0},
		metricDef{"sim.guard_bailouts", "count", count, "lower", 0},
		metricDef{"sim.gemm_bailouts", "count", count, "lower", 0},
		metricDef{"sim.gemm_runs_per_image", "count", count, "higher", 0},
		metricDef{"sim.kernel_cache_misses", "count", count, "lower", 0},
	)
	for _, k := range gemmKernels {
		m = append(m, metricDef{"cpuref.gemm_gflops." + k, "GFLOP/s", wall, "higher", 0})
	}
	m = append(m,
		metricDef{"cpuref.gemm_gflops.peak", "GFLOP/s", wall, "higher", 0},
		metricDef{"cpuref.reference_ms_per_image", "ms", wall, "lower", 0},
	)
	// compile-dse.
	for _, n := range compileNets {
		m = append(m, metricDef{"relay.lower_ms." + n, "ms", wall, "lower", 0})
	}
	for _, n := range compileNets {
		m = append(m, metricDef{"host.build_ms." + n, "ms", wall, "lower", 0})
	}
	m = append(m,
		metricDef{"aoc.analyze_us_per_kernel", "us", wall, "lower", 0},
		metricDef{"aoc.cache_hit_rate", "ratio", count, "higher", 0},
		metricDef{"codegen.program_ms", "ms", wall, "lower", 0},
		metricDef{"codegen.program_bytes", "count", count, "lower", 0},
		metricDef{"verify.kernels_ms", "ms", wall, "lower", 0},
		metricDef{"dse.joint_points_per_s", "1/s", wall, "higher", 0},
		metricDef{"dse.guided_ms", "ms", wall, "lower", 0},
		metricDef{"dse.guided_evals", "count", count, "lower", 0},
		metricDef{"dse.thesis_ms", "ms", wall, "lower", 0},
		metricDef{"dse.model_rank_corr", "ratio", count, "higher", 0},
		metricDef{"dse.best_us.lenet5", "us_modeled", modeled, "lower", 0},
		metricDef{"dse.best_us.mobilenetv1", "us_modeled", modeled, "lower", 0},
		// Every workload.
		metricDef{"bench.trace_overhead_share", "ratio", wall, "lower", 0},
		metricDef{"bench.fail_share", "ratio", count, "lower", 0},
	)
	return m
}

// manifest is BENCHMARK.json, in the shape the driver's contract prescribes.
func manifest() map[string]any {
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}
