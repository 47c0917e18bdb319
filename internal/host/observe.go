package host

// Bridging the host program into the observability layer (internal/trace):
// each finished run contributes its device event stream, a host-side phase
// span (setup vs. measured window) and one span per image, so a Chrome trace
// shows where each classified image spent its simulated time — the pictures
// the thesis reads off its execution timelines (§5.2), machine-readable.

import (
	"fmt"
	"math"

	"repro/internal/clrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// collectRunTrace records one finished run into the collector: device spans
// per queue (via trace.AddEvents), a host "phases" track with the setup and
// measured windows, and an "images" track with one span per image built from
// the event index ranges captured during enqueueing. startUS is the
// simulated time the measured window began. Safe on a nil collector.
func collectRunTrace(tc *trace.Collector, ctx *clrt.Context, imgRanges [][2]int, startUS float64, res *RunResult) {
	if tc == nil {
		return
	}
	events := ctx.Events()
	tc.AddEvents(events, ctx.ElapsedUS())
	if startUS > 0 {
		tc.Add(trace.Span{Proc: "host", Track: "phases", Name: "setup", Cat: "phase", DurUS: startUS})
	}
	tc.Add(trace.Span{Proc: "host", Track: "phases", Name: "run", Cat: "phase",
		StartUS: startUS, DurUS: res.ElapsedUS})
	for img, rg := range imgRanges {
		lo, hi := rg[0], rg[1]
		if lo >= hi || hi > len(events) {
			continue
		}
		s, e := math.Inf(1), math.Inf(-1)
		for _, ev := range events[lo:hi] {
			s = math.Min(s, ev.StartUS)
			e = math.Max(e, ev.EndUS)
		}
		tc.Add(trace.Span{Proc: "host", Track: "images", Name: fmt.Sprintf("image %d", img),
			Cat: "image", StartUS: s, DurUS: e - s,
			Args: map[string]string{"events": fmt.Sprintf("%d", hi-lo)}})
	}
	m := tc.Metrics()
	m.Counter("host.images").Add(int64(res.Images))
	m.Gauge("host.fps").Set(res.FPS)
}

// publishSimStats mirrors the functional simulator's execution-tier counters
// into the metrics registry under the sim.* namespace. Only paths that ran
// kernels functionally publish (RunBatch); the per-image timed driver models
// time without executing anything. Deployment stats are cumulative, so
// counters are raised to the snapshot value rather than blindly incremented —
// repeated RunBatch calls on one deployment stay correct. Safe on a nil
// registry.
func publishSimStats(reg *trace.Registry, s sim.StatsSnapshot) {
	set := func(name string, v int64) {
		c := reg.Counter(name)
		if d := v - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	set("sim.compile.cache_hits", s.CacheHits)
	set("sim.compile.cache_misses", s.CacheMisses)
	set("sim.exec.vector_loops", s.VectorLoops)
	set("sim.exec.fallback_loops", s.FallbackLoops)
	set("sim.exec.vector_runs", s.VectorRuns)
	set("sim.exec.guard_bailouts", s.GuardBailouts)
	set("sim.exec.gemm_loops", s.GemmLoops)
	set("sim.exec.gemm_runs", s.GemmRuns)
	set("sim.exec.gemm_bailouts", s.GemmBailouts)
	set("sim.exec.window_loops", s.WindowLoops)
	set("sim.exec.window_runs", s.WindowRuns)
}
