package main

// compile-dse: what a compiler/DSE user waits for. No inference at all: each
// repetition cold-lowers lenet5, mobilenetv1, resnet18 and resnet34, builds
// each on A10, S10SX and S10MX with a fresh compile cache, then runs the
// thesis-tier, guided and joint searches. It loads relay, topi, schedule, aoc
// and dse while sim, host.RunBatch and serve do nothing.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/aoc"
	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/verify"
)

const (
	dseWorkers  = 2
	guidedSeeds = 4
	// jointCap bounds the MobileNet joint enumeration. The issue sketched
	// 24000 points (about 2 s); 4000 keeps a repetition near 0.7 s so a run
	// holds enough repetitions for a p90.
	jointCap = 4000
)

var compileBoards = []*fpga.Board{fpga.A10, fpga.S10SX, fpga.S10MX}

type dseEnv struct {
	// ref is the warm-up repetition's search results; every later repetition
	// and the Workers-1 oracle must reproduce them.
	ref map[string]string
}

// dseRep is what one repetition produced.
type dseRep struct {
	results   map[string]string // search name -> best design, printable
	points    map[string]int    // search name -> fully evaluated design points
	compileMS float64           // 4 lowers + 12 cold builds
	wallS     float64

	lowerMS, buildMS map[string]float64 // per network (build: S10SX)
	designs          map[string]*aoc.Design
	thesisMS         float64
	guidedMS         float64
	guidedEvals      int
	jointPointsPerS  float64
	rankCorr         float64
	cacheHitRate     float64
	bestUS           map[string]float64
}

func lower(net string) ([]*relay.Layer, error) {
	g, err := nn.ByName(net)
	if err != nil {
		return nil, err
	}
	return relay.Lower(g)
}

// coldBuild compiles one network for one board with nothing memoized.
func coldBuild(net string, layers []*relay.Layer, board *fpga.Board) (*aoc.Design, error) {
	if net == "lenet5" {
		p, err := host.BuildPipelined(layers, host.PipeTVMAutorun, board, aoc.DefaultOptions)
		if err != nil {
			return nil, err
		}
		return p.Design, nil
	}
	cfg, err := bench.FoldedConfigFor(net, board)
	if err != nil {
		return nil, err
	}
	f, err := host.BuildFoldedCached(layers, cfg, board, aoc.DefaultOptions, aoc.NewCompileCache())
	if err != nil {
		return nil, err
	}
	return f.Design, nil
}

func describe(c *dse.Candidate) string {
	return fmt.Sprintf("%v us %+v", c.TimeUS, c.Config)
}

// runDSERep performs one repetition at the given search worker count.
func runDSERep(rc *runCtx, workers int) (*dseRep, error) {
	r := &dseRep{results: map[string]string{}, points: map[string]int{},
		lowerMS: map[string]float64{}, buildMS: map[string]float64{},
		designs: map[string]*aoc.Design{}, bestUS: map[string]float64{}}
	start := time.Now()
	rep := rc.rec.reserve("repetition", 0, 0, 0, start)
	layersOf := map[string][]*relay.Layer{}
	for _, net := range compileNets {
		t0 := time.Now()
		layers, err := lower(net)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rc.rec.add("lower", rep, 0, 0, t0, t1)
		r.lowerMS[net] = t1.Sub(t0).Seconds() * 1e3
		r.compileMS += r.lowerMS[net]
		layersOf[net] = layers
		for _, board := range compileBoards {
			t0 := time.Now()
			d, err := coldBuild(net, layers, board)
			if err != nil {
				return nil, fmt.Errorf("build %s on %s: %w", net, board.Name, err)
			}
			t1 := time.Now()
			rc.rec.add("build", rep, 0, 0, t0, t1)
			ms := t1.Sub(t0).Seconds() * 1e3
			r.compileMS += ms
			if board == fpga.S10SX {
				r.buildMS[net], r.designs[net] = ms, d
			}
		}
	}

	explore := func(name string, f func() (*dse.Result, error)) (*dse.Result, float64, error) {
		t0 := time.Now()
		res, err := f()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		rc.rec.add("explore", rep, 0, 0, t0, t1)
		best, err := res.Best()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		r.results[name], r.points[name] = describe(best), res.Evaluated
		return res, t1.Sub(t0).Seconds(), nil
	}
	mobilenet, lenet := layersOf["mobilenetv1"], layersOf["lenet5"]
	opts := dse.Options{Workers: workers}
	best := math.Inf(1)
	noteBest := func(res *dse.Result) {
		if b, err := res.Best(); err == nil {
			best = min(best, b.TimeUS)
		}
	}

	res, s, err := explore("thesis", func() (*dse.Result, error) {
		return dse.ExploreWith(mobilenet, "mobilenetv1", fpga.S10SX, opts)
	})
	if err != nil {
		return nil, err
	}
	r.thesisMS = s * 1e3
	noteBest(res)
	for i := 0; i < guidedSeeds; i++ {
		var g *dse.GuidedResult
		res, s, err := explore(fmt.Sprintf("guided.%d", i), func() (*dse.Result, error) {
			var err error
			g, err = dse.ExploreGuided(mobilenet, "mobilenetv1", fpga.S10SX,
				dse.GuidedOptions{Options: opts, Seed: rc.seed*guidedSeeds + int64(i)})
			if err != nil {
				return nil, err
			}
			return &g.Result, nil
		})
		if err != nil {
			return nil, err
		}
		r.guidedMS += s * 1e3
		r.guidedEvals += res.Evaluated
		r.rankCorr += g.RankCorr / guidedSeeds
		noteBest(res)
	}
	res, _, err = explore("joint.lenet5", func() (*dse.Result, error) {
		j, err := dse.ExploreJointWith(lenet, "lenet5", fpga.S10SX, opts)
		if err != nil {
			return nil, err
		}
		return &j.Result, nil
	})
	if err != nil {
		return nil, err
	}
	if b, err := res.Best(); err == nil {
		r.bestUS["lenet5"] = b.TimeUS
	}
	jopts := opts
	jopts.MaxCandidates = jointCap
	res, s, err = explore("joint.mobilenetv1", func() (*dse.Result, error) {
		j, err := dse.ExploreJointWith(mobilenet, "mobilenetv1", fpga.S10SX, jopts)
		if err != nil {
			return nil, err
		}
		return &j.Result, nil
	})
	if err != nil {
		return nil, err
	}
	noteBest(res)
	r.jointPointsPerS = float64(res.Evaluated) / s
	r.cacheHitRate = res.CacheHitRate()
	r.bestUS["mobilenetv1"] = best
	end := time.Now()
	rc.rec.finish(rep, end)
	r.wallS = end.Sub(start).Seconds()
	return r, nil
}

// setupDSE runs one full repetition in the cold process: it is the warm-up
// and the reference every later repetition must reproduce.
func setupDSE(rc *runCtx) (*dseEnv, error) {
	r, err := runDSERep(rc, dseWorkers)
	if err != nil {
		return nil, err
	}
	return &dseEnv{ref: r.results}, nil
}

func (e *dseEnv) close() error { return nil }

// oracle repeats the searches at Workers 1: the best design must not depend
// on the worker count.
func (e *dseEnv) oracle(rc *runCtx) error {
	r, err := runDSERep(&runCtx{seed: rc.seed}, 1)
	if err != nil {
		return err
	}
	points, failed := e.scoreRep(r)
	rc.attempted, rc.failed = rc.attempted+points, rc.failed+failed
	return nil
}

// scoreRep counts a repetition's design points and those belonging to searches
// whose best design disagrees with the reference.
func (e *dseEnv) scoreRep(r *dseRep) (points, failed int) {
	for name, n := range r.points {
		points += n
		if r.results[name] != e.ref[name] {
			failed += n
		}
	}
	return points, failed
}

func (e *dseEnv) measure(rc *runCtx) error {
	// As many repetitions as fit in the measuring time, or exactly rc.reps.
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	more := func(i int) bool {
		if rc.reps > 0 {
			return i < rc.reps
		}
		return time.Now().Before(deadline)
	}
	for i := 0; more(i); i++ {
		u := snapshot()
		r, err := runDSERep(rc, dseWorkers)
		if err != nil {
			return err
		}
		w := since(u)
		w.wallS = r.wallS
		// Scored at once, unlike the inference workloads: the reference is the
		// warm-up repetition, and keeping every repetition's designs alive
		// until the oracle has run would show in peak RSS.
		points, failed := e.scoreRep(r)
		rc.addRep(w, points-failed, points, failed, []float64{r.wallS * 1e3})
		rc.perRep["compile_ms"] = append(rc.perRep["compile_ms"], r.compileMS)
	}
	return nil
}

func (e *dseEnv) score(*runCtx) {}

// traced runs two repetitions under spans and times the compile-side layers
// that a repetition does not call by itself (analyze, codegen, verify) on
// the S10SX designs.
func (e *dseEnv) traced(rc *runCtx) error {
	var last *dseRep
	ops, wall := 0, 0.0
	for i := 0; i < 2; i++ {
		r, err := runDSERep(rc, dseWorkers)
		if err != nil {
			return err
		}
		if last != nil && r.bestUS["mobilenetv1"] != last.bestUS["mobilenetv1"] {
			return fmt.Errorf("modeled best differs between repetitions: %v vs %v us",
				r.bestUS["mobilenetv1"], last.bestUS["mobilenetv1"])
		}
		points, failed := e.scoreRep(r)
		rc.attempted, rc.failed = rc.attempted+points, rc.failed+failed
		ops, wall, last = ops+points-failed, wall+r.wallS, r
	}
	rc.tracedOpsPerS = float64(ops) / wall
	m := rc.layer
	for _, net := range compileNets {
		m["relay.lower_ms."+net] = last.lowerMS[net]
		m["host.build_ms."+net] = last.buildMS[net]
	}
	m["dse.thesis_ms"], m["dse.guided_ms"] = last.thesisMS, last.guidedMS
	m["dse.guided_evals"], m["dse.model_rank_corr"] = float64(last.guidedEvals), last.rankCorr
	m["dse.joint_points_per_s"], m["aoc.cache_hit_rate"] = last.jointPointsPerS, last.cacheHitRate
	m["dse.best_us.lenet5"], m["dse.best_us.mobilenetv1"] = last.bestUS["lenet5"], last.bestUS["mobilenetv1"]
	m["host.modeled_us_per_image"] = last.bestUS["mobilenetv1"]

	var analyzeUS, codegenMS, verifyMS float64
	kernels, bytes := 0, 0
	for _, net := range compileNets {
		d := last.designs[net]
		var ks []*ir.Kernel
		t0 := time.Now()
		for _, km := range d.Kernels {
			if _, err := aoc.Analyze(km.Kernel, d.Board, d.Options); err != nil {
				return err
			}
			ks = append(ks, km.Kernel)
		}
		t1 := time.Now()
		prog := codegen.Program(ks)
		t2 := time.Now()
		if err := verify.Kernels(ks).Err(); err != nil {
			return fmt.Errorf("verify %s: %w", net, err)
		}
		t3 := time.Now()
		rc.rec.add("analyze", 0, 0, 0, t0, t1)
		rc.rec.add("codegen", 0, 0, 0, t1, t2)
		rc.rec.add("verify", 0, 0, 0, t2, t3)
		analyzeUS += t1.Sub(t0).Seconds() * 1e6
		codegenMS += t2.Sub(t1).Seconds() * 1e3
		verifyMS += t3.Sub(t2).Seconds() * 1e3
		kernels, bytes = kernels+len(ks), bytes+len(prog)
	}
	m["aoc.analyze_us_per_kernel"] = analyzeUS / float64(kernels)
	m["codegen.program_ms"], m["codegen.program_bytes"] = codegenMS, float64(bytes)
	m["verify.kernels_ms"] = verifyMS
	return nil
}
