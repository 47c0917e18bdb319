package dse

// The one explore loop. Each entry point is a proposal strategy — ExploreWith
// proposes the §4.11 view of the joint space, ExploreJointWith the whole
// joint space in odometer order, ExploreGuided annealed batches — and a search pays for what
// it proposes: it owns the option defaults, the run's compile cache, parallel
// evaluation, the ranking order, the routability probe and the published
// metrics.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/ir"
	"repro/internal/relay"
	"repro/internal/topi"
	"repro/internal/trace"
)

// search is one exploration run's measurement side.
type search struct {
	layers  []*relay.Layer
	board   *fpga.Board
	workers int
	// budget is Options.MaxCandidates with the default applied (<= 0 means
	// 64), which the thesis and guided strategies read; the joint strategy
	// reads the raw option instead, where <= 0 means unbounded.
	budget  int
	ctx     context.Context
	metrics *trace.Registry
	cache   *aoc.CompileCache
	start   time.Time
	// evaluated holds every completed evaluation in evaluation order.
	evaluated []*Candidate
}

func newSearch(layers []*relay.Layer, board *fpga.Board, opts Options) *search {
	s := &search{layers: layers, board: board, workers: opts.Workers, budget: opts.MaxCandidates,
		ctx: opts.Ctx, metrics: opts.Metrics, cache: aoc.NewCompileCache(), start: time.Now()}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.budget <= 0 {
		s.budget = 64
	}
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	return s
}

// eval compiles and models every configuration in parallel and returns the
// candidates by slot; a slot canceled before it ran is nil. Of several
// failures the lowest slot's is returned, so the error does not depend on
// scheduling.
func (s *search) eval(cfgs []host.FoldedConfig) ([]*Candidate, error) {
	cands := make([]*Candidate, len(cfgs))
	_, errs := runJobs(s.ctx, len(cfgs), s.workers, func(i int) error {
		var err error
		cands[i], err = evaluate(s.layers, cfgs[i], s.board, s.cache)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, c := range cands {
		if c != nil {
			s.evaluated = append(s.evaluated, c)
		}
	}
	return cands, nil
}

// better is the ranking order: synthesizable first, then fastest. Under a
// stable sort, ties keep evaluation order for any worker count.
func better(a, b *Candidate) bool {
	if a.Synthesizable != b.Synthesizable {
		return a.Synthesizable
	}
	return a.Synthesizable && a.TimeUS < b.TimeUS
}

// routes reports whether a 1x1 tiling's kernel, compiled alone, can be
// synthesized: one that cannot route by itself can never route inside the
// full design. A tiling topi rejects does not route; a compile error is
// returned for the strategy to judge.
func (s *search) routes(w2, c2, c1 int) (bool, error) {
	probe, err := topi.ConvParam("dse_probe", 1, 1, topi.OptSched(w2, c2, c1), true, true, false, true)
	if err != nil {
		return false, nil
	}
	pd, err := aoc.CompileCached("dse-probe", []*ir.Kernel{probe.Op.Kernel}, s.board, aoc.DefaultOptions, s.cache)
	if err != nil {
		return false, err
	}
	return pd.Synthesizable(), nil
}

// finish ranks the run's candidates into res, fills in its counters and
// publishes them. Strategies set the prune counts before calling it.
func (s *search) finish(res *Result) {
	res.Candidates = make([]Candidate, len(s.evaluated))
	for i, c := range s.evaluated {
		res.Candidates[i] = *c
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return better(&res.Candidates[i], &res.Candidates[j])
	})
	res.Evaluated = len(s.evaluated)
	res.Canceled = s.ctx.Err() != nil
	res.CacheHits, res.CacheMisses = s.cache.Stats()
	m := s.metrics
	if m == nil {
		return
	}
	m.Counter("dse.evaluated").Add(int64(res.Evaluated))
	m.Counter("dse.pruned").Add(int64(res.Pruned))
	m.Counter("dse.pruned_bandwidth").Add(int64(res.PrunedBandwidth))
	m.Counter("dse.pruned_route").Add(int64(res.PrunedRoute))
	m.Counter("dse.cache_hits").Add(res.CacheHits)
	m.Counter("dse.cache_misses").Add(res.CacheMisses)
	m.Gauge("dse.cache_hit_ratio").Set(res.CacheHitRate())
	h := m.Histogram("dse.candidate_time_us")
	for _, c := range s.evaluated {
		h.Observe(c.TimeUS)
	}
	// Wall-clock throughput: meaningful operationally, deliberately excluded
	// from any golden comparison.
	if el := time.Since(s.start).Seconds(); el > 0 {
		m.Gauge("dse.candidates_per_sec").Set(float64(res.Evaluated) / el)
	}
}

// runJobs executes fn(i) for every i in [0, n) on up to `workers` goroutines.
// Workers reserve indices by atomically incrementing a shared counter, so
// each index runs exactly once; when ctx is done, workers stop reserving new
// indices and drain promptly. done[i] reports whether fn(i) ran to
// completion; errs[i] holds its error. Callers scan errs in index order so
// the reported error is deterministic regardless of scheduling.
func runJobs(ctx context.Context, n, workers int, fn func(i int) error) (done []bool, errs []error) {
	done = make([]bool, n)
	errs = make([]error, n)
	if n == 0 {
		return done, errs
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
				done[i] = true
			}
		}()
	}
	wg.Wait()
	return done, errs
}

// evaluate compiles the configuration and models one forward pass.
func evaluate(layers []*relay.Layer, cfg host.FoldedConfig, board *fpga.Board, cache *aoc.CompileCache) (*Candidate, error) {
	dep, err := host.BuildFoldedCached(layers, cfg, board, aoc.DefaultOptions, cache)
	if err != nil {
		// Divisibility misses surface as build errors: an unsynthesizable
		// candidate, not an explorer failure.
		return &Candidate{Config: cfg, FailReason: "bind: " + err.Error()}, nil
	}
	ef := dep.Design.Features()
	c := &Candidate{Config: cfg, FmaxMHz: ef.FmaxMHz, DSPs: ef.DSPs, LogicFrac: ef.LogicFrac}
	if !dep.Design.Synthesizable() {
		c.FailReason = dep.Design.FailReason
		if !dep.Design.Routed {
			c.FailReason = "routing"
		}
		return c, nil
	}
	c.Synthesizable = true
	us, err := dep.ForwardTimeUS()
	if err != nil {
		return nil, err
	}
	c.TimeUS = us
	return c, nil
}
