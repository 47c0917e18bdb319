// Package dse implements the design-space explorer the thesis leaves to
// future work (§4.11: "A design space explorer would benefit the performance
// of work by maximizing overall network performance and resource utilization
// rather than the performance of individual layers. We leave resource
// modeling and exploration for a DSE to future work.").
//
// # One driver, three strategies
//
// Every search ranks folded deployments by their modeled end-to-end
// forward-pass time, using exactly the same AOC model the evaluation uses, so
// it optimizes whole-network throughput rather than a single kernel's. One
// driver (search.go) pays for every design: it compiles and models proposed
// configurations in parallel, memoizes kernel compilations in a per-run
// aoc.CompileCache, ranks synthesizable-then-fastest with a stable sort and
// publishes the dse.* metrics. Three strategies decide what to propose:
//
//   - ExploreWith, the thesis tier (this file): the §4.11 factor-selection
//     rules — the unroll width must not exceed what external memory bandwidth
//     can feed at the design clock, factors must evenly divide every layer's
//     extent they tile, and the design must fit and route. Tilings are
//     enumerated in preference order (largest total unroll first, balanced
//     channel factors breaking ties), each 1x1 tiling is routability-probed
//     by compiling its dominant kernel alone, and survivors take evaluation
//     slots in enumeration order until MaxCandidates are reserved.
//   - ExploreJointWith (joint.go): every bandwidth-feasible point of the joint
//     schedule space (space.go), in odometer order.
//   - ExploreGuided (anneal.go): seeded annealing over the joint space,
//     ranking mutation batches with an online cost model (model.go) and
//     optionally warm-started from another board's run (transfer.go).
//
// Determinism: slots are reserved before evaluation, results land at their
// slot index and the final ranking is a stable sort over evaluation order,
// so a Result is byte-identical for any worker count. The singleflight
// compile cache makes even its hit/miss counters scheduling-independent.
//
// Cancellation: Options.Ctx bounds search wall-time. On cancellation the
// driver stops dispatching work promptly and the strategy returns a
// well-formed partial Result (Canceled=true) holding every candidate fully
// evaluated before the deadline.
package dse

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/relay"
	"repro/internal/topi"
	"repro/internal/trace"
)

// Options configures an exploration run. The zero value explores with
// GOMAXPROCS workers, a 64-candidate budget and no deadline. Every run
// memoizes kernel compilations in a compile cache of its own.
type Options struct {
	// Workers bounds evaluation concurrency; <= 0 means runtime.GOMAXPROCS.
	Workers int
	// MaxCandidates bounds the number of fully compiled designs (the
	// expensive step); <= 0 means 64.
	MaxCandidates int
	// Ctx cancels or bounds the search; nil means context.Background().
	Ctx context.Context
	// Metrics receives the run's observability counters, gauges and the
	// candidate-time histogram (evaluated/pruned counts, cache hits and
	// misses, candidates/sec); nil disables publication.
	Metrics *trace.Registry
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Config host.FoldedConfig
	// PW is the 1x1-convolution tiling (the dominant knob).
	PW topi.ConvSched
	// Conv33 is the 3x3-convolution tiling when the network has general 3x3
	// layers beyond the stem.
	Conv33 topi.ConvSched

	Synthesizable bool
	FailReason    string
	FmaxMHz       float64
	DSPs          int
	LogicFrac     float64
	// TimeUS is the modeled forward-pass time (sum of kernel times; the
	// ranking objective).
	TimeUS float64
}

// Result is the explorer's outcome.
type Result struct {
	Board      *fpga.Board
	Net        string
	Candidates []Candidate // sorted: synthesizable first, fastest first
	// Evaluated is the number of fully compiled designs; it always equals
	// len(Candidates), even under concurrency or cancellation.
	Evaluated int
	Pruned    int // rejected before full compilation (divisibility/bandwidth/probe)
	// PrunedBandwidth/PrunedRoute split Pruned by cause: the §4.11 bandwidth
	// rule (at enumeration, and infeasible mutations in guided mode) vs the
	// 1x1 routability probe.
	PrunedBandwidth int
	PrunedRoute     int
	// Canceled reports that Options.Ctx expired before the search finished;
	// the Result then holds the candidates evaluated up to that point.
	Canceled bool
	// CacheHits/CacheMisses are the totals of the run's kernel-compile
	// cache.
	CacheHits   int64
	CacheMisses int64
}

// CacheHitRate returns the fraction of kernel compilations served from the
// memoization cache during this run.
func (r *Result) CacheHitRate() float64 {
	if r.CacheHits+r.CacheMisses == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
}

// Best returns the fastest synthesizable candidate.
func (r *Result) Best() (*Candidate, error) {
	for i := range r.Candidates {
		if r.Candidates[i].Synthesizable {
			return &r.Candidates[i], nil
		}
	}
	if r.Canceled {
		return nil, fmt.Errorf("dse: search for %s on %s cancelled before any synthesizable configuration was evaluated", r.Net, r.Board.Name)
	}
	return nil, fmt.Errorf("dse: no synthesizable configuration for %s on %s", r.Net, r.Board.Name)
}

// layerFacts summarizes the constraints the network's layers impose.
type layerFacts struct {
	// common divisors per tiled dimension across all layers of a group.
	pwW2, pwC2, pwC1 int
	c33W2, c33C1     int
	hasPW, has33     bool
	// strided 1x1 projections (ResNet shortcuts).
	projC1   int
	hasProj  bool
	dwW2     int
	hasDW    bool
	denseN   int
	hasDense bool
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func gatherFacts(layers []*relay.Layer) layerFacts {
	f := layerFacts{}
	acc := func(cur *int, v int) {
		if *cur == 0 {
			*cur = v
		} else {
			*cur = gcd(*cur, v)
		}
	}
	for _, l := range layers {
		switch l.Kind {
		case relay.KConv:
			w2 := l.OutShape[2]
			switch {
			case l.F == 1 && l.S == 1:
				f.hasPW = true
				acc(&f.pwW2, w2)
				acc(&f.pwC2, l.OutShape[0])
				acc(&f.pwC1, l.InShape[0])
			case l.F == 1:
				f.hasProj = true
				acc(&f.projC1, l.InShape[0])
			case l.F == 3:
				f.has33 = true
				acc(&f.c33W2, w2)
				acc(&f.c33C1, l.InShape[0])
			}
		case relay.KDepthwise:
			f.hasDW = true
			acc(&f.dwW2, l.OutShape[2])
		case relay.KDense:
			f.hasDense = true
			acc(&f.denseN, l.InShape[0])
		}
	}
	return f
}

// divisorsOf returns the divisors of n not exceeding cap, ascending.
func divisorsOf(n, cap int) []int {
	var out []int
	for d := 1; d <= n && d <= cap; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// pwCfg is one 1x1-convolution tiling group from the enumeration phase.
type pwCfg struct{ w2, c2, c1 int }

// ExploreWith is the thesis-tier strategy: it enumerates and ranks §4.11
// tilings under the given Options. See the package comment for the
// determinism and cancellation guarantees.
func ExploreWith(layers []*relay.Layer, net string, board *fpga.Board, opts Options) (*Result, error) {
	s := newSearch(layers, board, opts)
	facts := gatherFacts(layers)
	res := &Result{Board: board, Net: net}

	// --- Enumeration (sequential, deterministic order) ---

	// Rule 1 (§4.11): the widest memory access must not exceed the memory
	// system's bytes/cycle at a conservative clock.
	maxFloats := int(board.BytesPerCycleAt(board.BaseFmaxMHz*0.7) / 4)

	var pws []pwCfg
	if facts.hasPW {
		for _, w2 := range divisorsOf(facts.pwW2, 14) {
			for _, c2 := range divisorsOf(facts.pwC2, 64) {
				for _, c1 := range divisorsOf(facts.pwC1, 32) {
					if w2*c1 > 4*maxFloats || w2 < 2 {
						res.Pruned++
						res.PrunedBandwidth++
						continue
					}
					pws = append(pws, pwCfg{w2, c2, c1})
				}
			}
		}
	} else {
		pws = []pwCfg{{1, 1, 1}}
	}
	// Prefer larger total unroll first (throughput), break ties toward
	// balanced C2/C1. Not a stable sort: the tie order it produces is part
	// of the tier's output.
	sort.Slice(pws, func(i, j int) bool {
		vi := pws[i].w2 * pws[i].c2 * pws[i].c1
		vj := pws[j].w2 * pws[j].c2 * pws[j].c1
		if vi != vj {
			return vi > vj
		}
		di := abs(pws[i].c2 - pws[i].c1)
		dj := abs(pws[j].c2 - pws[j].c1)
		return di < dj
	})

	var c33s []topi.ConvSched
	if facts.has33 {
		for _, w2 := range divisorsOf(facts.c33W2, 7) {
			for _, c1 := range divisorsOf(facts.c33C1, 16) {
				if w2*c1*9 > 16*maxFloats {
					res.Pruned++
					res.PrunedBandwidth++
					continue
				}
				c33s = append(c33s, topi.OptSched(w2, 1, c1))
			}
		}
		sort.Slice(c33s, func(i, j int) bool {
			return c33s[i].W2vec*c33s[i].C1vec > c33s[j].W2vec*c33s[j].C1vec
		})
		if len(c33s) > 4 {
			c33s = c33s[:4] // the 3x3 knob is secondary; keep the frontier
		}
	} else {
		c33s = []topi.ConvSched{topi.OptSched(1, 1, 1)}
	}

	denseVec := 1
	if facts.hasDense {
		dv := divisorsOf(facts.denseN, 32)
		denseVec = dv[len(dv)-1]
	}
	dwVec := 1
	if facts.hasDW {
		dw := divisorsOf(facts.dwW2, 7)
		dwVec = dw[len(dw)-1]
	}

	// --- Routability probes (parallel) ---
	// A 1x1 group whose dominant kernel cannot route alone skips its whole
	// candidate row before any whole-network build. A probe compile error
	// aborts the search.
	pass := make([]bool, len(pws))
	if facts.hasPW {
		done, errs := runJobs(s.ctx, len(pws), s.workers, func(i int) error {
			var err error
			pass[i], err = s.routes(pws[i].w2, pws[i].c2, pws[i].c1)
			return err
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i := range pws {
			if done[i] && !pass[i] {
				res.Pruned++
				res.PrunedRoute++
			}
		}
	} else {
		for i := range pws {
			pass[i] = true
		}
	}

	// --- Slot assignment (sequential, exact accounting) ---
	// Every reserved slot is exactly one full evaluation, so the
	// MaxCandidates cap holds before any worker starts.
	type slot struct {
		pw  pwCfg
		c33 topi.ConvSched
	}
	var slots []slot
assign:
	for i, pw := range pws {
		if !pass[i] {
			continue
		}
		for _, c33 := range c33s {
			if len(slots) >= s.budget {
				break assign
			}
			slots = append(slots, slot{pw, c33})
		}
	}

	// --- Evaluation (parallel, in the driver) ---
	cfgs := make([]host.FoldedConfig, len(slots))
	for i, sl := range slots {
		cfgs[i] = buildConfig(layers, facts, sl.pw, sl.c33, dwVec, denseVec)
	}
	cands, err := s.eval(cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range cands {
		if c != nil {
			c.PW = topi.OptSched(slots[i].pw.w2, slots[i].pw.c2, slots[i].pw.c1)
			c.Conv33 = slots[i].c33
		}
	}
	s.finish(res)
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// buildConfig assembles a FoldedConfig covering every conv signature the
// network uses. Strided 1x1 projections get their own channel unroll (they
// are small in FLOPs but crippling at 1 MAC/cycle).
func buildConfig(layers []*relay.Layer, facts layerFacts, pw pwCfg, c33 topi.ConvSched, dwVec, denseVec int) host.FoldedConfig {
	conv := map[string]topi.ConvSched{}
	dw := map[string]int{}
	projC1 := 1
	if facts.hasProj {
		pd := divisorsOf(facts.projC1, 8)
		projC1 = pd[len(pd)-1]
	}
	for _, l := range layers {
		switch l.Kind {
		case relay.KConv:
			key := host.ConfigKey(l)
			switch {
			case l.F == 1 && l.S == 1:
				conv[key] = topi.OptSched(pw.w2, pw.c2, pw.c1)
			case l.F == 1:
				conv[key] = topi.OptSched(1, 1, projC1)
			case l.F == 3:
				conv[key] = c33
			default:
				conv[key] = topi.OptSched(1, 1, 1)
			}
		case relay.KDepthwise:
			dw[host.ConfigKey(l)] = dwVec
		}
	}
	return host.FoldedConfig{Conv: conv, DWVec: dw, DenseVec: denseVec, Workaround: true}
}
