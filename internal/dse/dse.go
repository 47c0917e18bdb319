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
//     rules as a pinned view of the joint schedule space (space.go). Every
//     axis the thesis does not search is pinned to its thesis value, which
//     leaves the 1x1 and 3x3 tilings free. The space's axes make every
//     factor divide each extent it tiles, and its one bandwidth rule
//     (Space.feasible) screens the view's points: the unroll width must not
//     exceed what external memory bandwidth can feed at the design clock.
//     The 1x1 tilings are ranked in preference order (largest total unroll
//     first, balanced channel factors breaking ties), each is
//     routability-probed by compiling its dominant kernel alone, and the
//     survivors, crossed with the four widest 3x3 tilings, take evaluation
//     slots in that order until MaxCandidates are reserved.
//   - ExploreJointWith (joint.go): every bandwidth-feasible point of the joint
//     schedule space, in odometer order.
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
	"slices"
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
	// expensive step). <= 0 means 64 for ExploreWith and ExploreGuided, and
	// unbounded (the whole feasible space) for ExploreJointWith.
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
	Pruned    int // rejected before full compilation (bandwidth/probe)
	// PrunedBandwidth/PrunedRoute split Pruned by cause: the §4.11 bandwidth
	// rule (one per infeasible joint point a tier enumerates or proposes) vs
	// the 1x1 routability probe.
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

// thesisPins fixes every axis §4.11 does not search at its thesis value: the
// 3x3 group as OptSched(w2, 1, c1) (no output-channel unroll, the F×F window
// unrolled), the projection and depthwise unrolls at their largest, the
// stride-1 coalescing workaround on, and one reduction unroll for every dense
// signature: the largest all of them accept, which is the largest divisor
// ≤ 32 of the gcd over all dense layers.
func thesisPins(s *Space) map[string]int {
	pins := map[string]int{axC33C2: 1, axC33FF: 1, axWkrd: 1}
	for _, name := range []string{axProjC1, axDWW2} {
		if i, ok := s.idx[name]; ok {
			pins[name] = s.Axes[i].max()
		}
	}
	accepts := map[int]int{} // kvec -> dense signatures whose axis has it
	for _, sig := range s.denseSigs {
		for _, v := range s.Axes[s.idx[denseAxis(sig)]].Values {
			accepts[v]++
		}
	}
	kvec := 1
	for v, n := range accepts {
		if n == len(s.denseSigs) && v > kvec {
			kvec = v
		}
	}
	for _, sig := range s.denseSigs {
		pins[denseAxis(sig)] = kvec
	}
	return pins
}

// ExploreWith is the thesis-tier strategy: it enumerates and ranks §4.11
// tilings under the given Options. See the package comment for the
// determinism and cancellation guarantees.
func ExploreWith(layers []*relay.Layer, net string, board *fpga.Board, opts Options) (*Result, error) {
	s := newSearch(layers, board, opts)
	space := BuildSpace(layers, net)
	view := space.pin(thesisPins(space))
	res := &Result{Board: board, Net: net}

	// --- Enumeration (sequential, odometer order) ---
	// What the view leaves free is the 1x1 tiling (outer) and the 3x3
	// tiling (inner). Each point the bandwidth rule rejects is a prune; the
	// feasible ones yield both groups' tilings in first-seen order. The rule
	// screens each group on its own, so every pair of feasible tilings is a
	// feasible point.
	type pair struct{ pw, c33 topi.ConvSched }
	points := map[pair]Point{}
	var pws, c33s []topi.ConvSched
	view.enumerate(func(p Point) bool {
		if !view.feasible(p, board) {
			res.Pruned++
			res.PrunedBandwidth++
			return true
		}
		pw, c33, _ := view.scheds(p)
		if !slices.Contains(pws, pw) {
			pws = append(pws, pw)
		}
		if !slices.Contains(c33s, c33) {
			c33s = append(c33s, c33)
		}
		points[pair{pw, c33}] = p.clone()
		return true
	})
	// Prefer larger total unroll first (throughput), break ties toward
	// balanced C2/C1. Not a stable sort: the tie order it produces is part
	// of the tier's output.
	sort.Slice(pws, func(i, j int) bool {
		vi := pws[i].W2vec * pws[i].C2vec * pws[i].C1vec
		vj := pws[j].W2vec * pws[j].C2vec * pws[j].C1vec
		if vi != vj {
			return vi > vj
		}
		di := abs(pws[i].C2vec - pws[i].C1vec)
		dj := abs(pws[j].C2vec - pws[j].C1vec)
		return di < dj
	})
	sort.Slice(c33s, func(i, j int) bool {
		return c33s[i].W2vec*c33s[i].C1vec > c33s[j].W2vec*c33s[j].C1vec
	})
	if len(c33s) > 4 {
		c33s = c33s[:4] // the 3x3 knob is secondary; keep the frontier
	}

	// --- Routability probes (parallel) ---
	// A 1x1 tiling whose dominant kernel cannot route alone skips its whole
	// candidate row before any whole-network build. A probe compile error
	// aborts the search.
	pass := make([]bool, len(pws))
	if space.hasPW {
		done, errs := runJobs(s.ctx, len(pws), s.workers, func(i int) error {
			var err error
			pass[i], err = s.routes(pws[i].W2vec, pws[i].C2vec, pws[i].C1vec)
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
	var slots []pair
assign:
	for i, pw := range pws {
		if !pass[i] {
			continue
		}
		for _, c33 := range c33s {
			if len(slots) >= s.budget {
				break assign
			}
			slots = append(slots, pair{pw, c33})
		}
	}

	// --- Evaluation (parallel, in the driver) ---
	cfgs := make([]host.FoldedConfig, len(slots))
	for i, sl := range slots {
		cfgs[i] = view.Config(points[sl])
	}
	cands, err := s.eval(cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range cands {
		if c != nil {
			c.PW, c.Conv33 = slots[i].pw, slots[i].c33
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
