package main

// The dse and bench-dse subcommands: CLI access to both search tiers (the
// exhaustive §4.11 enumerator and the learned-cost-model guided annealer) and
// the guided-vs-exhaustive benchmark that CI gates on.

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/trace"
)

// runDSE drives the design-space explorer. The default invocation reproduces
// the thesis-comparison table (exhaustive tier, every board); -net switches
// to a single network's joint schedule space, where -dse-mode picks the tier:
//
//	fpgacnn dse                                  # thesis table, all boards
//	fpgacnn dse -net lenet5 -board A10           # exhaustive joint search
//	fpgacnn dse -dse-mode=guided -net mobilenetv1 -board S10SX -dse-seed 1
//	fpgacnn dse -dse-mode=guided ... -transfer-out a10.json   # save state
//	fpgacnn dse -dse-mode=guided ... -transfer-in a10.json    # warm-start
func runDSE(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	mode := fs.String("dse-mode", "exhaustive", "search tier: exhaustive or guided")
	workers := fs.Int("dse-workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("dse-timeout", 0, "bound on search wall-time (0 = none)")
	maxCand := fs.Int("dse-max", 0, "full-evaluation budget (0 = tier default; exhaustive joint: unbounded)")
	seed := fs.Int64("dse-seed", 1, "guided search seed (fixed seed -> byte-identical result)")
	netName := fs.String("net", "", "search one network's joint space instead of the thesis table")
	boardName := fs.String("board", "S10SX", "target board for -net searches")
	jsonOut := fs.String("json", "", "write the result JSON to this path (\"-\" = stdout)")
	transferIn := fs.String("transfer-in", "", "warm-start guided search from this serialized state")
	transferOut := fs.String("transfer-out", "", "serialize the fitted model + top-K history to this path")
	transferK := fs.Int("transfer-topk", 8, "ranked candidates kept in -transfer-out")
	metrics := fs.Bool("metrics", false, "print the metrics dump after the search")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *mode != "exhaustive" && *mode != "guided" {
		return usagef("-dse-mode must be exhaustive or guided, got %q", *mode)
	}
	guided := *mode == "guided"
	if !guided && (*transferIn != "" || *transferOut != "") {
		return usagef("-transfer-in/-transfer-out require -dse-mode=guided")
	}
	if guided && *netName == "" {
		return usagef("-dse-mode=guided requires -net (the joint space of one network)")
	}
	opts := dse.Options{Workers: *workers, MaxCandidates: *maxCand}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if *metrics {
		opts.Metrics = trace.NewRegistry()
	}
	dumpMetrics := func() {
		if *metrics {
			fmt.Println("\n== metrics ==")
			fmt.Print(opts.Metrics.DumpText())
		}
	}

	// Legacy invocation: the thesis-comparison experiment across all boards.
	if *netName == "" {
		_, rep, err := bench.DSEExperiment(opts)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		dumpMetrics()
		return nil
	}

	layers, board, err := lowerForDSE(*netName, *boardName)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if guided {
		gopts := dse.GuidedOptions{Options: opts, Seed: *seed}
		if *transferIn != "" {
			t, err := dse.LoadTransfer(*transferIn)
			if err != nil {
				return err
			}
			gopts.Transfer = t
		}
		res, err := dse.ExploreGuided(layers, *netName, board, gopts)
		if err != nil {
			return err
		}
		printGuidedSummary(res, time.Since(t0))
		if *transferOut != "" {
			if err := dse.SaveTransfer(*transferOut, res.TransferState(*transferK)); err != nil {
				return err
			}
			fmt.Printf("wrote transfer state to %s\n", *transferOut)
		}
		dumpMetrics()
		return writeJSON(*jsonOut, res)
	}
	res, err := dse.ExploreJointWith(layers, *netName, board, opts)
	if err != nil {
		return err
	}
	printJointSummary(res, time.Since(t0))
	dumpMetrics()
	return writeJSON(*jsonOut, res)
}

// lowerForDSE resolves a network/board pair to its lowered layer sequence.
func lowerForDSE(net, boardName string) ([]*relay.Layer, *fpga.Board, error) {
	board, err := fpga.ByName(boardName)
	if err != nil {
		return nil, nil, err
	}
	g, err := nn.ByName(net)
	if err != nil {
		return nil, nil, err
	}
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, nil, err
	}
	return layers, board, nil
}

// printJointSummary reports an exhaustive joint-space run. Wall time goes to
// stdout only — it never enters a Result or a JSON report.
func printJointSummary(res *dse.JointResult, wall time.Duration) {
	fmt.Printf("%s on %s: joint space %d points, %d evaluated, %d pruned (%d bandwidth, %d route)\n",
		res.Net, res.Board.Name, res.SpaceSize, res.Evaluated, res.Pruned, res.PrunedBandwidth, res.PrunedRoute)
	if best, err := res.Best(); err == nil {
		fmt.Printf("  best: %.1f us, fmax %.0f MHz, %d DSPs\n", best.TimeUS, best.FmaxMHz, best.DSPs)
	}
	fmt.Printf("  cache: %d hits / %d misses (%.0f%%), wall %.2fs\n",
		res.CacheHits, res.CacheMisses, res.CacheHitRate()*100, wall.Seconds())
}

// printGuidedSummary reports a guided run, including the model-quality gauge.
func printGuidedSummary(res *dse.GuidedResult, wall time.Duration) {
	fmt.Printf("%s on %s (guided, seed %d): joint space %d points, %d evaluated over %d generations, %d pruned (%d bandwidth, %d route)\n",
		res.Net, res.Board.Name, res.Seed, res.SpaceSize, res.Evaluated, res.Generations,
		res.Pruned, res.PrunedBandwidth, res.PrunedRoute)
	if len(res.Ranked) > 0 && res.Ranked[0].Synthesizable {
		b := res.Ranked[0]
		fmt.Printf("  best: %.1f us at %s (fmax %.0f MHz, %d DSPs)\n", b.TimeUS, b.Key, b.FmaxMHz, b.DSPs)
	}
	fmt.Printf("  model rank correlation: %.3f\n", res.RankCorr)
	if res.SpaceSize > 0 && res.Evaluated > 0 {
		fmt.Printf("  coverage: %d of %d points fully evaluated (%.1fx reduction)\n",
			res.Evaluated, res.SpaceSize, float64(res.SpaceSize)/float64(res.Evaluated))
	}
	fmt.Printf("  cache: %d hits / %d misses (%.0f%%), wall %.2fs\n",
		res.CacheHits, res.CacheMisses, res.CacheHitRate()*100, wall.Seconds())
}

// dseBenchSide is one tier's figures in BENCH_dse.json.
type dseBenchSide struct {
	BestUS  float64 `json:"best_us"`
	Evals   int     `json:"evals"`
	BestKey string  `json:"best_key,omitempty"`
	// Guided-only model stats (omitted on the exhaustive side).
	Generations int     `json:"generations,omitempty"`
	RankCorr    float64 `json:"rank_corr,omitempty"`
}

// dseBenchNet compares the two tiers on one network. CI jq-gates Match and
// the eval ratios (see .github/workflows/ci.yml).
type dseBenchNet struct {
	Net       string       `json:"net"`
	Board     string       `json:"board"`
	SpaceSize int64        `json:"space_size"`
	Exhaust   dseBenchSide `json:"exhaustive"`
	Guided    dseBenchSide `json:"guided"`
	// EvalReductionX is exhaustive evals over guided evals (how much cheaper
	// guided was at equal-or-better quality).
	EvalReductionX float64 `json:"eval_reduction_x"`
	// SpaceOverGuidedEvalsX is the joint-space size over guided evals — the
	// coverage ratio a full sweep of the space would have cost.
	SpaceOverGuidedEvalsX float64 `json:"space_over_guided_evals_x"`
	// Match: guided found a configuration at least as fast as the exhaustive
	// tier's best.
	Match bool `json:"match"`
}

// dseBenchReport is the BENCH_dse.json schema. Every field is a pure function
// of (seed, search spaces): byte-identical across runs and worker counts.
type dseBenchReport struct {
	Seed int64 `json:"seed"`
	// Lenet: guided vs *exhaustive joint enumeration* of the same space —
	// ground truth on a space small enough to sweep.
	Lenet dseBenchNet `json:"lenet"`
	// Mobilenet: guided over the full joint space (too large to sweep) vs the
	// thesis's §4.11 exhaustive tier on its hand-pruned subspace.
	Mobilenet dseBenchNet `json:"mobilenet"`
}

// runBenchDSE measures guided search against exhaustive ground truth and
// writes BENCH_dse.json. Wall time is reported on stdout only, keeping the
// JSON byte-deterministic.
func runBenchDSE(args []string) error {
	fs := flag.NewFlagSet("bench-dse", flag.ContinueOnError)
	out := fs.String("o", "BENCH_dse.json", "output path for the JSON report (\"-\" = stdout)")
	seed := fs.Int64("dse-seed", 1, "guided search seed")
	workers := fs.Int("dse-workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rep := dseBenchReport{Seed: *seed}

	// LeNet-5 on A10: the joint space is small enough to enumerate, so the
	// exhaustive sweep is ground truth and the gate is exact equality.
	lnLayers, a10, err := lowerForDSE("lenet5", "A10")
	if err != nil {
		return err
	}
	t0 := time.Now()
	lnEx, err := dse.ExploreJointWith(lnLayers, "lenet5", a10, dse.Options{Workers: *workers})
	if err != nil {
		return err
	}
	exWall := time.Since(t0)
	t0 = time.Now()
	lnGd, err := dse.ExploreGuided(lnLayers, "lenet5", a10, dse.GuidedOptions{
		Options: dse.Options{Workers: *workers, MaxCandidates: 32}, Seed: *seed,
	})
	if err != nil {
		return err
	}
	gdWall := time.Since(t0)
	rep.Lenet, err = benchNetRow(&lnEx.Result, lnGd)
	if err != nil {
		return err
	}
	rep.Lenet.SpaceSize = lnEx.SpaceSize
	rep.Lenet.SpaceOverGuidedEvalsX = float64(lnEx.SpaceSize) / float64(lnGd.Evaluated)
	fmt.Printf("lenet5/A10: exhaustive %d evals %.2fs, guided %d evals %.2fs: best %.1f vs %.1f us (%.1fx fewer evals, corr %.2f)\n",
		rep.Lenet.Exhaust.Evals, exWall.Seconds(), rep.Lenet.Guided.Evals, gdWall.Seconds(),
		rep.Lenet.Exhaust.BestUS, rep.Lenet.Guided.BestUS, rep.Lenet.EvalReductionX, rep.Lenet.Guided.RankCorr)

	// MobileNetV1 on S10SX: the joint space is deliberately too large to
	// sweep; the baseline is the thesis's exhaustive tier on its hand-pruned
	// subspace (24-candidate budget, the comparison-table setting) and the
	// gate is guided <= baseline with >= 100x coverage leverage.
	mnLayers, s10, err := lowerForDSE("mobilenetv1", "S10SX")
	if err != nil {
		return err
	}
	t0 = time.Now()
	mnEx, err := dse.ExploreWith(mnLayers, "mobilenetv1", s10, dse.Options{Workers: *workers, MaxCandidates: 24})
	if err != nil {
		return err
	}
	exWall = time.Since(t0)
	t0 = time.Now()
	mnGd, err := dse.ExploreGuided(mnLayers, "mobilenetv1", s10, dse.GuidedOptions{
		Options: dse.Options{Workers: *workers, MaxCandidates: 64}, Seed: *seed,
	})
	if err != nil {
		return err
	}
	gdWall = time.Since(t0)
	rep.Mobilenet, err = benchNetRow(mnEx, mnGd)
	if err != nil {
		return err
	}
	rep.Mobilenet.SpaceSize = mnGd.SpaceSize
	rep.Mobilenet.SpaceOverGuidedEvalsX = float64(mnGd.SpaceSize) / float64(mnGd.Evaluated)
	fmt.Printf("mobilenetv1/S10SX: thesis tier %d evals %.2fs, guided %d evals %.2fs over %d-point space: best %.1f vs %.1f us (%.0fx coverage leverage, corr %.2f)\n",
		rep.Mobilenet.Exhaust.Evals, exWall.Seconds(), rep.Mobilenet.Guided.Evals, gdWall.Seconds(),
		rep.Mobilenet.SpaceSize, rep.Mobilenet.Exhaust.BestUS, rep.Mobilenet.Guided.BestUS,
		rep.Mobilenet.SpaceOverGuidedEvalsX, rep.Mobilenet.Guided.RankCorr)

	return writeJSON(*out, rep)
}

// benchNetRow folds one exhaustive/guided pair into a report row.
func benchNetRow(ex *dse.Result, gd *dse.GuidedResult) (dseBenchNet, error) {
	row := dseBenchNet{Net: gd.Net, Board: gd.Board.Name}
	exBest, err := ex.Best()
	if err != nil {
		return row, err
	}
	gdBest, err := gd.Best()
	if err != nil {
		return row, err
	}
	row.Exhaust = dseBenchSide{BestUS: exBest.TimeUS, Evals: ex.Evaluated}
	row.Guided = dseBenchSide{
		BestUS: gdBest.TimeUS, Evals: gd.Evaluated,
		Generations: gd.Generations, RankCorr: gd.RankCorr,
	}
	if len(gd.Ranked) > 0 && gd.Ranked[0].Synthesizable {
		row.Guided.BestKey = gd.Ranked[0].Key
	}
	if gd.Evaluated > 0 {
		row.EvalReductionX = float64(ex.Evaluated) / float64(gd.Evaluated)
	}
	row.Match = gdBest.TimeUS <= exBest.TimeUS
	return row, nil
}
