package bench

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

// DSEResult summarizes the explorer run per board.
type DSEResult struct {
	Board      string
	BestPW     string
	BestTimeMS float64
	HandTimeMS float64
	Evaluated  int
	Pruned     int
	// CacheHitRate is the fraction of kernel compilations served from the
	// explorer's memoization cache during this board's search.
	CacheHitRate float64
}

// DSEExperiment runs the future-work design-space explorer (§4.11/§8.1) for
// MobileNetV1 on every board and compares its pick against the thesis's
// hand-selected Table 6.7 configuration. The exploration itself runs through
// the parallel explorer; opts carries worker count, candidate budget and
// deadline (zero values mean GOMAXPROCS workers, the 24-candidate budget
// used by the thesis-comparison tables, and no deadline).
func DSEExperiment(opts dse.Options) ([]DSEResult, string, error) {
	layers, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		return nil, "", err
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 24
	}
	var out []DSEResult
	var b strings.Builder
	fmt.Fprintf(&b, "== Future work (§4.11/§8.1): design-space exploration for MobileNetV1 ==\n\n")
	tb := &table{header: []string{"Board", "Hand-picked (Table 6.7)", "ms", "DSE pick", "ms", "DSE gain", "Evaluated", "Pruned", "Cache"}}
	for _, board := range fpga.Boards {
		res, err := dse.ExploreWith(layers, "mobilenetv1", board, opts)
		if err != nil {
			return nil, "", err
		}
		best, err := res.Best()
		if err != nil {
			return nil, "", err
		}
		hand := host.MobileNetConfig(board)
		handDep, err := host.BuildFolded(layers, hand, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		var handUS float64
		prof, err := handDep.ProfileOps()
		if err != nil {
			return nil, "", err
		}
		for _, p := range prof {
			handUS += p.TimeUS
		}
		handSched := hand.Conv["conv1x1s1"]
		r := DSEResult{
			Board:        board.Name,
			BestPW:       fmt.Sprintf("%d/%d/%d", best.PW.W2vec, best.PW.C2vec, best.PW.C1vec),
			BestTimeMS:   best.TimeUS / 1e3,
			HandTimeMS:   handUS / 1e3,
			Evaluated:    res.Evaluated,
			Pruned:       res.Pruned,
			CacheHitRate: res.CacheHitRate(),
		}
		out = append(out, r)
		tb.add(board.Name,
			fmt.Sprintf("%d/%d/%d", handSched.W2vec, handSched.C2vec, handSched.C1vec),
			fmt.Sprintf("%.1f", r.HandTimeMS),
			r.BestPW, fmt.Sprintf("%.1f", r.BestTimeMS),
			speedup(r.HandTimeMS/r.BestTimeMS),
			fmt.Sprintf("%d", r.Evaluated), fmt.Sprintf("%d", r.Pruned),
			fmt.Sprintf("%.0f%%", r.CacheHitRate*100))
	}
	b.WriteString(tb.String())
	b.WriteString("\nThe explorer enumerates divisor-respecting tilings under the §4.11 rules,\npre-screens routability on the dominant kernel in parallel, compiles each\nsurvivor with the full AOC model (memoizing repeated kernel compilations —\nthe Cache column) and ranks by whole-network forward-pass time. Rankings\nare deterministic for any worker count.\n")
	return out, b.String(), nil
}
