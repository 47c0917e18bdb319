package bench

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
)

// quantResult compares the FP32 deployment against the int8 projection.
type quantResult struct {
	Net, Board         string
	FP32FPS, Int8FPS   float64
	FP32DSPs, Int8DSPs int
	FP32Fits, Int8Fits bool
	Int8FailReason     string
}

// quantizationProjection runs the §8.1 future-work experiment: the same
// folded deployments recompiled under the int8 analysis mode (two packed
// multiplies per DSP, 4x narrower LSUs/caches/traffic). No int8 kernel is
// executed: this is an area/throughput projection, clearly labeled as such.
func quantizationProjection() ([]quantResult, string, error) {
	var out []quantResult
	var b strings.Builder
	fmt.Fprintf(&b, "== Future work (§8.1): int8 quantization projection ==\n\n")
	tb := &table{header: []string{"Net", "Board", "FP32 FPS", "int8 FPS", "gain", "FP32 DSPs", "int8 DSPs", "int8 status"}}
	for _, net := range []string{"mobilenetv1", "resnet18"} {
		g, err := nn.ByName(net)
		if err != nil {
			return nil, "", err
		}
		layers, err := relay.Lower(g)
		if err != nil {
			return nil, "", err
		}
		for _, board := range []*fpga.Board{fpga.S10SX, fpga.A10} {
			cfg, err := host.FoldedConfigFor(net, board)
			if err != nil {
				return nil, "", err
			}
			r := quantResult{Net: net, Board: board.Name}
			fp, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
			if err != nil {
				return nil, "", err
			}
			if fp.Design.Synthesizable() {
				r.FP32Fits = true
				r.FP32DSPs = fp.Design.TotalArea.DSPs
				rr, err := fp.Run(2, false)
				if err != nil {
					return nil, "", err
				}
				r.FP32FPS = rr.FPS
			}
			q8, err := host.BuildFolded(layers, cfg, board,
				aoc.Options{FPRelaxed: true, FPC: true, Int8: true})
			if err != nil {
				return nil, "", err
			}
			r.Int8DSPs = q8.Design.TotalArea.DSPs
			if q8.Design.Synthesizable() {
				r.Int8Fits = true
				rr, err := q8.Run(2, false)
				if err != nil {
					return nil, "", err
				}
				r.Int8FPS = rr.FPS
			} else {
				r.Int8FailReason = q8.Design.FailReason
				if !q8.Design.Routed {
					r.Int8FailReason = "routing"
				}
			}
			out = append(out, r)
			fpFPS, q8FPS, gain := "na", "na", "-"
			if r.FP32Fits {
				fpFPS = fmtNum(r.FP32FPS)
			}
			status := "ok"
			if r.Int8Fits {
				q8FPS = fmtNum(r.Int8FPS)
				if r.FP32Fits {
					gain = speedup(r.Int8FPS / r.FP32FPS)
				}
			} else {
				status = "fails: " + r.Int8FailReason
			}
			tb.add(net, board.Name, fpFPS, q8FPS, gain,
				fmt.Sprintf("%d", r.FP32DSPs), fmt.Sprintf("%d", r.Int8DSPs), status)
		}
	}
	b.WriteString(tb.String())
	b.WriteString("\nProjection only: the analysis models 18x18 packed DSPs and 4x narrower\nLSUs/traffic; no int8 kernel is executed, functionally or timed.\nThe thesis predicts exactly these effects (§6.5, §8.1): higher compute\ndensity and relief of the LSU area/bandwidth bloat that bounds ResNet.\n")
	return out, b.String(), nil
}
