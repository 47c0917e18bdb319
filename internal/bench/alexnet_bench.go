package bench

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/topi"
)

// alexNetConfig is the folded tiling for AlexNet on the Arria 10. Output
// widths per group: 11x11/s4 -> 55, 5x5 -> 27, 3x3 -> 13 (prime), so the
// spatial tile must divide those; parallelism comes mainly from the channel
// dimensions.
func alexNetConfig() host.FoldedConfig {
	return host.FoldedConfig{
		Conv: map[string]topi.ConvSched{
			// The fully-unrolled F x F product already costs 121/25/9 DSPs
			// per lane, so channel/spatial tiles stay small on the A10.
			"conv11x11s4": topi.OptSched(1, 1, 1),
			"conv5x5s1":   topi.OptSched(1, 1, 2),
			"conv3x3s1":   topi.OptSched(13, 1, 4),
		},
		DenseVec:   32,
		Workaround: true,
	}
}

// alexNetResult is the §6.6.2 extension: the AlexNet-to-AlexNet comparison
// against DNNWeaver that the thesis could only approximate with MobileNet.
type alexNetResult struct {
	FPS, GFLOPS   float64
	DNNWeaver     float64 // GFLOPS reported by Venieris et al. for DNNWeaver on the A10
	FLOPs         int64
	Synthesizable bool
	FailReason    string
}

// alexNetComparison deploys AlexNet (folded) on the Arria 10 and compares
// directly against DNNWeaver's published 184.33 GFLOPS — removing the
// MobileNet-vs-AlexNet caveat of Table 6.19.
func alexNetComparison() (*alexNetResult, string, error) {
	g := nn.AlexNet()
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, "", err
	}
	res := &alexNetResult{DNNWeaver: 184.33, FLOPs: g.FLOPs()}
	dep, err := host.BuildFolded(layers, alexNetConfig(), fpga.A10, aoc.DefaultOptions)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Extension of Table 6.19: AlexNet-to-AlexNet vs DNNWeaver on the Arria 10 ==\n\n")
	fmt.Fprintf(&b, "AlexNet: %d fused layers, %.2fM params, %.2fG FLOPs\n\n",
		len(layers), float64(g.Params())/1e6, float64(res.FLOPs)/1e9)
	if !dep.Design.Synthesizable() {
		res.FailReason = dep.Design.FailReason
		fmt.Fprintf(&b, "deployment does not synthesize: %v\n", dep.Design.Err())
		return res, b.String(), nil
	}
	res.Synthesizable = true
	r, err := dep.Run(2, false)
	if err != nil {
		return nil, "", err
	}
	res.FPS = r.FPS
	res.GFLOPS = r.FPS * float64(res.FLOPs) / 1e9
	logic, ram, dsp := dep.Design.Utilization()
	tb := &table{header: []string{"", "DNNWeaver (16b fixed, RTL)", "This flow (32b float, HLS)"}}
	tb.add("Workload", "AlexNet", "AlexNet")
	tb.add("GFLOPS", "184.33", fmtNum(res.GFLOPS))
	tb.add("Ratio", "1.00x", speedup(res.GFLOPS/res.DNNWeaver))
	tb.add("FPS", "-", fmtNum(res.FPS))
	tb.add("fmax", "200", fmt.Sprintf("%.0f", dep.Design.FmaxMHz))
	tb.add("Area", "~95% DSP", fmt.Sprintf("logic %s, BRAM %s, DSP %s", pct(logic), pct(ram), pct(dsp)))
	b.WriteString(tb.String())
	b.WriteString("\nSame-network comparison the thesis could not make (§6.6.2 fn. 4): the gap\nvs hand-optimized 16-bit RTL remains large, as the thesis anticipates.\n")
	return res, b.String(), nil
}
