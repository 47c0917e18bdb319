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

const foldedImages = 4

// foldedInference reproduces the folded-deployment comparisons: Tables
// 6.11/6.12 + Fig 6.5 for MobileNetV1, Tables 6.14/6.15 + Figs 6.6/6.7 for
// the ResNets. Base (naive per-layer) bitstreams that do not fit report
// their failure, as on the Arria 10 in the thesis.
func foldedInference(net string) (*inferenceResult, string, error) {
	g, err := nn.ByName(net)
	if err != nil {
		return nil, "", err
	}
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, "", err
	}
	res := newInference(net, g.FLOPs(), g.Params())
	var areaNote strings.Builder
	areaTb := &table{header: []string{"Board", "Bitstream", "Logic", "BRAM", "DSP", "fmax", "Status"}}
	for _, board := range fpga.Boards {
		// Base: naive per-layer kernels.
		baseDep, err := host.BuildFolded(layers, NaiveFolded, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		logic, ram, dsp := baseDep.Design.Utilization()
		if baseDep.Design.Synthesizable() {
			rb, err := baseDep.Run(1, false)
			if err != nil {
				return nil, "", err
			}
			res.BaseFPS[board.Name] = rb.FPS
			areaTb.add(board.Name, "Base", pct(logic), pct(ram), pct(dsp),
				fmt.Sprintf("%.0f", baseDep.Design.FmaxMHz), "ok")
		} else {
			areaTb.add(board.Name, "Base", pct(logic), pct(ram), pct(dsp), "-",
				"DOES NOT SYNTHESIZE: "+baseDep.Design.FailReason)
		}

		// Optimized: parameterized kernels with the per-board tiling.
		cfg, err := host.FoldedConfigFor(net, board)
		if err != nil {
			return nil, "", err
		}
		optDep, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		logic, ram, dsp = optDep.Design.Utilization()
		if !optDep.Design.Synthesizable() {
			res.FailReason[board.Name] = optDep.Design.FailReason
			if !optDep.Design.Routed {
				res.FailReason[board.Name] = "routing"
			}
			areaTb.add(board.Name, "Optimized", pct(logic), pct(ram), pct(dsp), "-",
				"DOES NOT SYNTHESIZE: "+res.FailReason[board.Name])
			continue
		}
		ro, err := optDep.Run(foldedImages, false)
		if err != nil {
			return nil, "", err
		}
		res.FPS[board.Name] = ro.FPS
		res.GFLOPS[board.Name] = ro.FPS * float64(res.FLOPs) / 1e9
		areaTb.add(board.Name, "Optimized", pct(logic), pct(ram), pct(dsp),
			fmt.Sprintf("%.0f", optDep.Design.FmaxMHz), "ok")
	}
	title := map[string]string{
		"mobilenetv1": "Tables 6.11/6.12 + Fig 6.5: MobileNetV1 inference",
		"resnet18":    "Tables 6.14/6.15 + Fig 6.6: ResNet-18 inference",
		"resnet34":    "Tables 6.14/6.15 + Fig 6.7: ResNet-34 inference",
	}[net]
	report, err := renderInference(res, title)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(&areaNote, "\nResource utilization (fitter):\n%s", areaTb.String())
	return res, report + areaNote.String(), nil
}

// kernelTable reproduces Tables 6.7/6.13: the parameterized kernels and
// unroll factors used for each board's deployment.
func kernelTable(net string) (string, error) {
	var b strings.Builder
	switch net {
	case "mobilenetv1":
		fmt.Fprintf(&b, "== Table 6.7: parameterized kernels for MobileNetV1 ==\n\n")
		tb := &table{header: []string{"Kernel", "Tiled dims", "Unroll factors"}}
		tb.add("1x1 conv", "W2, C2, C1", "S10MX: 7/32/4  S10SX: 7/16/4  A10: 7/8/8")
		tb.add("3x3 conv", "C1, F, F", "3x3x3")
		tb.add("3x3 DW conv, S=1", "W2, F, F", "7x3x3")
		tb.add("3x3 DW conv, S=2", "W2, F, F", "7x3x3")
		tb.add("dense", "C1", "32")
		b.WriteString(tb.String())
	case "resnet18", "resnet34":
		fmt.Fprintf(&b, "== Table 6.13: parameterized kernels for ResNet ==\n\n")
		tb := &table{header: []string{"Kernel", "Tiled dims", "Unroll factors"}}
		tb.add("7x7 conv", "F, F", "7x7")
		tb.add("3x3 conv, S=1", "W2, C1, F, F", "7/8/3/3")
		tb.add("3x3 conv, S=2", "W2, C1, F, F", "7/8/3/3")
		tb.add("1x1 conv (projection)", "C1", "8")
		tb.add("3x3 pool", "F, F", "3x3")
		tb.add("softmax", "na", "1 (not unrolled)")
		b.WriteString(tb.String())
	default:
		return "", fmt.Errorf("bench: no kernel table for %q", net)
	}
	return b.String(), nil
}

// opsProfile reproduces Tables 6.8/6.16: per-operation GFLOPS and runtime
// share for the optimized folded deployment on each Stratix 10 board (and
// the A10 for MobileNet).
func opsProfile(net string) (map[string][]host.OpProfile, string, error) {
	g, err := nn.ByName(net)
	if err != nil {
		return nil, "", err
	}
	layers, err := relay.Lower(g)
	if err != nil {
		return nil, "", err
	}
	out := map[string][]host.OpProfile{}
	var b strings.Builder
	title := "Table 6.8"
	if strings.HasPrefix(net, "resnet") {
		title = "Table 6.16"
	}
	fmt.Fprintf(&b, "== %s: per-operation GFLOPS and runtime share (%s) ==\n\n", title, net)
	for _, board := range fpga.Boards {
		cfg, err := host.FoldedConfigFor(net, board)
		if err != nil {
			return nil, "", err
		}
		dep, err := host.BuildFolded(layers, cfg, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		if !dep.Design.Synthesizable() {
			fmt.Fprintf(&b, "%s: does not synthesize (%s)\n\n", board.Name, dep.Design.FailReason)
			continue
		}
		prof, err := dep.ProfileOps()
		if err != nil {
			return nil, "", err
		}
		out[board.Name] = prof
		tb := &table{header: []string{"Operation", "% of FP ops", board.Name + " GFLOPS", board.Name + " time"}}
		for _, p := range prof {
			tb.add(p.Class, pct(p.FLOPShare), fmtNum(p.GFLOPS), pct(p.TimeShare))
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return out, b.String(), nil
}
