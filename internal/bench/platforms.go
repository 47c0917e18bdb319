package bench

import (
	"fmt"
	"strings"

	"repro/internal/cpuref"
	"repro/internal/fpga"
	"repro/internal/nn"
	"repro/internal/relay"
)

// platforms renders Tables 6.1–6.3 from the board models and baseline
// profiles, so the simulated platform parameters are inspectable next to the
// results they produce.
func platforms() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 6.1: FPGA platforms ==\n\n")
	t1 := &table{header: []string{"Platform", "SKU", "External memory", "Peak BW", "Enqueue", "Quartus"}}
	for _, board := range fpga.Boards {
		t1.add(board.Name, board.SKU, board.MemName,
			fmt.Sprintf("%.1f GB/s", board.PeakGBps),
			fmt.Sprintf("%.0f us", board.EnqueueUS),
			fmt.Sprintf("%.1f", board.QuartusMajor))
	}
	b.WriteString(t1.String())

	fmt.Fprintf(&b, "\n== Table 6.2: chip resources and static partition ==\n\n")
	t2 := &table{header: []string{"Platform", "ALUTs", "FFs", "RAMs", "DSPs", "Static ALUTs", "Static RAMs"}}
	for _, board := range fpga.Boards {
		t2.add(board.Name,
			fmt.Sprintf("%d", board.Total.ALUTs), fmt.Sprintf("%d", board.Total.FFs),
			fmt.Sprintf("%d", board.Total.RAMs), fmt.Sprintf("%d", board.Total.DSPs),
			fmt.Sprintf("%d (%.0f%%)", board.Static.ALUTs, 100*float64(board.Static.ALUTs)/float64(board.Total.ALUTs)),
			fmt.Sprintf("%d (%.0f%%)", board.Static.RAMs, 100*float64(board.Static.RAMs)/float64(board.Total.RAMs)))
	}
	b.WriteString(t2.String())

	fmt.Fprintf(&b, "\n== Table 6.3: CPU and GPU baselines (analytic anchors) ==\n\n")
	t3 := &table{header: []string{"Network", "TF-CPU FPS (threads)", "TVM-1T FPS", "TVM best", "TF-cuDNN FPS"}}
	for _, net := range cpuref.Nets() {
		tf, threads, _ := cpuref.TFCPUFPS(net)
		tvm1, _ := cpuref.TVMCPUFPS(net, 1)
		bn, bf, _ := cpuref.BestTVMThreads(net)
		gpu, _ := cpuref.GPUFPS(net)
		t3.add(net, fmt.Sprintf("%s (%d)", fmtNum(tf), threads), fmtNum(tvm1),
			fmt.Sprintf("%s @%dT", fmtNum(bf), bn), fmtNum(gpu))
	}
	b.WriteString(t3.String())
	b.WriteString("\nBaselines are analytic models anchored to the thesis's measured FPS\n(Xeon 8280 2x28C, GTX 1060 6GB) — see DESIGN.md substitutions.\n")
	return b.String()
}

// models renders the network-architecture tables (Tables 2.1–2.3 plus
// AlexNet) as fused layer listings.
func models() (string, error) {
	var b strings.Builder
	for _, net := range []string{"lenet5", "mobilenetv1", "resnet18", "resnet34", "alexnet"} {
		g, err := nn.ByName(net)
		if err != nil {
			return "", err
		}
		layers, err := relay.Lower(g)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "== %s: %d fused layers, %.4gM params, %.4gG FLOPs ==\n\n",
			net, len(layers), float64(g.Params())/1e6, float64(g.FLOPs())/1e9)
		b.WriteString(relay.DumpLayers(layers))
		b.WriteString("\n")
	}
	return b.String(), nil
}
