package bench

import (
	"fmt"
	"strings"

	"repro/internal/aoc"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/nn"
	"repro/internal/relay"
	"repro/internal/topi"
)

// TilingConfig is one row of Table 6.6.
type TilingConfig struct {
	Index               int
	W2vec, C2vec, C1vec int
}

// tilingConfigs are the seven featured configurations of Table 6.6.
var tilingConfigs = []TilingConfig{
	{1, 7, 4, 8},
	{2, 7, 4, 16},
	{3, 7, 8, 4},
	{4, 7, 8, 8},
	{5, 7, 8, 16},
	{6, 7, 16, 4},
	{7, 7, 16, 8},
}

// TilingRow is one measured row of Table 6.6 / Fig 6.3.
type TilingRow struct {
	Config      TilingConfig
	Logic, RAM  float64
	DSPs        int
	FmaxMHz     float64
	TimeMS      float64
	Improvement float64
	Routed      bool
}

// TilingSweepResult holds the sweep plus the baseline.
type TilingSweepResult struct {
	Board      string
	BaseTimeMS float64
	Rows       []TilingRow
}

// pw1x1Layers extracts MobileNetV1's 1×1 convolution layers.
func pw1x1Layers() ([]*relay.Layer, error) {
	layers, err := relay.Lower(nn.MobileNetV1())
	if err != nil {
		return nil, err
	}
	var out []*relay.Layer
	for _, l := range layers {
		if l.Kind == relay.KConv && l.F == 1 {
			out = append(out, l)
		}
	}
	return out, nil
}

// TilingSweep reproduces Table 6.6 and Fig 6.3: parameterized 1×1
// convolution kernels at seven tiling configurations on the Arria 10,
// measured as the total time for all MobileNetV1 1×1 layers against the
// default-schedule baseline.
func TilingSweep(board *fpga.Board) (*TilingSweepResult, string, error) {
	layers, err := pw1x1Layers()
	if err != nil {
		return nil, "", err
	}
	res := &TilingSweepResult{Board: board.Name}

	// Baseline: the default TVM schedule per layer, compiled standalone.
	var baseUS float64
	for i, l := range layers {
		spec := topi.ConvSpec{Name: fmt.Sprintf("base1x1_%d", i), C1: l.InShape[0], H: l.InShape[1],
			W: l.InShape[2], C2: l.OutShape[0], F: 1, S: 1, Relu: l.Relu, Bias: l.B != nil}
		op, err := topi.Conv2D(spec, topi.ConvSched{Naive: true}, topi.ConvIO{})
		if err != nil {
			return nil, "", err
		}
		d, err := aoc.Compile(spec.Name, []*ir.Kernel{op.Kernel}, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		baseUS += d.Kernels[0].TimeUS(nil, d.FmaxMHz, board)
	}
	res.BaseTimeMS = baseUS / 1e3

	for _, cfg := range tilingConfigs {
		pc, err := topi.ConvParam(fmt.Sprintf("pw_%d_%d_%d", cfg.W2vec, cfg.C2vec, cfg.C1vec),
			1, 1, topi.OptSched(cfg.W2vec, cfg.C2vec, cfg.C1vec), true, true, false, true)
		if err != nil {
			return nil, "", err
		}
		d, err := aoc.Compile(pc.Op.Kernel.Name, []*ir.Kernel{pc.Op.Kernel}, board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		row := TilingRow{Config: cfg, FmaxMHz: d.FmaxMHz, Routed: d.Routed}
		logic, ram, _ := d.Utilization()
		row.Logic, row.RAM = logic, ram
		row.DSPs = d.TotalArea.DSPs
		if d.Synthesizable() {
			var us float64
			for _, l := range layers {
				bind, err := pc.Bind(l.InShape[0], l.InShape[1], l.InShape[2], l.OutShape[0])
				if err != nil {
					return nil, "", err
				}
				us += d.Kernels[0].TimeUS(bind, d.FmaxMHz, board)
			}
			row.TimeMS = us / 1e3
			row.Improvement = res.BaseTimeMS / row.TimeMS
		}
		res.Rows = append(res.Rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Table 6.6 / Fig 6.3: 1x1 convolution tiling sweep on %s ==\n\n", board.Name)
	fmt.Fprintf(&b, "Baseline (default TVM schedule): %.1f ms for all MobileNetV1 1x1 layers\n\n", res.BaseTimeMS)
	tb := &table{header: []string{"Cfg", "W2vec", "C2vec", "C1vec", "Logic", "RAM", "DSPs", "fmax", "Time(ms)", "Improvement", "Routed"}}
	labels := []string{}
	dspVals := []float64{}
	impVals := []float64{}
	for _, r := range res.Rows {
		routed := "yes"
		imp := speedup(r.Improvement)
		tm := fmt.Sprintf("%.2f", r.TimeMS)
		if !r.Routed {
			routed, imp, tm = "NO (congestion)", "-", "-"
		}
		tb.add(fmt.Sprintf("%d", r.Config.Index),
			fmt.Sprintf("%d", r.Config.W2vec), fmt.Sprintf("%d", r.Config.C2vec), fmt.Sprintf("%d", r.Config.C1vec),
			pct(r.Logic), pct(r.RAM), fmt.Sprintf("%d", r.DSPs), fmt.Sprintf("%.0f", r.FmaxMHz),
			tm, imp, routed)
		labels = append(labels, fmt.Sprintf("cfg%d (%d/%d/%d)", r.Config.Index, r.Config.W2vec, r.Config.C2vec, r.Config.C1vec))
		dspVals = append(dspVals, float64(r.DSPs))
		impVals = append(impVals, r.Improvement)
	}
	b.WriteString(tb.String())
	b.WriteString("\n")
	b.WriteString(barChart("Fig 6.3a: DSP blocks per configuration", labels, dspVals, " DSPs"))
	b.WriteString("\n")
	b.WriteString(barChart("Fig 6.3b: improvement over base schedule", labels, impVals, "x"))
	return res, b.String(), nil
}

// RoutingFailure captures one §6.5 congestion case.
type RoutingFailure struct {
	Board               string
	W2vec, C2vec, C1vec int
	Routed              bool
	Demand, Capacity    float64
}

// RoutingFailures reproduces the §6.5 observations: 7/16/8 fails to route on
// the S10SX and 7/32/8 on the S10MX, while the final deployment configs pass.
func RoutingFailures() ([]RoutingFailure, string, error) {
	cases := []struct {
		board     *fpga.Board
		w, c2, c1 int
	}{
		{fpga.S10SX, 7, 16, 4}, // deployed
		{fpga.S10SX, 7, 16, 8}, // fails (§6.5)
		{fpga.S10MX, 7, 32, 4}, // deployed
		{fpga.S10MX, 7, 32, 8}, // fails (§6.5)
		{fpga.A10, 7, 8, 8},    // deployed
		{fpga.A10, 7, 8, 16},   // Table 6.6 cfg 5: routes at degraded fmax
	}
	var out []RoutingFailure
	var b strings.Builder
	fmt.Fprintf(&b, "== §6.5 / Fig 6.8: routing outcomes for 1x1 tiling configurations ==\n\n")
	tb := &table{header: []string{"Board", "Config", "Demand", "Capacity", "fmax", "Routed"}}
	for _, c := range cases {
		pc, err := topi.ConvParam("pw_route", 1, 1, topi.OptSched(c.w, c.c2, c.c1), true, true, false, true)
		if err != nil {
			return nil, "", err
		}
		d, err := aoc.Compile("route-case", []*ir.Kernel{pc.Op.Kernel}, c.board, aoc.DefaultOptions)
		if err != nil {
			return nil, "", err
		}
		f := RoutingFailure{Board: c.board.Name, W2vec: c.w, C2vec: c.c2, C1vec: c.c1,
			Routed: d.Routed, Demand: d.WorstDemand, Capacity: d.Capacity}
		out = append(out, f)
		routed := "yes"
		if !d.Routed {
			routed = "NO"
		}
		tb.add(c.board.Name, fmt.Sprintf("%d/%d/%d", c.w, c.c2, c.c1),
			fmt.Sprintf("%.0f", f.Demand), fmt.Sprintf("%.0f", f.Capacity),
			fmt.Sprintf("%.0f", d.FmaxMHz), routed)
	}
	b.WriteString(tb.String())
	return out, b.String(), nil
}

// RoutingMap renders the Fig 6.8 heatmap for the failing S10SX 7/16/8 case.
func RoutingMap() (string, error) {
	pc, err := topi.ConvParam("pw_7_16_8", 1, 1, topi.OptSched(7, 16, 8), true, true, false, true)
	if err != nil {
		return "", err
	}
	d, err := aoc.Compile("fig6.8", []*ir.Kernel{pc.Op.Kernel}, fpga.S10SX, aoc.DefaultOptions)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig 6.8: routing utilization, 1x1 conv 7/16/8 on the S10SX ==\n")
	fmt.Fprintf(&b, "('#' regions exceed 95%% routing utilization; demand %.0f vs capacity %.0f)\n\n",
		d.WorstDemand, d.Capacity)
	for _, row := range d.RoutingMap(64, 16) {
		b.WriteString("  " + row + "\n")
	}
	if !d.Routed {
		b.WriteString("\nRouter result: FAILED — congestion (as observed in the thesis)\n")
	} else {
		b.WriteString("\nRouter result: routed\n")
	}
	return b.String(), nil
}
